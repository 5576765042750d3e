package hpfs_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fat"
	"repro/internal/hpfs"
	"repro/internal/jfs"
	"repro/internal/vfs"
)

// The tests in this file hold for every volume laid down in the extent
// format: hpfs, and jfs, which mounts the same format behind a journal.

// maxEA is the format's per-node EA count.
const maxEA = 8

// format is one extent format under test.
type format struct {
	name       string
	sectors    uint64
	format     func(vfs.BlockDev) error
	new        func() vfs.FileSystem
	tooManyEAs error
	fragmented error
}

var formats = []format{
	{"hpfs", 4096, hpfs.Format, func() vfs.FileSystem { return hpfs.New() }, hpfs.ErrTooManyEAs, hpfs.ErrFragmented},
	{"jfs", 8192, jfs.Format, func() vfs.FileSystem { return jfs.New() }, jfs.ErrTooManyEAs, jfs.ErrFragmented},
}

// eachFormat runs test once per format, as a subtest named after it.
func eachFormat(t *testing.T, test func(t *testing.T, f format)) {
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) { test(t, f) })
	}
}

func (f format) mount(t testing.TB, dev vfs.BlockDev) vfs.FileSystem {
	fs := f.new()
	if err := fs.Mount(dev); err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return fs
}

// fresh formats a RAM disk and mounts it.
func (f format) fresh(t testing.TB) (vfs.FileSystem, *vfs.RAMDisk) {
	dev := vfs.NewRAMDisk(f.sectors)
	if err := f.format(dev); err != nil {
		t.Fatalf("Format: %v", err)
	}
	return f.mount(t, dev), dev
}

// pattern is n bytes that differ from their neighbours, so a read from
// the wrong offset shows.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7) + byte(i/251)
	}
	return b
}

func TestEAs(t *testing.T) {
	eachFormat(t, func(t *testing.T, ff format) {
		fs, _ := ff.fresh(t)
		f, _ := fs.Root().Create("f", false)
		f.SetEA("a", "1")
		f.SetEA("b", "2")
		f.SetEA("a", "3") // replace
		if v, _ := f.GetEA("a"); v != "3" {
			t.Fatalf("a = %q", v)
		}
		if _, err := f.GetEA("zz"); err != vfs.ErrNotFound {
			t.Fatalf("missing EA err = %v", err)
		}
		a, _ := f.Attr()
		if len(a.EAs) != 2 {
			t.Fatalf("attr EAs = %v", a.EAs)
		}
		// Fill the EA table.
		var err error
		for i := 0; i < maxEA+1; i++ {
			err = f.SetEA(string(rune('c'+i)), "v")
		}
		if err != ff.tooManyEAs {
			t.Fatalf("overflow err = %v", err)
		}
		// EA area byte limit.
		g, _ := fs.Root().Create("g", false)
		if err := g.SetEA("k", strings.Repeat("v", 200)); err != ff.tooManyEAs {
			t.Fatalf("oversized EA err = %v", err)
		}
	})
}

func TestExtentGrowthAndTruncate(t *testing.T) {
	eachFormat(t, func(t *testing.T, ff format) {
		fs, _ := ff.fresh(t)
		f, _ := fs.Root().Create("big", false)
		payload := pattern(40*512+100, 3)
		if _, err := f.WriteAt(payload, 0); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		a, _ := f.Attr()
		if a.Size != int64(len(payload)) {
			t.Fatalf("size = %d", a.Size)
		}
		got := make([]byte, len(payload))
		if n, err := f.ReadAt(got, 0); err != nil || n != len(payload) || !bytes.Equal(got, payload) {
			t.Fatalf("read back: %d %v", n, err)
		}
		if err := f.Truncate(512); err != nil {
			t.Fatalf("Truncate: %v", err)
		}
		a, _ = f.Attr()
		if a.Size != 512 {
			t.Fatalf("size = %d", a.Size)
		}
		short := make([]byte, 1024)
		if n, _ := f.ReadAt(short, 0); n != 512 || !bytes.Equal(short[:n], payload[:512]) {
			t.Fatalf("read after truncate = %d", n)
		}
	})
}

func TestInterleavedFilesGetSeparateExtents(t *testing.T) {
	eachFormat(t, func(t *testing.T, ff format) {
		fs, _ := ff.fresh(t)
		a, _ := fs.Root().Create("a", false)
		b, _ := fs.Root().Create("b", false)
		// Interleave growth so the files cannot be one contiguous run
		// each: every sector starts a new extent.
		const rounds = 14
		for i := 0; i < rounds; i++ {
			if _, err := a.WriteAt(bytes.Repeat([]byte{1}, 512), int64(i*512)); err != nil {
				t.Fatalf("a round %d: %v", i, err)
			}
			if _, err := b.WriteAt(bytes.Repeat([]byte{2}, 512), int64(i*512)); err != nil {
				t.Fatalf("b round %d: %v", i, err)
			}
		}
		bufA := make([]byte, rounds*512)
		bufB := make([]byte, rounds*512)
		a.ReadAt(bufA, 0)
		b.ReadAt(bufB, 0)
		for i := range bufA {
			if bufA[i] != 1 || bufB[i] != 2 {
				t.Fatalf("cross-contamination at %d: %d %d", i, bufA[i], bufB[i])
			}
		}
		// The extent table is full: one more extent does not fit.
		if _, err := a.WriteAt([]byte{1}, rounds*512); err != ff.fragmented {
			t.Fatalf("extent overflow err = %v, want %v", err, ff.fragmented)
		}
	})
}

func TestRemoveFreesSectorsAndDirShrinks(t *testing.T) {
	eachFormat(t, func(t *testing.T, ff format) {
		fs, _ := ff.fresh(t)
		root := fs.Root()
		f, _ := root.Create("x", false)
		f.WriteAt(make([]byte, 20*512), 0)
		if err := root.Remove("x"); err != nil {
			t.Fatalf("Remove: %v", err)
		}
		if _, err := root.Lookup("x"); err != vfs.ErrNotFound {
			t.Fatal("file survived removal")
		}
		ents, _ := root.ReadDir()
		if len(ents) != 0 {
			t.Fatalf("dir not empty: %v", ents)
		}
		// Removed node is reusable.
		if _, err := root.Create("y", false); err != nil {
			t.Fatalf("recreate: %v", err)
		}
	})
}

func TestRemoveAndReuse(t *testing.T) {
	eachFormat(t, func(t *testing.T, ff format) {
		fs, _ := ff.fresh(t)
		root := fs.Root()
		f, _ := root.Create("tmp", false)
		f.WriteAt(make([]byte, 30*512), 0)
		if err := root.Remove("tmp"); err != nil {
			t.Fatalf("Remove: %v", err)
		}
		if _, err := root.Lookup("tmp"); err != vfs.ErrNotFound {
			t.Fatal("file survived")
		}
		g, err := root.Create("tmp2", false)
		if err != nil {
			t.Fatalf("recreate: %v", err)
		}
		if _, err := g.WriteAt(make([]byte, 30*512), 0); err != nil {
			t.Fatalf("rewrite into freed space: %v", err)
		}
	})
}

func TestRemoveNonEmptyDir(t *testing.T) {
	eachFormat(t, func(t *testing.T, ff format) {
		fs, _ := ff.fresh(t)
		d, _ := fs.Root().Create("dir", true)
		d.Create("inner", false)
		if err := fs.Root().Remove("dir"); err != vfs.ErrNotEmpty {
			t.Fatalf("err = %v", err)
		}
		d.Remove("inner")
		if err := fs.Root().Remove("dir"); err != nil {
			t.Fatalf("remove emptied: %v", err)
		}
	})
}

func TestDeepDirectoryTree(t *testing.T) {
	eachFormat(t, func(t *testing.T, ff format) {
		fs, _ := ff.fresh(t)
		cur := fs.Root()
		for i := 0; i < 10; i++ {
			next, err := cur.Create("level", true)
			if err != nil {
				t.Fatalf("level %d: %v", i, err)
			}
			cur = next
		}
		f, err := cur.Create("leaf.txt", false)
		if err != nil {
			t.Fatalf("leaf: %v", err)
		}
		f.WriteAt([]byte("deep"), 0)
		// Walk back down from the root.
		v := fs.Root()
		for i := 0; i < 10; i++ {
			v, err = v.Lookup("level")
			if err != nil {
				t.Fatalf("walk %d: %v", i, err)
			}
		}
		leaf, err := v.Lookup("leaf.txt")
		if err != nil {
			t.Fatalf("leaf lookup: %v", err)
		}
		buf := make([]byte, 4)
		leaf.ReadAt(buf, 0)
		if string(buf) != "deep" {
			t.Fatalf("leaf data = %q", buf)
		}
	})
}

func TestNameLimit(t *testing.T) {
	eachFormat(t, func(t *testing.T, ff format) {
		fs, _ := ff.fresh(t)
		max := fs.Caps().MaxNameLen
		if _, err := fs.Root().Create(strings.Repeat("x", max+1), false); err != vfs.ErrNameTooLong {
			t.Fatalf("err = %v", err)
		}
		if _, err := fs.Root().Create(strings.Repeat("x", max), false); err != nil {
			t.Fatalf("max-length name: %v", err)
		}
		for _, bad := range []string{"", "a/b"} {
			if _, err := fs.Root().Create(bad, false); err != vfs.ErrBadName {
				t.Fatalf("Create(%q) err = %v", bad, err)
			}
		}
	})
}

func TestDataPersistsAcrossRemount(t *testing.T) {
	eachFormat(t, func(t *testing.T, ff format) {
		fs, dev := ff.fresh(t)
		d, _ := fs.Root().Create("docs", true)
		f, err := d.Create("essay.txt", false)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		payload := bytes.Repeat([]byte("hpfs!"), 1000)
		f.WriteAt(payload, 0)
		f.SetEA(".LONGNAME", "essay about microkernels")
		if err := fs.Unmount(); err != nil {
			t.Fatalf("Unmount: %v", err)
		}

		fs2 := ff.mount(t, dev)
		d2, err := fs2.Root().Lookup("docs")
		if err != nil {
			t.Fatalf("dir lookup: %v", err)
		}
		f2, err := d2.Lookup("essay.txt")
		if err != nil {
			t.Fatalf("file lookup: %v", err)
		}
		got := make([]byte, len(payload))
		n, err := f2.ReadAt(got, 0)
		if err != nil || n != len(payload) || !bytes.Equal(got, payload) {
			t.Fatalf("data: %d %v", n, err)
		}
		if v, err := f2.GetEA(".LONGNAME"); err != nil || v != "essay about microkernels" {
			t.Fatalf("EA: %q %v", v, err)
		}
	})
}

// Property: write/read at arbitrary offsets is exact.
func TestPropertyWriteRead(t *testing.T) {
	eachFormat(t, func(t *testing.T, ff format) {
		fs, _ := ff.fresh(t)
		f, _ := fs.Root().Create("prop", false)
		check := func(off uint16, data []byte) bool {
			if len(data) == 0 {
				return true
			}
			if len(data) > 3000 {
				data = data[:3000]
			}
			if _, err := f.WriteAt(data, int64(off)); err != nil {
				return false
			}
			got := make([]byte, len(data))
			n, err := f.ReadAt(got, int64(off))
			return err == nil && n == len(data) && bytes.Equal(got, data)
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatal(err)
		}
	})
}

// --- device faults: errors surface cleanly and never wedge the volume ---

// faulty formats a RAM disk and mounts it through a FaultyDev.
func (f format) faulty(t *testing.T) (vfs.FileSystem, *vfs.FaultyDev, *vfs.RAMDisk) {
	raw := vfs.NewRAMDisk(f.sectors)
	if err := f.format(raw); err != nil {
		t.Fatal(err)
	}
	dev := vfs.NewFaultyDev(raw)
	return f.mount(t, dev), dev, raw
}

func TestIOErrorDuringWritePropagates(t *testing.T) {
	eachFormat(t, func(t *testing.T, ff format) {
		fs, dev, _ := ff.faulty(t)
		f, err := fs.Root().Create("d.bin", false)
		if err != nil {
			t.Fatal(err)
		}
		dev.FailAfter(0, false, true) // all writes fail
		if _, err := f.WriteAt(make([]byte, 2048), 0); !errors.Is(err, vfs.ErrIO) {
			t.Fatalf("err = %v, want ErrIO", err)
		}
		dev.Heal()
		if _, err := f.WriteAt([]byte("fine"), 0); err != nil {
			t.Fatalf("post-heal write: %v", err)
		}
		buf := make([]byte, 4)
		if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != "fine" {
			t.Fatalf("post-heal read: %q %v", buf, err)
		}
	})
}

func TestIOErrorDuringReadPropagates(t *testing.T) {
	eachFormat(t, func(t *testing.T, ff format) {
		fs, dev, _ := ff.faulty(t)
		f, _ := fs.Root().Create("x.txt", false)
		f.WriteAt([]byte("payload"), 0)
		// Metadata is home, so directory reads reach the device too.
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		dev.FailAfter(0, true, false)
		buf := make([]byte, 7)
		if _, err := f.ReadAt(buf, 0); !errors.Is(err, vfs.ErrIO) {
			t.Fatalf("err = %v", err)
		}
		if _, err := fs.Root().ReadDir(); !errors.Is(err, vfs.ErrIO) {
			t.Fatalf("readdir err = %v", err)
		}
		dev.Heal()
		if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != "payload" {
			t.Fatalf("post-heal: %q %v", buf, err)
		}
	})
}

func TestCreateFailsMidwayLeavesMountableVolume(t *testing.T) {
	eachFormat(t, func(t *testing.T, ff format) {
		fs, dev, raw := ff.faulty(t)
		// Let one op through, then fail writes during a create.
		dev.FailAfter(1, false, true)
		_, cerr := fs.Root().Create("new.txt", false)
		dev.Heal()
		// Whatever happened, the volume must still mount and list.
		fs2 := ff.mount(t, raw)
		if _, err := fs2.Root().ReadDir(); err != nil {
			t.Fatalf("readdir after partial create (%v): %v", cerr, err)
		}
	})
}

// --- growing a file reads zeros ---

// TestGrowReadsZeros: bytes a file gains by growing read as zeros, on
// the extent formats and fat as on memfs, however the sectors under them
// were used before.
func TestGrowReadsZeros(t *testing.T) {
	fresh := map[string]func(t *testing.T) vfs.FileSystem{
		"memfs": func(*testing.T) vfs.FileSystem { return vfs.NewMemFS() },
		"fat": func(t *testing.T) vfs.FileSystem {
			dev := vfs.NewRAMDisk(4096)
			if err := fat.Format(dev); err != nil {
				t.Fatalf("Format: %v", err)
			}
			fs := fat.New()
			if err := fs.Mount(dev); err != nil {
				t.Fatalf("Mount: %v", err)
			}
			return fs
		},
	}
	for _, ff := range formats {
		fresh[ff.name] = func(t *testing.T) vfs.FileSystem { fs, _ := ff.fresh(t); return fs }
	}
	probes := []struct {
		name string
		grow func(t *testing.T, root vfs.Vnode) vfs.Vnode
		want []byte
	}{
		{"truncate", func(t *testing.T, root vfs.Vnode) vfs.Vnode {
			// Shrink, then grow back over the freed tail.
			f, _ := root.Create("shrunk", false)
			f.WriteAt(bytes.Repeat([]byte("A"), 1024), 0)
			if err := f.Truncate(10); err != nil {
				t.Fatal(err)
			}
			if err := f.Truncate(1024); err != nil {
				t.Fatal(err)
			}
			return f
		}, append(bytes.Repeat([]byte("A"), 10), make([]byte, 1014)...)},
		{"write-past-eof", func(t *testing.T, root vfs.Vnode) vfs.Vnode {
			// Write past EOF over a removed file's sectors.
			g, _ := root.Create("old", false)
			g.WriteAt(bytes.Repeat([]byte("B"), 2048), 0)
			if err := root.Remove("old"); err != nil {
				t.Fatal(err)
			}
			f, _ := root.Create("sparse", false)
			if _, err := f.WriteAt([]byte{'C'}, 1500); err != nil {
				t.Fatal(err)
			}
			return f
		}, append(make([]byte, 1500), 'C')},
		{"shrink-then-write-past-eof", func(t *testing.T, root vfs.Vnode) vfs.Vnode {
			// Shrink inside a sector, then write past EOF in the same
			// file: the gap, in the old last sector, is zeros.
			f, _ := root.Create("gap", false)
			f.WriteAt(bytes.Repeat([]byte("D"), 1024), 0)
			if err := f.Truncate(10); err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte{'E'}, 600); err != nil {
				t.Fatal(err)
			}
			return f
		}, append(append(bytes.Repeat([]byte("D"), 10), make([]byte, 590)...), 'E')},
	}
	for _, p := range probes {
		for _, name := range []string{"fat", "hpfs", "jfs", "memfs"} {
			t.Run(p.name+"/"+name, func(t *testing.T) {
				f := p.grow(t, fresh[name](t).Root())
				got := make([]byte, len(p.want))
				if n, err := f.ReadAt(got, 0); err != nil || n != len(got) {
					t.Fatalf("read: %d %v", n, err)
				}
				for i := range got {
					if got[i] != p.want[i] {
						t.Fatalf("byte %d = %q, want %q", i, got[i], p.want[i])
					}
				}
			})
		}
	}
}

// --- device traffic ---

// recDev records every device request as (op, sector, length).
type recDev struct {
	vfs.BlockDev
	log bytes.Buffer
	n   int
}

func (r *recDev) ReadSectors(sector uint64, buf []byte) error {
	fmt.Fprintf(&r.log, "R %d %d\n", sector, len(buf))
	r.n++
	return r.BlockDev.ReadSectors(sector, buf)
}

func (r *recDev) WriteSectors(sector uint64, data []byte) error {
	fmt.Fprintf(&r.log, "W %d %d\n", sector, len(data))
	r.n++
	return r.BlockDev.WriteSectors(sector, data)
}

// trafficScript drives one fixed sequence of operations over a freshly
// formatted volume.  It never grows a file past its end other than by
// appending, and never fills the volume.
func trafficScript(t *testing.T, ff format, dev vfs.BlockDev) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(ff.format(dev))
	fs := ff.mount(t, dev)
	root := fs.Root()
	docs, err := root.Create("Docs", true)
	must(err)
	essay, err := docs.Create("Essay.TXT", false)
	must(err)
	other, err := root.Create("other", false)
	must(err)
	// Mixed-case lookups: a hit on either format, then one that only a
	// case-folding format matches.
	_, err = root.Lookup("Docs")
	must(err)
	root.Lookup("DOCS")
	docs.Lookup("essay.txt")
	// Appends, interleaved so the files fragment, and an overwrite.
	for i := 0; i < 4; i++ {
		_, err = essay.WriteAt(pattern(700, byte(i)), int64(i*700))
		must(err)
		_, err = other.WriteAt(pattern(300, byte(i)), int64(i*300))
		must(err)
	}
	_, err = essay.WriteAt(pattern(900, 9), 100)
	must(err)
	buf := make([]byte, 3000)
	_, err = essay.ReadAt(buf, 0)
	must(err)
	_, err = essay.ReadAt(buf[:100], 2750)
	must(err)
	_, err = root.ReadDir()
	must(err)
	_, err = docs.ReadDir()
	must(err)
	// EAs up to the count limit, a replacement, and the byte limit.
	for i := 0; i < maxEA; i++ {
		must(essay.SetEA(fmt.Sprintf("ea%d", i), "v"))
	}
	if err := essay.SetEA("one-too-many", "v"); err != ff.tooManyEAs {
		t.Fatalf("EA count limit: %v", err)
	}
	must(essay.SetEA("ea3", "replaced"))
	if err := other.SetEA("big", strings.Repeat("v", 200)); err != ff.tooManyEAs {
		t.Fatalf("EA byte limit: %v", err)
	}
	_, err = essay.GetEA("ea3")
	must(err)
	_, err = essay.Attr()
	must(err)
	// A directory whose data spans two sectors, then shrinks back to one:
	// on jfs this also overflows the journal into an automatic sync.
	many, err := root.Create("many", true)
	must(err)
	for i := 0; i < 140; i++ {
		_, err = many.Create(fmt.Sprintf("n%03d", i), false)
		must(err)
	}
	for i := 139; i >= 120; i-- {
		must(many.Remove(fmt.Sprintf("n%03d", i)))
	}
	// Shrinking truncates, and one to the current size.
	must(essay.Truncate(1000))
	must(essay.Truncate(1000))
	must(other.Truncate(0))
	// Remove: a file with data, a non-empty directory, an empty one.
	must(root.Remove("other"))
	if err := root.Remove("Docs"); err != vfs.ErrNotEmpty {
		t.Fatalf("remove non-empty: %v", err)
	}
	must(docs.Remove("Essay.TXT"))
	must(root.Remove("Docs"))
	must(fs.Sync())

	// Stage more, commit it (jfs: commit only, as if the machine died
	// before the home writes), and remount: jfs replays its journal.
	late, err := root.Create("late", false)
	must(err)
	_, err = late.WriteAt(pattern(600, 5), 0)
	must(err)
	if j, ok := fs.(*jfs.FS); ok {
		j.FailAfterCommit = true
	}
	must(fs.Sync())
	fs = ff.mount(t, dev)
	late, err = fs.Root().Lookup("late")
	must(err)
	_, err = late.ReadAt(buf[:600], 0)
	must(err)
	_, err = fs.Root().ReadDir()
	must(err)
	must(fs.Unmount())
}

// TestDeviceTrafficPinned pins each format's device traffic over one
// script: a change to the format's code that moves, adds or drops a
// device request changes the digest, and with a cache configured it
// would change modeled cycles.
func TestDeviceTrafficPinned(t *testing.T) {
	// Recorded at commit 63b8675.
	want := map[string]string{
		"hpfs": "45b74c58e85c6bbc",
		"jfs":  "65fe377781a47c90",
	}
	eachFormat(t, func(t *testing.T, ff format) {
		dev := &recDev{BlockDev: vfs.NewRAMDisk(ff.sectors)}
		trafficScript(t, ff, dev)
		got := fmt.Sprintf("%x", sha256.Sum256(dev.log.Bytes()))[:16]
		if got != want[ff.name] {
			t.Fatalf("device traffic digest = %s over %d requests, want %s", got, dev.n, want[ff.name])
		}
	})
}
