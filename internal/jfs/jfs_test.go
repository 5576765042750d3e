package jfs

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vfs"
)

// mount attaches a fresh volume to dev.
func mount(dev vfs.BlockDev) (*FS, error) {
	fs := New()
	return fs, fs.Mount(dev)
}

func newFS(t testing.TB) (*FS, vfs.BlockDev) {
	dev := vfs.NewRAMDisk(8192)
	if err := Format(dev); err != nil {
		t.Fatalf("Format: %v", err)
	}
	fs, err := mount(dev)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return fs, dev
}

func TestMountUnformatted(t *testing.T) {
	if _, err := mount(vfs.NewRAMDisk(256)); err != ErrNotFormatted {
		t.Fatalf("err = %v", err)
	}
}

func TestCaseSensitiveNames(t *testing.T) {
	fs, _ := newFS(t)
	root := fs.Root()
	if _, err := root.Create("Makefile", false); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := root.Lookup("makefile"); err != vfs.ErrNotFound {
		t.Fatalf("case variant should be distinct: %v", err)
	}
	// And can coexist — the UNIX expectation FAT/HPFS cannot express.
	if _, err := root.Create("makefile", false); err != nil {
		t.Fatalf("coexisting variant: %v", err)
	}
	ents, _ := root.ReadDir()
	if len(ents) != 2 {
		t.Fatalf("ents = %v", ents)
	}
}

func TestJournalReplayAfterCrash(t *testing.T) {
	fs, dev := newFS(t)
	root := fs.Root()
	if _, err := root.Create("precious.txt", false); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if fs.PendingMetaWrites() == 0 {
		t.Fatal("create should stage journaled metadata")
	}
	// Crash after journal commit but before home writes.
	fs.FailAfterCommit = true
	if err := fs.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// A remount without replay would not see the file: verify the home
	// inode region is indeed stale by checking the journal header holds
	// records.
	hdr := make([]byte, 512)
	dev.ReadSectors(fs.journalStart, hdr)
	if hdr[0] == 0 && hdr[1] == 0 && hdr[2] == 0 && hdr[3] == 0 {
		t.Fatal("journal should hold a committed transaction")
	}
	// Remount: replay must restore the file.
	fs2, err := mount(dev)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	if _, err := fs2.Root().Lookup("precious.txt"); err != nil {
		t.Fatalf("file lost despite committed journal: %v", err)
	}
	// The journal is checkpointed after replay: a third mount does not
	// re-apply anything and still sees the file.
	fs3, err := mount(dev)
	if err != nil {
		t.Fatalf("third mount: %v", err)
	}
	if _, err := fs3.Root().Lookup("precious.txt"); err != nil {
		t.Fatalf("file lost after checkpoint: %v", err)
	}
}

func TestUncommittedChangesLostOnCrash(t *testing.T) {
	fs, dev := newFS(t)
	fs.Root().Create("never-synced.txt", false)
	// Crash with no Sync at all: overlay discarded.
	fs2, err := mount(dev)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	if _, err := fs2.Root().Lookup("never-synced.txt"); err != vfs.ErrNotFound {
		t.Fatalf("uncommitted create should be lost, got %v", err)
	}
}

func TestSyncDurability(t *testing.T) {
	fs, dev := newFS(t)
	d, _ := fs.Root().Create("dir", true)
	f, _ := d.Create("file", false)
	f.WriteAt([]byte("durable"), 0)
	f.SetEA("owner", "root")
	if err := fs.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	fs2, _ := mount(dev)
	d2, err := fs2.Root().Lookup("dir")
	if err != nil {
		t.Fatalf("dir: %v", err)
	}
	f2, err := d2.Lookup("file")
	if err != nil {
		t.Fatalf("file: %v", err)
	}
	buf := make([]byte, 7)
	f2.ReadAt(buf, 0)
	if string(buf) != "durable" {
		t.Fatalf("data = %q", buf)
	}
	if v, _ := f2.GetEA("owner"); v != "root" {
		t.Fatalf("EA = %q", v)
	}
}

func TestJournalAutoSyncUnderPressure(t *testing.T) {
	fs, _ := newFS(t)
	root := fs.Root()
	// More creates than the journal can hold as one transaction forces
	// intermediate checkpoints rather than failure.
	for i := 0; i < 80; i++ {
		name := "f" + strings.Repeat("x", i%5) + string(rune('0'+i%10)) + string(rune('a'+i/10))
		if _, err := root.Create(name, false); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("final sync: %v", err)
	}
}

func TestDirOpsVisibleThroughOverlayBeforeSync(t *testing.T) {
	fs, _ := newFS(t)
	root := fs.Root()
	root.Create("a", false)
	root.Create("b", true)
	// No Sync yet: directory reads must see the overlay.
	ents, err := root.ReadDir()
	if err != nil || len(ents) != 2 {
		t.Fatalf("ReadDir: %v %v", ents, err)
	}
}

func TestCaps(t *testing.T) {
	fs, _ := newFS(t)
	c := fs.Caps()
	if !c.CaseSensitive || !c.LongNames || !c.HasEAs || !c.PreservesCase {
		t.Fatalf("caps = %+v", c)
	}
}

// Property: for any op sequence followed by Sync and remount, the
// remounted view equals the pre-remount view.
func TestPropertyDurableAfterSync(t *testing.T) {
	check := func(names []string, bodies [][]byte) bool {
		dev := vfs.NewRAMDisk(8192)
		Format(dev)
		fs, _ := mount(dev)
		root := fs.Root()
		want := make(map[string][]byte)
		for i, nm := range names {
			if i >= 8 {
				break
			}
			if nm == "" || len(nm) > 40 || strings.ContainsRune(nm, '/') {
				continue
			}
			if _, ok := want[nm]; ok {
				continue
			}
			var body []byte
			if i < len(bodies) {
				body = bodies[i]
				if len(body) > 2000 {
					body = body[:2000]
				}
			}
			f, err := root.Create(nm, false)
			if err != nil {
				return false
			}
			if len(body) > 0 {
				if _, err := f.WriteAt(body, 0); err != nil {
					return false
				}
			}
			want[nm] = body
		}
		if err := fs.Sync(); err != nil {
			return false
		}
		fs2, err := mount(dev)
		if err != nil {
			return false
		}
		for nm, body := range want {
			v, err := fs2.Root().Lookup(nm)
			if err != nil {
				return false
			}
			got := make([]byte, len(body))
			if len(body) > 0 {
				n, err := v.ReadAt(got, 0)
				if err != nil || n != len(body) || !bytes.Equal(got, body) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestStaleJournalEntryAfterSectorFree pins the chaos-soak bug where a
// freed directory-data sector's staged journal write survived in the
// overlay: once the sector was reallocated to plain file data (written
// home directly), the next Sync's home-write pass replayed the stale
// directory bytes over the file's freshly acknowledged content.
// Minimized from chaos seed 3 (os2 rewrite racing posix dir churn).
func TestStaleJournalEntryAfterSectorFree(t *testing.T) {
	fs, _ := newFS(t)
	root := fs.Root()

	// Build a directory whose data sector lands in the journal overlay.
	dv, err := root.Create("d", true)
	if err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if _, err := dv.Create(name, false); err != nil {
			t.Fatalf("create d/%s: %v", name, err)
		}
	}
	// Empty and remove the directory: its data sector is freed while its
	// staged content is still pending in the overlay.
	for _, name := range []string{"a", "b", "c"} {
		if err := dv.Remove(name); err != nil {
			t.Fatalf("remove d/%s: %v", name, err)
		}
	}
	if err := root.Remove("d"); err != nil {
		t.Fatalf("rmdir d: %v", err)
	}

	// Reallocate the freed sector for plain file data.
	fv, err := root.Create("f", false)
	if err != nil {
		t.Fatalf("create f: %v", err)
	}
	want := bytes.Repeat([]byte{0xA5}, 3*sectorSize)
	for i := range want {
		want[i] ^= byte(i)
	}
	if _, err := fv.WriteAt(want, 0); err != nil {
		t.Fatalf("write f: %v", err)
	}

	// The sync's home-write pass must not resurrect the dead directory's
	// bytes over the file.
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	got := make([]byte, len(want))
	if _, err := fv.ReadAt(got, 0); err != nil {
		t.Fatalf("read f: %v", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && got[i] == want[i] {
			i++
		}
		t.Fatalf("acknowledged write lost: stale journal bytes replayed over file data (first diff at %d)", i)
	}
}
