package hpfs

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

func newFS(t testing.TB) *FS {
	dev := vfs.NewRAMDisk(4096)
	if err := Format(dev); err != nil {
		t.Fatalf("Format: %v", err)
	}
	fs, err := mount(dev)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	return fs
}

func TestMountUnformatted(t *testing.T) {
	if _, err := mount(vfs.NewRAMDisk(128)); err != ErrNotFormatted {
		t.Fatalf("err = %v", err)
	}
}

func TestLongNamesPreserved(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	name := "A Long File Name With Mixed Case.document"
	if _, err := root.Create(name, false); err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Case-insensitive match, case-preserving storage: the signature
	// HPFS behaviour.
	if _, err := root.Lookup(strings.ToUpper(name)); err != nil {
		t.Fatalf("upper lookup: %v", err)
	}
	ents, _ := root.ReadDir()
	if len(ents) != 1 || ents[0].Name != name {
		t.Fatalf("stored = %v, want exact case preserved", ents)
	}
	if _, err := root.Create(strings.ToLower(name), false); err != vfs.ErrExists {
		t.Fatalf("case-variant create err = %v", err)
	}
}

func TestNameLimit(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.Root().Create(strings.Repeat("x", MaxName+1), false); err != vfs.ErrNameTooLong {
		t.Fatalf("err = %v", err)
	}
	if _, err := fs.Root().Create(strings.Repeat("x", MaxName), false); err != nil {
		t.Fatalf("max-length name: %v", err)
	}
}

func TestDataPersistsAcrossRemount(t *testing.T) {
	dev := vfs.NewRAMDisk(4096)
	Format(dev)
	fs, _ := mount(dev)
	d, _ := fs.Root().Create("docs", true)
	f, err := d.Create("essay.txt", false)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	payload := bytes.Repeat([]byte("hpfs!"), 1000)
	f.WriteAt(payload, 0)
	f.SetEA(".LONGNAME", "essay about microkernels")

	fs2, _ := mount(dev)
	d2, err := fs2.Root().Lookup("DOCS")
	if err != nil {
		t.Fatalf("dir lookup: %v", err)
	}
	f2, err := d2.Lookup("ESSAY.TXT")
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
}

func TestEAs(t *testing.T) {
	fs := newFS(t)
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
	if err != ErrTooManyEAs {
		t.Fatalf("overflow err = %v", err)
	}
	// EA area byte limit.
	g, _ := fs.Root().Create("g", false)
	if err := g.SetEA("k", strings.Repeat("v", 200)); err != ErrTooManyEAs {
		t.Fatalf("oversized EA err = %v", err)
	}
}

func TestExtentGrowthAndTruncate(t *testing.T) {
	fs := newFS(t)
	f, _ := fs.Root().Create("big", false)
	payload := bytes.Repeat([]byte{7}, 40*512)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	a, _ := f.Attr()
	if a.Size != int64(len(payload)) {
		t.Fatalf("size = %d", a.Size)
	}
	got := make([]byte, len(payload))
	f.ReadAt(got, 0)
	if !bytes.Equal(got, payload) {
		t.Fatal("data mismatch")
	}
	if err := f.Truncate(512); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	a, _ = f.Attr()
	if a.Size != 512 {
		t.Fatalf("size = %d", a.Size)
	}
	short := make([]byte, 1024)
	n, _ := f.ReadAt(short, 0)
	if n != 512 {
		t.Fatalf("read after truncate = %d", n)
	}
}

func TestInterleavedFilesGetSeparateExtents(t *testing.T) {
	fs := newFS(t)
	a, _ := fs.Root().Create("a", false)
	b, _ := fs.Root().Create("b", false)
	// Interleave growth so the files cannot be one contiguous run each.
	for i := 0; i < 10; i++ {
		a.WriteAt(bytes.Repeat([]byte{1}, 512), int64(i*512))
		b.WriteAt(bytes.Repeat([]byte{2}, 512), int64(i*512))
	}
	bufA := make([]byte, 10*512)
	bufB := make([]byte, 10*512)
	a.ReadAt(bufA, 0)
	b.ReadAt(bufB, 0)
	for i := range bufA {
		if bufA[i] != 1 || bufB[i] != 2 {
			t.Fatalf("cross-contamination at %d: %d %d", i, bufA[i], bufB[i])
		}
	}
}

func TestRemoveFreesSectorsAndDirShrinks(t *testing.T) {
	fs := newFS(t)
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
	// Removed fnode is reusable.
	if _, err := root.Create("y", false); err != nil {
		t.Fatalf("recreate: %v", err)
	}
}

func TestRemoveNonEmptyDir(t *testing.T) {
	fs := newFS(t)
	d, _ := fs.Root().Create("dir", true)
	d.Create("inner", false)
	if err := fs.Root().Remove("dir"); err != vfs.ErrNotEmpty {
		t.Fatalf("err = %v", err)
	}
	d.Remove("inner")
	if err := fs.Root().Remove("dir"); err != nil {
		t.Fatalf("remove emptied: %v", err)
	}
}

func TestDeepDirectoryTree(t *testing.T) {
	fs := newFS(t)
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
		v, err = v.Lookup("LEVEL")
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
}

func TestCaps(t *testing.T) {
	fs := newFS(t)
	c := fs.Caps()
	if !c.LongNames || c.CaseSensitive || !c.PreservesCase || !c.HasEAs {
		t.Fatalf("caps = %+v", c)
	}
}

// Property: write/read at arbitrary offsets is exact.
func TestPropertyWriteRead(t *testing.T) {
	fs := newFS(t)
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
}
