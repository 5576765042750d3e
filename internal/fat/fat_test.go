package fat

import (
	"bytes"
	"errors"
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
	dev := vfs.NewRAMDisk(2048)
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
	if _, err := mount(vfs.NewRAMDisk(64)); err != ErrNotFormatted {
		t.Fatalf("err = %v", err)
	}
}

func TestEncodeName(t *testing.T) {
	ok := []string{"README.TXT", "a.b", "COMMAND.COM", "AUTOEXEC.BAT", "X", "FILE_1-2.TXT", "noext"}
	for _, n := range ok {
		if _, _, err := EncodeName(n); err != nil {
			t.Errorf("EncodeName(%q) = %v", n, err)
		}
	}
	tooLong := []string{"longfilename.txt", "file.html", "averyverylongname"}
	for _, n := range tooLong {
		if _, _, err := EncodeName(n); err != vfs.ErrNameTooLong {
			t.Errorf("EncodeName(%q) = %v, want ErrNameTooLong", n, err)
		}
	}
	bad := []string{"", ".", "..", "a.b.c", "sp ace.txt", "semi;co.txt"}
	for _, n := range bad {
		if _, _, err := EncodeName(n); err == nil {
			t.Errorf("EncodeName(%q) should fail", n)
		}
	}
}

func TestCaseFolding(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	if _, err := root.Create("Readme.txt", false); err != nil {
		t.Fatalf("Create: %v", err)
	}
	// FAT folds to upper case: any case matches, and the stored name is
	// the folded one (case NOT preserved).
	if _, err := root.Lookup("README.TXT"); err != nil {
		t.Fatalf("upper lookup: %v", err)
	}
	if _, err := root.Lookup("readme.txt"); err != nil {
		t.Fatalf("lower lookup: %v", err)
	}
	ents, _ := root.ReadDir()
	if len(ents) != 1 || ents[0].Name != "README.TXT" {
		t.Fatalf("stored name = %v", ents)
	}
	// A case variant is the SAME file — creating it must fail.
	if _, err := root.Create("README.txt", false); err != vfs.ErrExists {
		t.Fatalf("case-variant create err = %v", err)
	}
}

func TestLongNameRejected(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.Root().Create("long-file-name.text", false); err != vfs.ErrNameTooLong {
		t.Fatalf("err = %v, want ErrNameTooLong", err)
	}
}

func TestFileDataPersistsAcrossRemount(t *testing.T) {
	dev := vfs.NewRAMDisk(2048)
	Format(dev)
	fs, _ := mount(dev)
	f, err := fs.Root().Create("DATA.BIN", false)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	payload := bytes.Repeat([]byte{0x42, 0x13}, 3000) // multiple clusters
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	// Remount from the raw device: everything must come off the disk.
	fs2, err := mount(dev)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	f2, err := fs2.Root().Lookup("DATA.BIN")
	if err != nil {
		t.Fatalf("Lookup after remount: %v", err)
	}
	got := make([]byte, len(payload))
	n, err := f2.ReadAt(got, 0)
	if err != nil || n != len(payload) {
		t.Fatalf("ReadAt: %d %v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data lost across remount")
	}
}

func TestReadAtOffsetsAndEOF(t *testing.T) {
	fs := newFS(t)
	f, _ := fs.Root().Create("F.TXT", false)
	f.WriteAt([]byte("0123456789"), 0)
	buf := make([]byte, 4)
	n, err := f.ReadAt(buf, 3)
	if err != nil || n != 4 || string(buf) != "3456" {
		t.Fatalf("mid read: %d %v %q", n, err, buf)
	}
	n, err = f.ReadAt(buf, 8)
	if err != nil || n != 2 || string(buf[:n]) != "89" {
		t.Fatalf("tail read: %d %v", n, err)
	}
	n, err = f.ReadAt(buf, 100)
	if err != nil || n != 0 {
		t.Fatalf("past-EOF read: %d %v", n, err)
	}
}

func TestSparseWriteAcrossClusters(t *testing.T) {
	fs := newFS(t)
	f, _ := fs.Root().Create("S.BIN", false)
	if _, err := f.WriteAt([]byte{0xEE}, 2000); err != nil {
		t.Fatalf("sparse write: %v", err)
	}
	a, _ := f.Attr()
	if a.Size != 2001 {
		t.Fatalf("size = %d", a.Size)
	}
	buf := make([]byte, 1)
	f.ReadAt(buf, 0)
	if buf[0] != 0 {
		t.Fatal("hole not zero")
	}
	f.ReadAt(buf, 2000)
	if buf[0] != 0xEE {
		t.Fatal("sparse byte lost")
	}
}

func TestTruncateFreesClusters(t *testing.T) {
	fs := newFS(t)
	free0 := fs.FreeClusters()
	f, _ := fs.Root().Create("T.BIN", false)
	f.WriteAt(make([]byte, 10*512), 0)
	if fs.FreeClusters() >= free0 {
		t.Fatal("write should consume clusters")
	}
	if err := f.Truncate(512); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if fs.FreeClusters() != free0-1 {
		t.Fatalf("truncate should free all but one cluster: %d vs %d", fs.FreeClusters(), free0-1)
	}
	if err := f.Truncate(0); err != nil {
		t.Fatalf("Truncate 0: %v", err)
	}
	if fs.FreeClusters() != free0 {
		t.Fatal("truncate to zero should free everything")
	}
	// Grow back.
	if err := f.Truncate(100); err != nil {
		t.Fatalf("grow: %v", err)
	}
	a, _ := f.Attr()
	if a.Size != 100 {
		t.Fatalf("size = %d", a.Size)
	}
}

func TestSubdirectories(t *testing.T) {
	fs := newFS(t)
	root := fs.Root()
	d, err := root.Create("SUBDIR", true)
	if err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	// Fill beyond one cluster of entries (16 per sector) to force the
	// directory chain to grow.
	for i := 0; i < 40; i++ {
		name := "F" + string(rune('A'+i/10)) + string(rune('0'+i%10)) + ".DAT"
		if _, err := d.Create(name, false); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
	}
	ents, err := d.ReadDir()
	if err != nil || len(ents) != 40 {
		t.Fatalf("ReadDir: %d %v", len(ents), err)
	}
	// Non-empty directory cannot be removed.
	if err := root.Remove("SUBDIR"); err != vfs.ErrNotEmpty {
		t.Fatalf("remove non-empty err = %v", err)
	}
	for _, e := range ents {
		if err := d.Remove(e.Name); err != nil {
			t.Fatalf("remove %s: %v", e.Name, err)
		}
	}
	if err := root.Remove("SUBDIR"); err != nil {
		t.Fatalf("remove emptied: %v", err)
	}
	if _, err := root.Lookup("SUBDIR"); err != vfs.ErrNotFound {
		t.Fatal("directory survived removal")
	}
}

func TestRemoveFreesSpace(t *testing.T) {
	fs := newFS(t)
	free0 := fs.FreeClusters()
	f, _ := fs.Root().Create("BIG.BIN", false)
	f.WriteAt(make([]byte, 20*512), 0)
	if err := fs.Root().Remove("BIG.BIN"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if fs.FreeClusters() != free0 {
		t.Fatalf("clusters leaked: %d vs %d", fs.FreeClusters(), free0)
	}
	// The slot is reusable.
	if _, err := fs.Root().Create("BIG.BIN", false); err != nil {
		t.Fatalf("recreate: %v", err)
	}
}

func TestDiskFull(t *testing.T) {
	dev := vfs.NewRAMDisk(48) // tiny
	if err := Format(dev); err != nil {
		t.Fatalf("Format: %v", err)
	}
	fs, _ := mount(dev)
	f, err := fs.Root().Create("X.BIN", false)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	_, err = f.WriteAt(make([]byte, 1<<20), 0)
	if !errors.Is(err, vfs.ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestNoEASupport(t *testing.T) {
	fs := newFS(t)
	f, _ := fs.Root().Create("F.TXT", false)
	if err := f.SetEA("k", "v"); err != vfs.ErrUnsupported {
		t.Fatalf("SetEA err = %v", err)
	}
	if _, err := f.GetEA("k"); err != vfs.ErrUnsupported {
		t.Fatalf("GetEA err = %v", err)
	}
}

func TestCapsMatchFormat(t *testing.T) {
	fs := newFS(t)
	caps := fs.Caps()
	if caps.LongNames || caps.CaseSensitive || caps.PreservesCase || caps.HasEAs {
		t.Fatalf("FAT caps wrong: %+v", caps)
	}
	if caps.MaxNameLen != 12 {
		t.Fatalf("max name = %d", caps.MaxNameLen)
	}
}

// Property: write/read round trips at arbitrary offsets across cluster
// boundaries are exact.
func TestPropertyWriteRead(t *testing.T) {
	fs := newFS(t)
	f, _ := fs.Root().Create("P.BIN", false)
	check := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 4096 {
			data = data[:4096]
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

// Property: EncodeName is a pure function and idempotent under its own
// decode (valid names survive the fold round trip case-insensitively).
func TestPropertyNameFoldIdempotent(t *testing.T) {
	names := []string{"A.TXT", "FILE.DAT", "X1_-~!.#$%", "NOEXT", "EIGHTCHR.EXT"}
	for _, n := range names {
		b, e, err := EncodeName(n)
		if err != nil {
			continue
		}
		dec := decodeName(b, e)
		b2, e2, err := EncodeName(dec)
		if err != nil || b2 != b || e2 != e {
			t.Fatalf("fold not idempotent for %q -> %q", n, dec)
		}
	}
}
