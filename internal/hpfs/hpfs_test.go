package hpfs

import (
	"strings"
	"testing"

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

func TestCaps(t *testing.T) {
	fs := newFS(t)
	c := fs.Caps()
	if !c.LongNames || c.CaseSensitive || !c.PreservesCase || !c.HasEAs {
		t.Fatalf("caps = %+v", c)
	}
}
