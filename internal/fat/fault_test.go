package fat

import (
	"errors"
	"testing"

	"repro/internal/vfs"
)

// Fault-injection tests: device errors must surface as clean errors and
// never wedge the file system.

func TestIOErrorDuringWritePropagates(t *testing.T) {
	raw := vfs.NewRAMDisk(2048)
	if err := Format(raw); err != nil {
		t.Fatal(err)
	}
	dev := vfs.NewFaultyDev(raw)
	fs, err := mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Root().Create("DATA.BIN", false)
	if err != nil {
		t.Fatal(err)
	}
	dev.FailAfter(0, false, true) // all writes fail
	if _, err := f.WriteAt(make([]byte, 4096), 0); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("err = %v, want ErrIO", err)
	}
	// Heal: the file system keeps working.
	dev.Heal()
	if _, err := f.WriteAt([]byte("ok"), 0); err != nil {
		t.Fatalf("post-heal write: %v", err)
	}
	buf := make([]byte, 2)
	if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != "ok" {
		t.Fatalf("post-heal read: %q %v", buf, err)
	}
}

func TestIOErrorDuringReadPropagates(t *testing.T) {
	raw := vfs.NewRAMDisk(2048)
	Format(raw)
	dev := vfs.NewFaultyDev(raw)
	fs, _ := mount(dev)
	f, _ := fs.Root().Create("X.TXT", false)
	f.WriteAt([]byte("payload"), 0)
	dev.FailAfter(0, true, false)
	buf := make([]byte, 7)
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("err = %v", err)
	}
	// Directory operations also surface the error.
	if _, err := fs.Root().ReadDir(); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("readdir err = %v", err)
	}
	dev.Heal()
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("post-heal: %v", err)
	}
}

func TestMountFailsOnDeadDevice(t *testing.T) {
	raw := vfs.NewRAMDisk(2048)
	Format(raw)
	dev := vfs.NewFaultyDev(raw)
	dev.FailAfter(0, true, true)
	if _, err := mount(dev); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("err = %v", err)
	}
	_, _, failures := dev.Stats()
	if failures == 0 {
		t.Fatal("no failures recorded")
	}
}

func TestCreateFailsMidwayLeavesMountableVolume(t *testing.T) {
	raw := vfs.NewRAMDisk(2048)
	Format(raw)
	dev := vfs.NewFaultyDev(raw)
	fs, _ := mount(dev)
	// Let a couple of ops through, then fail writes during a create.
	dev.FailAfter(1, false, true)
	_, cerr := fs.Root().Create("NEW.TXT", false)
	dev.Heal()
	// Whatever happened, the volume must still mount and list.
	fs2, err := mount(raw)
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	if _, err := fs2.Root().ReadDir(); err != nil {
		t.Fatalf("readdir after partial create (%v): %v", cerr, err)
	}
}
