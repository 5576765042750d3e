package bcache_test

import (
	"bytes"
	"testing"

	"repro/internal/bcache"
	"repro/internal/cpu"
	"repro/internal/fat"
	"repro/internal/hpfs"
	"repro/internal/kstat"
	"repro/internal/mach"
	"repro/internal/vfs"
)

// bcache.dirty is one family over every cached volume: each cache
// registers its own level, so with two volumes written and their files
// left open the gauge reads the sum of both caches' dirty sectors, not
// whichever cache accounted last.
func TestDirtyGaugeSumsVolumes(t *testing.T) {
	k := mach.New(cpu.Pentium133())
	st := kstat.Attach(k.CPU)
	t.Cleanup(func() { kstat.Detach(k.CPU) })
	s, err := vfs.NewServer(k, 1)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	var caches []*bcache.Cache
	s.SetDevCache(func(dev vfs.BlockDev) vfs.CachedDev {
		c := bcache.New(k.CPU, k.Layout(), dev, bcache.Config{CapacitySectors: 128})
		caches = append(caches, c)
		return c
	})
	fatDev, hpfsDev := vfs.NewRAMDisk(16384), vfs.NewRAMDisk(8192)
	if err := fat.Format(fatDev); err != nil {
		t.Fatal(err)
	}
	if err := hpfs.Format(hpfsDev); err != nil {
		t.Fatal(err)
	}
	if err := s.MountVolume("/", fat.New(), fatDev); err != nil {
		t.Fatalf("mount /: %v", err)
	}
	if err := s.MountVolume("/hpfs", hpfs.New(), hpfsDev); err != nil {
		t.Fatalf("mount /hpfs: %v", err)
	}

	th, err := k.NewTask("app").NewBoundThread("main")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := s.NewClient(th, vfs.ProfileOS2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		path string
		n    int
	}{{"/A.BIN", 2000}, {"/hpfs/B.BIN", 6000}} {
		f, err := cl.Open(w.path, true, true)
		if err != nil {
			t.Fatalf("open %s: %v", w.path, err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte{'w'}, w.n), 0); err != nil {
			t.Fatalf("write %s: %v", w.path, err)
		}
	}

	if len(caches) != 2 {
		t.Fatalf("%d caches built, want 2", len(caches))
	}
	var sum int
	for i, c := range caches {
		if c.Dirty() == 0 {
			t.Fatalf("cache %d holds no dirty sectors; the files must stay open", i)
		}
		sum += c.Dirty()
	}
	if g := st.Snapshot().Gauges["bcache.dirty"]; g != int64(sum) {
		t.Fatalf("bcache.dirty = %d, caches hold %d dirty sectors (%d + %d)",
			g, sum, caches[0].Dirty(), caches[1].Dirty())
	}
}
