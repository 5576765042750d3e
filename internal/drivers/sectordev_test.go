package drivers

import (
	"bytes"
	"testing"

	"repro/internal/klat"
	"repro/internal/mach"
)

// TestSectorDevUnnamedPathsSafe: the adapter has to work exactly the same
// when nobody told it whose work it is doing, because that is how it is
// driven at boot (fat.Format before anything is served), by the native
// baseline (a nil thread) and with the latency plane detached (requests
// carry no hop).  Over both in-kernel drivers and the user-level one it
// reads and writes with a request named on a nil thread, with no request
// named at all, and with a request that has no ledger — and with the
// plane attached every driver call made that way is a childless root,
// never somebody's child.
func TestSectorDevUnnamedPathsSafe(t *testing.T) {
	models := map[string]func(r *rig) (BlockDriver, error){
		"in-kernel": func(r *rig) (BlockDriver, error) {
			return NewKernelBlockDriver(r.k, r.k.Layout(), r.disk, r.intr)
		},
		"ooddm": func(r *rig) (BlockDriver, error) {
			return NewOODDMBlockDriver(r.k, r.k.Layout(), r.disk, r.intr)
		},
		"user-level": func(r *rig) (BlockDriver, error) {
			return NewUserBlockDriver(r.k, r.k.Layout(), r.disk, r.hrm, r.intr, 2)
		},
	}
	for name, build := range models {
		t.Run(name, func(t *testing.T) {
			r := newRig(t)
			lt := klat.Attach(r.k.CPU)
			defer klat.Detach(r.k.CPU)
			drv, err := build(r)
			if err != nil {
				t.Fatal(err)
			}
			th, err := r.k.NewTask("fs").NewBoundThread("diskio")
			if err != nil {
				t.Fatal(err)
			}
			sector := uint64(8)
			rw := func(dev *SectorDev) {
				t.Helper()
				data := bytes.Repeat([]byte{byte(sector)}, 2*SectorSize)
				if err := dev.WriteSectors(sector, data); err != nil {
					t.Fatalf("write: %v", err)
				}
				got := make([]byte, len(data))
				if err := dev.ReadSectors(sector, got); err != nil {
					t.Fatalf("read: %v", err)
				}
				if !bytes.Equal(got, data) {
					t.Fatal("read back something else")
				}
				sector += 8
			}
			noLedger := &mach.Message{ID: 7} // never sent: carries no hop

			if name != "user-level" { // its stub needs a caller to call from
				dev := NewSectorDev(drv, nil, r.disk.Sectors())
				dev.Begin(noLedger)
				rw(dev)
				dev.End()
				rw(dev)
			}
			dev := NewSectorDev(drv, th, r.disk.Sectors())
			rw(dev) // no request named
			dev.Begin(noLedger)
			rw(dev)
			dev.End()
			dev.Begin(nil)
			rw(dev)
			dev.End()

			for _, f := range lt.Dump().Families {
				if uint64(len(f.Exemplars)) != min(f.E2E.Count, klat.ExemplarK) {
					t.Fatalf("%s/%#x: %d hops but %d roots: an unnamed driver call became a child", f.Server, f.Op, f.E2E.Count, len(f.Exemplars))
				}
				for _, ex := range f.Exemplars {
					if len(ex.Children) != 0 {
						t.Fatalf("%s/%#x: unnamed call has children %+v", f.Server, f.Op, ex.Children)
					}
				}
			}
		})
	}
}
