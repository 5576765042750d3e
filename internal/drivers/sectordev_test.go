package drivers

import (
	"bytes"
	"runtime"
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

// TestSectorDevTurns drives the adapter the way the file server does —
// handlers on a pool declaring the request they serve — over the
// user-level driver: every driver call lands under the request that held
// the turn, requests wait their turn, and a turn that had to be waited
// for is marked on the waiting request's ledger as disk-turn.
func TestSectorDevTurns(t *testing.T) {
	r := newRig(t)
	drv, err := NewUserBlockDriver(r.k, r.k.Layout(), r.disk, r.hrm, r.intr, 1)
	if err != nil {
		t.Fatal(err)
	}
	fs := r.k.NewTask("fs")
	defer fs.Terminate()
	th, _ := fs.NewBoundThread("diskio")
	dev := NewSectorDev(drv, th, r.disk.Sectors())
	lt := klat.Attach(r.k.CPU)
	defer klat.Detach(r.k.CPU)

	// The handler reads one sector per unit of its selector's low byte,
	// under its request's turn.  A holdOp request parks inside its turn
	// until released; every other one says when it is about to ask.
	const holdOp = 0x100
	holding, asking, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	port, _ := fs.AllocatePort()
	if _, err := fs.ServePool("svc", port, 2, func(m *mach.Message) *mach.Message {
		if m.ID&holdOp == 0 {
			asking <- struct{}{}
		}
		dev.Begin(m)
		defer dev.End()
		if m.ID&holdOp != 0 {
			holding <- struct{}{}
			<-release
		}
		for i := 0; i < int(m.ID&0xff); i++ {
			if err := dev.ReadSectors(uint64(i), make([]byte, SectorSize)); err != nil {
				t.Errorf("read: %v", err)
			}
		}
		return &mach.Message{}
	}); err != nil {
		t.Fatal(err)
	}
	task := r.k.NewTask("clients")
	defer task.Terminate()
	send, _ := task.InsertRight(fs, port, mach.DispMakeSend)
	done := make(chan struct{})
	call := func(id mach.MsgID) {
		cth, _ := task.NewBoundThread("main")
		if _, err := cth.Call(send, &mach.Message{ID: id}, mach.CallOpts{}); err != nil {
			t.Errorf("call %#x: %v", id, err)
		}
		done <- struct{}{}
	}

	// One request holds the turn while a second asks for it; the clock
	// moves 5000 cycles before the first lets go.  Whether the second was
	// already parked on the turn by then is the host scheduler's call (a
	// goroutine blocked on a mutex announces nothing), so a round is
	// repeated, with fresh selectors, until one was.
	const stall = 5000
	marked := false
	for round := mach.MsgID(1); round <= 50 && !marked; round++ {
		waiter := round<<16 | 2
		go call(round<<16 | holdOp | 3)
		<-holding
		go call(waiter)
		<-asking
		for i := 0; i < 100; i++ {
			runtime.Gosched()
		}
		r.k.CPU.Stall(stall)
		release <- struct{}{}
		<-done
		<-done
		for _, f := range lt.Dump().Families {
			if f.Server == "fs" && f.Op == uint32(waiter) {
				marked = f.Exemplars[0].Marks["disk-turn"] >= stall
			}
		}
	}
	if !marked {
		t.Fatal("no request that waited out a held turn had the wait marked on it")
	}

	for _, f := range lt.Dump().Families {
		switch f.Server {
		case "blockdrv":
			if len(f.Exemplars) != 0 {
				t.Fatalf("blockdrv/%#x: a driver call made under a turn is a root", f.Op)
			}
		case "fs":
			ex := f.Exemplars[0]
			if want := int(f.Op & 0xff); len(ex.Children) != want {
				t.Fatalf("fs/%#x: %d driver calls under it, want %d", f.Op, len(ex.Children), want)
			}
			if waited := ex.Marks["disk-turn"]; f.Op&holdOp != 0 && waited != 0 {
				t.Fatalf("fs/%#x took a free turn but is marked as waiting %d cycles", f.Op, waited)
			}
		}
	}
}
