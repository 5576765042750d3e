package monitor

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kflight"
	"repro/internal/klat"
	"repro/internal/kstat"
	"repro/internal/mach"
)

// tailRig boots a monitor + echo server with the stat, flight and tail
// planes attached; it returns the kernel, the monitor server (for
// per-goroutine clients), the echo port's owning task and port.
func tailRig(t *testing.T, pool int) (*mach.Kernel, *Server, *mach.Task, mach.PortName) {
	t.Helper()
	k := mach.New(cpu.Pentium133())
	kstat.Attach(k.CPU)
	kflight.Attach(k.CPU)
	klat.Attach(k.CPU)
	t.Cleanup(func() {
		kstat.Detach(k.CPU)
		kflight.Detach(k.CPU)
		klat.Detach(k.CPU)
	})
	srv, err := NewServer(k, pool)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}

	echo := k.NewTask("echo")
	port, err := echo.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := echo.ServePool("service", port, pool, func(m *mach.Message) *mach.Message {
		return &mach.Message{ID: m.ID, Body: m.Body}
	}); err != nil {
		t.Fatal(err)
	}
	return k, srv, echo, port
}

// echoClient binds a fresh thread to the echo server.
func echoClient(t *testing.T, task *mach.Task, echo *mach.Task, port mach.PortName, name string) (*mach.Thread, mach.PortName) {
	t.Helper()
	th, err := task.NewBoundThread(name)
	if err != nil {
		t.Fatal(err)
	}
	n, err := task.InsertRight(echo, port, mach.DispMakeSend)
	if err != nil {
		t.Fatal(err)
	}
	return th, n
}

// TestTailDumpOverRPC: the dump crosses the monitor's own RPC and comes
// back with the echo traffic's families and exemplar ledgers intact.
func TestTailDumpOverRPC(t *testing.T) {
	k, srv, echo, port := tailRig(t, 1)
	app := k.NewTask("tail-app")
	th, echoPort := echoClient(t, app, echo, port, "main")
	for i := 0; i < 20; i++ {
		if _, err := th.Call(echoPort, &mach.Message{ID: 0x42, Body: []byte{1}}, mach.CallOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := srv.NewClient(th)
	if err != nil {
		t.Fatal(err)
	}
	d := dump(t, c).Tail
	var echoFam bool
	for _, f := range d.Families {
		if f.Server != "echo" {
			continue
		}
		echoFam = true
		if f.E2E.Count != 20 {
			t.Fatalf("echo e2e count = %d, want 20", f.E2E.Count)
		}
		if len(f.Exemplars) == 0 {
			t.Fatal("no exemplars retained")
		}
		for _, ex := range f.Exemplars {
			if got := ex.Send + ex.Queue + ex.Service + ex.Resume; got != ex.E2E {
				t.Fatalf("exemplar segments sum %d != e2e %d", got, ex.E2E)
			}
		}
	}
	if !echoFam {
		t.Fatalf("no echo family in dump: %+v", d.Families)
	}
}

// TestTailDumpQueryStorm: pooled monitor threads serve concurrent dump
// queries while client goroutines keep writing the flight rings and the
// latency reservoir — snapshot consistency under fire, the dump side of
// the tier-2 race gate.  Every dump that comes back must be whole (its
// reason, ring events and stats) and hold the exemplars' exact-sum
// invariant, and no counter may go backwards between one reader's dumps.
func TestTailDumpQueryStorm(t *testing.T) {
	k, srv, echo, port := tailRig(t, 4)

	stop := make(chan struct{})
	var writers sync.WaitGroup
	app := k.NewTask("storm-app")
	for w := 0; w < 4; w++ {
		th, echoPort := echoClient(t, app, echo, port, "w")
		writers.Add(1)
		go func(th *mach.Thread, echoPort mach.PortName) {
			defer writers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := th.Call(echoPort, &mach.Message{ID: 0x42}, mach.CallOpts{}); err != nil {
					return
				}
			}
		}(th, echoPort)
	}

	viewer := k.NewTask("storm-viewer")
	errs := make(chan error, 4)
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		th, err := viewer.NewBoundThread("r")
		if err != nil {
			t.Fatal(err)
		}
		c, err := srv.NewClient(th)
		if err != nil {
			t.Fatal(err)
		}
		readers.Add(1)
		go func(c *Client) {
			defer readers.Done()
			var prev kstat.Snapshot
			for i := 0; i < 8; i++ {
				d, err := c.Dump()
				if err != nil {
					errs <- err
					return
				}
				if d.Reason != "monitor query" || d.TotalEvents() == 0 || d.Stats.Counters == nil || d.Tail == nil {
					errs <- fmt.Errorf("dump %d not whole: reason=%q events=%d", i, d.Reason, d.TotalEvents())
					return
				}
				for _, f := range d.Tail.Families {
					for _, ex := range f.Exemplars {
						if got := ex.Send + ex.Queue + ex.Service + ex.Resume; got != ex.E2E {
							errs <- fmt.Errorf("mid-storm exemplar sum %d != e2e %d", got, ex.E2E)
							return
						}
					}
				}
				for name, v := range d.Stats.Counters {
					if v < prev.Counters[name] {
						errs <- fmt.Errorf("dump %d: %s went backwards: %d -> %d", i, name, prev.Counters[name], v)
						return
					}
				}
				prev = d.Stats
			}
		}(c)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("storm query failed: %v", err)
	}
}
