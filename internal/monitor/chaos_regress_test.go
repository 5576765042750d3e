package monitor

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kstat"
	"repro/internal/mach"
)

// Satellite regression (chaos soak): DeltaSince against a baseline the
// ring (maxBaselines) has evicted, while concurrent clients churn the ring
// with fresh Snapshots, must always resolve — a delta when the baseline
// survived, ErrUnknownBaseline when it was evicted, never a hang, a
// zero-value delta passed off as real, or a poisoned server.
func TestDeltaSinceEvictionUnderQueryLoad(t *testing.T) {
	k := mach.New(cpu.Pentium133())
	st := kstat.Attach(k.CPU)
	t.Cleanup(func() { kstat.Detach(k.CPU) })
	srv, err := NewServer(k, st, 3)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	newClient := func(name string) *Client {
		t.Helper()
		app := k.NewTask(name)
		th, err := app.NewBoundThread("main")
		if err != nil {
			t.Fatal(err)
		}
		c, err := srv.NewClient(th)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Collect a handful of early baselines, then bury them under churn.
	seeder := newClient("seeder")
	st.Counter("vfs.ops.read").Add(3)
	var early []uint64
	for i := 0; i < 4; i++ {
		_, id, err := seeder.Snapshot()
		if err != nil {
			t.Fatalf("seed snapshot: %v", err)
		}
		early = append(early, id)
	}

	const (
		churners = 3
		rounds   = 2 * maxBaselines
	)
	var wg sync.WaitGroup
	errs := make(chan error, churners+1)

	// Churners: each takes 2×maxBaselines snapshots, so the early ids are
	// guaranteed evicted long before the pollers stop asking about them.
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(fmt.Sprintf("churn%d", c))
			for i := 0; i < rounds; i++ {
				if _, _, err := cl.Snapshot(); err != nil {
					errs <- fmt.Errorf("churner %d snapshot %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}

	// Poller: hammers DeltaSince on the doomed baselines while the ring
	// churns underneath.  Every call must resolve to a delta or to
	// ErrUnknownBaseline; anything else (or a hang, caught by the test
	// binary's timeout) is the regression.
	wg.Add(1)
	evicted := make(chan int, 1)
	go func() {
		defer wg.Done()
		cl := newClient("poller")
		sawEvicted := 0
		for i := 0; i < 8*len(early); i++ {
			_, _, err := cl.DeltaSince(early[i%len(early)])
			switch err {
			case nil:
			case ErrUnknownBaseline:
				sawEvicted++
			default:
				errs <- fmt.Errorf("poller round %d: %w", i, err)
				return
			}
		}
		evicted <- sawEvicted
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// With 6×maxBaselines snapshots taken after the seeds, the tail of the
	// poller's queries must have hit evicted baselines.
	if n := <-evicted; n == 0 {
		t.Fatal("poller never observed an evicted baseline; churn did not exercise eviction")
	}
	// Every early id is now gone for good.
	for _, id := range early {
		if _, _, err := seeder.DeltaSince(id); err != ErrUnknownBaseline {
			t.Fatalf("early baseline %d after churn: err = %v, want ErrUnknownBaseline", id, err)
		}
	}

	// The server survived the storm: a fresh baseline round-trips.
	_, id, err := seeder.Snapshot()
	if err != nil {
		t.Fatalf("post-storm snapshot: %v", err)
	}
	st.Counter("vfs.ops.read").Add(2)
	d, _, err := seeder.DeltaSince(id)
	if err != nil {
		t.Fatalf("post-storm DeltaSince: %v", err)
	}
	if d.Counters["vfs.ops.read"] != 2 {
		t.Fatalf("post-storm delta = %d, want 2", d.Counters["vfs.ops.read"])
	}
}

// A pool's ops family reads the pool's own count, and a pool that dies
// keeps its count in the family, so a delta taken across the echo
// service's destroy-and-rebuild never wraps a counter: the successor of
// the same name adds to the total.
func TestDeltaSinceAcrossPoolRebuild(t *testing.T) {
	k, _, c := newRig(t, 1)
	echo := k.NewTask("chaos-echo")
	app := k.NewTask("echo-client")
	th, err := app.NewBoundThread("main")
	if err != nil {
		t.Fatal(err)
	}
	serve := func(calls int) mach.PortName {
		t.Helper()
		recv, err := echo.AllocatePort()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := echo.ServePool("echo", recv, 2, func(m *mach.Message) *mach.Message {
			return &mach.Message{ID: m.ID + 1}
		}); err != nil {
			t.Fatalf("ServePool: %v", err)
		}
		send, err := app.InsertRight(echo, recv, mach.DispMakeSend)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < calls; i++ {
			if _, err := th.Call(send, &mach.Message{ID: 1}, mach.CallOpts{}); err != nil {
				t.Fatalf("echo call: %v", err)
			}
		}
		return recv
	}

	recv := serve(5)
	_, base, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := echo.DeallocatePort(recv); err != nil {
		t.Fatal(err)
	}
	serve(3)
	d, _, err := c.DeltaSince(base)
	if err != nil {
		t.Fatal(err)
	}
	const ops = "mach.pool.chaos-echo/echo.ops"
	if d.Counters[ops] != 3 {
		t.Errorf("%s delta = %d across the rebuild, want 3", ops, d.Counters[ops])
	}
	if w := d.Gauges["mach.pool.chaos-echo/echo.workers"]; w != 2 {
		t.Errorf("workers = %d after the rebuild, want the successor's 2", w)
	}
	for name, v := range d.Counters {
		if v > 1<<62 {
			t.Errorf("%s delta = %d: the counter went backwards", name, v)
		}
	}
}
