package monitor

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kflight"
	"repro/internal/kstat"
	"repro/internal/mach"
)

// TestFlightDumpOverRPC fetches a dump through the system's own RPC and
// checks it observed that very query: the flight ring carries the monitor
// call events, and the wait-for graph carries the client thread blocked in
// its reply wait while the handler assembled the dump.
func TestFlightDumpOverRPC(t *testing.T) {
	k, st, c := newRig(t, 1)
	kflight.Attach(k.CPU)
	t.Cleanup(func() { kflight.Detach(k.CPU) })
	st.GaugeFunc("mach.pool.test.busy", func() int64 { return 1 })

	// Traffic ahead of the dump so the ring has history.
	for i := 0; i < 3; i++ {
		dump(t, c)
	}
	d := dump(t, c)
	if d.Reason != "monitor query" {
		t.Errorf("reason = %q", d.Reason)
	}
	if d.TotalEvents() == 0 {
		t.Fatal("dump carries no events despite RPC traffic")
	}
	var sawCall bool
	for _, eng := range d.Engines {
		for _, ev := range eng.Events {
			if ev.Type == cpu.EvRPC && ev.Name == "call:monitor" {
				sawCall = true
			}
		}
	}
	if !sawCall {
		t.Error("flight ring did not record the monitor calls")
	}
	// The querying client itself is a wait edge: blocked in its reply
	// wait on the monitor port while the dump was assembled.
	var sawReplyWait bool
	for _, e := range d.Waits {
		if e.Kind == kflight.WaitReply && e.OwnerTask == "monitor" {
			sawReplyWait = true
		}
	}
	if !sawReplyWait {
		t.Errorf("dump waits missed the querying client: %v", d.Waits)
	}
	if d.Stats.Gauges["mach.pool.test.busy"] != 1 {
		t.Error("dump did not embed the kstat snapshot")
	}
}

// TestFlightDumpTruncatedRing overflows a deliberately tiny ring and
// checks the dump reports the loss honestly: at most ring-size events,
// nonzero dropped count, and a sorted, newest-suffix event sequence.
func TestFlightDumpTruncatedRing(t *testing.T) {
	k, _, c := newRig(t, 1)
	const ringSize = 16
	kflight.AttachSized(k.CPU, ringSize)
	t.Cleanup(func() { kflight.Detach(k.CPU) })

	// Each query emits several ring events; a few dozen wraps the ring
	// many times over.
	for i := 0; i < 32; i++ {
		dump(t, c)
	}
	d := dump(t, c)
	if len(d.Engines) == 0 {
		t.Fatal("no engine sections")
	}
	eng := d.Engines[0]
	if len(eng.Events) > ringSize {
		t.Fatalf("ring of %d returned %d events", ringSize, len(eng.Events))
	}
	if eng.Dropped == 0 || eng.Emitted <= uint64(ringSize) {
		t.Fatalf("expected overflow: emitted=%d dropped=%d", eng.Emitted, eng.Dropped)
	}
	for i := 1; i < len(eng.Events); i++ {
		if eng.Events[i].Seq <= eng.Events[i-1].Seq {
			t.Fatalf("events not in seq order at %d: %d then %d",
				i, eng.Events[i-1].Seq, eng.Events[i].Seq)
		}
	}
	// The buffered tail is the *newest* events: its last seq is the last
	// emission overall (the dump query's own reply may emit after the
	// sweep, so allow the final few).
	last := eng.Events[len(eng.Events)-1].Seq
	if last+uint64(ringSize) < eng.Emitted {
		t.Fatalf("ring kept a stale window: last seq %d of %d emitted", last, eng.Emitted)
	}
}

// TestFlightDumpQueryStorm: clients in their own tasks query a pooled
// monitor concurrently with only the stat and flight planes attached.
// Every dump that comes back is whole: its reason, ring events and stats,
// and no tail section for the tracker that is not there.
func TestFlightDumpQueryStorm(t *testing.T) {
	k := mach.New(cpu.Pentium133())
	kstat.Attach(k.CPU)
	t.Cleanup(func() { kstat.Detach(k.CPU) })
	kflight.Attach(k.CPU)
	t.Cleanup(func() { kflight.Detach(k.CPU) })
	srv, err := NewServer(k, 3)
	if err != nil {
		t.Fatal(err)
	}

	const clients, per = 4, 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		app := k.NewTask(fmt.Sprintf("storm-%d", i))
		wg.Add(1)
		if _, err := app.Spawn("main", func(th *mach.Thread) {
			defer wg.Done()
			c, err := srv.NewClient(th)
			if err != nil {
				errCh <- err
				return
			}
			for j := 0; j < per; j++ {
				d, err := c.Dump()
				if err != nil {
					errCh <- fmt.Errorf("dump %d: %w", j, err)
					return
				}
				if d.Reason != "monitor query" || d.TotalEvents() == 0 || d.Stats.Counters == nil || d.Tail != nil {
					errCh <- fmt.Errorf("dump %d malformed: reason=%q events=%d tail=%v",
						j, d.Reason, d.TotalEvents(), d.Tail != nil)
					return
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
