package mach

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kflight"
	"repro/internal/klat"
	"repro/internal/kprof"
	"repro/internal/kstat"
	"repro/internal/ktrace"
)

// planesOf reports which of the five planes an engine answers.
func planesOf(eng *cpu.Engine) [5]bool {
	return [5]bool{kstat.For(eng) != nil, ktrace.For(eng) != nil, kprof.For(eng) != nil,
		kflight.For(eng) != nil, klat.For(eng) != nil}
}

// attachAll attaches all five planes to eng and detaches them at cleanup.
func attachAll(t *testing.T, eng *cpu.Engine) {
	kstat.Attach(eng)
	ktrace.Attach(eng)
	kprof.Attach(eng)
	kflight.Attach(eng)
	klat.Attach(eng)
	t.Cleanup(func() {
		kstat.Detach(eng)
		ktrace.Detach(eng)
		kprof.Detach(eng)
		kflight.Detach(eng)
		klat.Detach(eng)
	})
}

// TestPlanesAgreeOverClosedWindow is the cross-plane consistency
// invariant (ROADMAP aim 4): with all five planes on one engine, a closed
// window of serial root calls — null, 32 B and 4 KiB copies, a 64 KiB
// region and an 8-wide CallV — costs the same number of cycles whichever
// plane is asked: the kprof total, the engine counter delta, the kstat
// mach.rpc.cycles delta and the klat end-to-end sum of the root hops.
// The CallV carrier's family also holds its first sub-request's hop (a
// carrier takes its first sub's operation), so the sub-hops, read from
// the carrier's ledger, come off the family sums.
func TestPlanesAgreeOverClosedWindow(t *testing.T) {
	k := newTestKernel()
	eng := k.CPU
	attachAll(t, eng)
	srv, recv := startServer(t, k, func(m *Message) *Message {
		return &Message{ID: m.ID, Body: m.Body, Regions: m.Regions}
	})
	defer srv.Terminate()
	cli := k.NewTask("client")
	defer cli.Terminate()
	send, _ := cli.InsertRight(srv, recv, DispMakeSend)
	th, _ := cli.NewBoundThread("main")

	region := make([]byte, 64<<10)
	batch := make([]*Message, 8)
	for i := range batch {
		batch[i] = &Message{ID: MsgID(0x80 + i), Body: make([]byte, 32)}
	}
	calls := []func() error{
		func() error { _, err := th.Call(send, &Message{ID: 1}, CallOpts{}); return err },
		func() error { _, err := th.Call(send, &Message{ID: 2, Body: make([]byte, 32)}, CallOpts{}); return err },
		func() error {
			_, err := th.Call(send, &Message{ID: 3, Body: make([]byte, 4096)}, CallOpts{})
			return err
		},
		func() error {
			m := &Message{ID: 4, Regions: []RegionDesc{{Len: uint64(len(region)), Data: region}}}
			_, err := th.Call(send, m, CallOpts{})
			return err
		},
		func() error { _, err := th.CallV(send, batch, CallOpts{}); return err },
	}

	st, pr := kstat.For(eng), kprof.For(eng)
	klat.Detach(eng) // a fresh tracker: the window's hops only
	lt := klat.Attach(eng)
	pr.Reset()
	mark := st.Snapshot()
	c0 := eng.Counters()
	pr.Enable()
	for _, call := range calls {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}
	pr.Disable()
	ctr := eng.Counters().Sub(c0).Cycles
	stats := st.Snapshot().Delta(mark)

	prof, _, _ := pr.Snapshot().Totals()
	var famSum, famCount, subSum, subs, exemplarSum uint64
	for _, f := range lt.Dump().Families {
		famSum += f.E2E.Sum
		famCount += f.E2E.Count
		for _, ex := range f.Exemplars {
			exemplarSum += ex.E2E
			for _, c := range ex.Children {
				if c.Sub {
					subSum += c.E2E
					subs++
				}
			}
		}
	}
	if subs != uint64(len(batch)) {
		t.Fatalf("carrier ledger holds %d sub-hops, want %d", subs, len(batch))
	}
	lat := famSum - subSum
	rpc := stats.Counters["mach.rpc.cycles"]
	t.Logf("window: engine %d, kprof %d, kstat %d, klat %d cycles", ctr, prof, rpc, lat)
	if ctr == 0 || prof != ctr || rpc != ctr || lat != ctr || exemplarSum != ctr {
		t.Errorf("planes disagree: engine %d, kprof %d, kstat mach.rpc.cycles %d, klat root E2E %d (exemplars %d)",
			ctr, prof, rpc, lat, exemplarSum)
	}
	if n, roots := stats.Counters["mach.rpc.calls"], famCount-subs; n != uint64(len(calls)) || roots != n {
		t.Errorf("kstat mach.rpc.calls = %d, klat root hops = %d, want %d", n, roots, len(calls))
	}
}

// TestPlanesFreshEngineDetached: a fresh engine answers nil from all five
// planes, and planes attached to one engine are never visible on another
// — the attachment lives on the engine, not in a table shared by all.
func TestPlanesFreshEngineDetached(t *testing.T) {
	a, b := newTestKernel(), newTestKernel()
	if got := planesOf(a.CPU); got != [5]bool{} {
		t.Fatalf("fresh engine answers planes %v", got)
	}
	attachAll(t, a.CPU)
	if got := planesOf(a.CPU); got != [5]bool{true, true, true, true, true} {
		t.Fatalf("attached engine answers %v", got)
	}
	if got := planesOf(b.CPU); got != [5]bool{} {
		t.Fatalf("engine B sees engine A's planes %v", got)
	}
	kprof.Detach(a.CPU)
	if got := planesOf(a.CPU); got != [5]bool{true, true, false, true, true} {
		t.Fatalf("detaching kprof left %v", got)
	}
}

// TestPlanesAttachRacesCalls flips kprof and klat on and off while four
// clients call through a pool — what the monitor's prof.start does at run
// time.  Every hook site reads one published plane set, so under -race
// this must be clean and every call must succeed.
func TestPlanesAttachRacesCalls(t *testing.T) {
	k := newTestKernel()
	kstat.Attach(k.CPU)
	defer kstat.Detach(k.CPU)
	srv := k.NewTask("server")
	defer srv.Terminate()
	recv, _ := srv.AllocatePort()
	if _, err := srv.ServePool("svc", recv, 2, func(m *Message) *Message { return &Message{ID: m.ID} }); err != nil {
		t.Fatal(err)
	}
	const clients, calls = 4, 200
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cli := k.NewTask(fmt.Sprintf("client%d", i))
		send, _ := cli.InsertRight(srv, recv, DispMakeSend)
		th, _ := cli.NewBoundThread("main")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < calls; j++ {
				if _, err := th.Call(send, &Message{ID: MsgID(j)}, CallOpts{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for flips := 0; ; flips++ {
		select {
		case <-done:
			kprof.Detach(k.CPU)
			klat.Detach(k.CPU)
			if flips == 0 {
				t.Log("calls finished before the first flip")
			}
			return
		default:
		}
		kprof.Attach(k.CPU).Enable()
		klat.Attach(k.CPU)
		kprof.Detach(k.CPU)
		klat.Detach(k.CPU)
	}
}
