package mach

import (
	"sync"
	"testing"

	"repro/internal/cpu"
)

// newSMPKernel builds a 4-engine kernel and one task with n threads.
func newSMPKernel(t *testing.T, n int) (*Kernel, []*Thread) {
	t.Helper()
	k := NewSMP(cpu.Pentium133(), 4)
	task := k.NewTask("smp-test")
	ths := make([]*Thread, n)
	for i := range ths {
		th, err := task.NewBoundThread("t")
		if err != nil {
			t.Fatalf("thread: %v", err)
		}
		ths[i] = th
	}
	return k, ths
}

// burst holds one dispatched burst open on its own goroutine (bindings
// are per OS thread, and a release must run where the bind did).
type burst struct {
	work chan func()
	done chan struct{}
}

func dispatchOn(k *Kernel, th *Thread) *burst {
	b := &burst{work: make(chan func()), done: make(chan struct{})}
	placed := make(chan struct{})
	go func() {
		rel := k.schedRun(th)
		close(placed)
		for f := range b.work {
			f()
			b.done <- struct{}{}
		}
		if rel != nil {
			rel()
		}
		close(b.done)
	}()
	<-placed
	return b
}

// do runs f inside the burst, on its goroutine, and waits for it.
func (b *burst) do(f func()) {
	b.work <- f
	<-b.done
}

func (b *burst) end() {
	close(b.work)
	<-b.done
}

func TestSchedSingleCPUNoDispatch(t *testing.T) {
	k := New(cpu.Pentium133())
	if k.sched != nil || k.Complex() != nil {
		t.Fatalf("single-CPU kernel must not carry a scheduler or complex")
	}
	task := k.NewTask("t")
	th, _ := task.NewBoundThread("t1")
	if rel := k.schedRun(th); rel != nil {
		t.Fatalf("schedRun on single-CPU kernel returned a release")
	}
	if got := th.SchedCycles(); got != 0 {
		t.Fatalf("SchedCycles = %d on single-CPU kernel", got)
	}
}

// TestSchedAffinityStealMigration walks the placement policy through its
// deterministic branches: first placement on an idle engine, affinity to
// the warm engine, and an idle steal that charges the migration cost.
func TestSchedAffinityStealMigration(t *testing.T) {
	k, ths := newSMPKernel(t, 3)
	th1, th2, th3 := ths[0], ths[1], ths[2]

	// First placements pick the idle engine with the fewest cycles.
	// Boot charges (task creation on the unbound test goroutine) landed
	// on e0, so cold engines e1..e3 win in slot order.
	b1 := dispatchOn(k, th1)
	if got := th1.lastEng.Load().Slot(); got != 1 {
		t.Fatalf("th1 placed on e%d, want e1 (coldest idle)", got)
	}
	b2 := dispatchOn(k, th2)
	if got := th2.lastEng.Load().Slot(); got != 2 {
		t.Fatalf("th2 placed on e%d, want e2", got)
	}
	b3 := dispatchOn(k, th3)
	if got := th3.lastEng.Load().Slot(); got != 3 {
		t.Fatalf("th3 placed on e%d, want e3", got)
	}

	// Affinity: th2 resumes with e2 free — stays, no migration.
	b2.end()
	b2 = dispatchOn(k, th2)
	if got := th2.lastEng.Load().Slot(); got != 2 {
		t.Fatalf("th2 resumed on e%d, want e2 (affinity)", got)
	}
	if m := k.sched.engs[2].migrations.Load(); m != 0 {
		t.Fatalf("affinity resume counted %d migrations", m)
	}

	// Idle steal: park a holder on th2's home e2 (the coldest idle once
	// th2 leaves), then resume th2 — home busy, e0 idle, so th2 is
	// stolen to e0 and the destination pays the migration.
	b2.end()
	holder, err := th2.task.NewBoundThread("holder")
	if err != nil {
		t.Fatal(err)
	}
	bh := dispatchOn(k, holder)
	if got := holder.lastEng.Load().Slot(); got != 2 {
		t.Fatalf("holder placed on e%d, want th2's home e2", got)
	}
	cyclesBefore := k.Complex().TotalCounters().Cycles
	e0Before := k.Complex().EngineCounters(0).Cycles
	b2 = dispatchOn(k, th2)
	if got := th2.lastEng.Load().Slot(); got != 0 {
		t.Fatalf("th2 stolen to e%d, want idle e0", got)
	}
	wantMig := k.CPU.Config().MigrateCycles
	if gained := k.Complex().TotalCounters().Cycles - cyclesBefore; gained < wantMig {
		t.Fatalf("migration charged %d cycles, want >= %d", gained, wantMig)
	}
	if got := k.Complex().EngineCounters(0).Cycles - e0Before; got < wantMig {
		t.Fatalf("destination engine gained %d cycles, want >= %d (charge must land there)", got, wantMig)
	}
	if s := k.sched.engs[0].steals.Load(); s != 1 {
		t.Fatalf("steals on e0 = %d, want 1", s)
	}
	if m := k.sched.engs[0].migrations.Load(); m != 1 {
		t.Fatalf("migrations on e0 = %d, want 1", m)
	}

	b1.end()
	b2.end()
	b3.end()
	bh.end()
	for _, se := range k.sched.engs {
		if q := se.runq.Load(); q != 0 {
			t.Fatalf("engine %d run queue = %d after all releases", se.slot, q)
		}
	}
}

// TestSchedRunQueueRace hammers dispatch/charge/release from many
// goroutines at once; under -race it exercises the run queues, binding
// table and per-engine counters, and afterward checks no cycles were
// lost (engine sum == router view).
func TestSchedRunQueueRace(t *testing.T) {
	k, ths := newSMPKernel(t, 8)
	region := k.Layout().Place("sched_race_work", 4096)
	var wg sync.WaitGroup
	for _, th := range ths {
		th := th
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rel := k.schedRun(th)
				k.CPU.Exec(region)
				k.CPU.Read(uint64(0x9000_0000), 256)
				if rel != nil {
					rel()
				}
			}
		}()
	}
	// Concurrent observers of the shared scheduler state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			_ = k.SchedStats()
			_ = k.CPU.Counters()
		}
	}()
	wg.Wait()

	var sum, dispatches uint64
	for _, st := range k.SchedStats() {
		sum += st.Cycles
		dispatches += st.Dispatches
		if st.RunQueue != 0 {
			t.Fatalf("engine %d run queue = %d after quiescence", st.Slot, st.RunQueue)
		}
	}
	if got := k.CPU.Counters().Cycles; got != sum {
		t.Fatalf("router counter view %d != engine sum %d", got, sum)
	}
	if dispatches != 8*200 {
		t.Fatalf("dispatches = %d, want %d", dispatches, 8*200)
	}
}

// TestSchedNestedBindStaysPut: a burst that re-enters the scheduler on
// the same OS thread (nested RPC) must stay on its engine, not
// re-dispatch.
func TestSchedNestedBindStaysPut(t *testing.T) {
	k, ths := newSMPKernel(t, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rel := k.schedRun(ths[0])
		if rel == nil {
			t.Error("outer dispatch returned nil release")
			return
		}
		if nested := k.schedRun(ths[1]); nested != nil {
			t.Error("nested dispatch on a bound thread must be a no-op")
			nested()
		}
		rel()
	}()
	<-done
}

// TestSchedPsetPartition: a task assigned to a one-processor set must
// dispatch only onto that processor's engine, from any number of
// concurrent threads.
func TestSchedPsetPartition(t *testing.T) {
	k, _ := newSMPKernel(t, 1)
	h := k.Host()
	iso, err := h.CreateSet("iso")
	if err != nil {
		t.Fatal(err)
	}
	h.AssignProcessor(h.Processors()[3], iso)
	task := k.NewTask("pinned")
	iso.AssignTask(task)

	// Setup itself (task creation on the unbound test goroutine) charged
	// e0; measure the pinned work as deltas from here.
	var base [4]uint64
	for slot := range base {
		base[slot] = k.Complex().EngineCounters(slot).Instructions
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th, err := task.NewBoundThread("p")
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 50; j++ {
				rel := k.schedRun(th)
				k.CPU.Instr(100)
				if rel != nil {
					rel()
				}
				if got := th.lastEng.Load().Slot(); got != 3 {
					t.Errorf("pinned thread dispatched to e%d, want e3", got)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Only e3 may have accumulated the pinned charges.
	for slot := 0; slot < 3; slot++ {
		if c := k.Complex().EngineCounters(slot).Instructions - base[slot]; c != 0 {
			t.Fatalf("engine %d retired %d instructions; pinned task must not run there", slot, c)
		}
	}
	if c := k.Complex().EngineCounters(3).Instructions - base[3]; c == 0 {
		t.Fatalf("engine 3 retired nothing; pinned work went missing")
	}

	iso.RemoveTask(task)
	if task.pset.Load() != nil {
		t.Fatalf("RemoveTask did not clear the task's set")
	}
}

// newPinnedTask returns a task of k on a set that holds only processor
// slot, so every burst of its threads lands on that engine.
func newPinnedTask(t *testing.T, k *Kernel, slot int) *Task {
	t.Helper()
	h := k.Host()
	ps, err := h.CreateSet("one")
	if err != nil {
		t.Fatal(err)
	}
	h.AssignProcessor(h.Processors()[slot], ps)
	task := k.NewTask("pinned")
	ps.AssignTask(task)
	return task
}

// TestSchedBurstLengthIsOwnCharges: two bursts open at once on one engine
// are each credited exactly the cycles they charged, not the engine's
// delta over their lifetimes (which includes the other's charges).
func TestSchedBurstLengthIsOwnCharges(t *testing.T) {
	k, _ := newSMPKernel(t, 0)
	task := newPinnedTask(t, k, 3)
	th1, _ := task.NewBoundThread("a")
	th2, _ := task.NewBoundThread("b")
	e3 := k.Complex().EngineCounters(3).Cycles

	b1 := dispatchOn(k, th1)
	b2 := dispatchOn(k, th2)
	if s1, s2 := th1.lastEng.Load().Slot(), th2.lastEng.Load().Slot(); s1 != 3 || s2 != 3 {
		t.Fatalf("bursts placed on e%d and e%d, want both on e3", s1, s2)
	}
	b1.do(func() { k.CPU.Stall(1000) })
	b2.do(func() { k.CPU.Stall(7) })
	b2.end()
	b1.do(func() { k.CPU.Stall(20) })
	b1.end()

	if got := th2.SchedCycles(); got != 7 {
		t.Errorf("second burst credited %d cycles, charged 7", got)
	}
	if got := th1.SchedCycles(); got != 1020 {
		t.Errorf("first burst credited %d cycles, charged 1020", got)
	}
	if got := k.Complex().EngineCounters(3).Cycles - e3; got != 1027 {
		t.Errorf("e3 gained %d cycles, want 1027", got)
	}
}

// TestSchedNestedBurstCountedOnce: a server burst nested inside a client
// burst on the same engine (a driver call under a file-server handler)
// takes its cycles out of the outer burst's length: the two lengths sum
// to the engine's delta, with no cycle counted twice.
func TestSchedNestedBurstCountedOnce(t *testing.T) {
	k, _ := newSMPKernel(t, 0)
	task := newPinnedTask(t, k, 2)
	outer, _ := task.NewBoundThread("client")
	srv, _ := task.NewBoundThread("server")
	region := k.Layout().Place("sched_nested_work", 2048)
	e2 := k.Complex().EngineCounters(2).Cycles

	done := make(chan struct{})
	go func() {
		defer close(done)
		rel := k.schedRun(outer)
		k.CPU.Exec(region)
		nested := k.schedServe(srv, outer.VT())
		if nested == nil {
			t.Error("nested server burst was not placed")
			rel()
			return
		}
		k.CPU.Exec(region)
		k.CPU.Stall(300)
		nested()
		k.CPU.Instr(50)
		rel()
	}()
	<-done

	delta := k.Complex().EngineCounters(2).Cycles - e2
	if got := outer.SchedCycles() + srv.SchedCycles(); got != delta {
		t.Errorf("outer %d + nested %d = %d cycles, engine delta %d",
			outer.SchedCycles(), srv.SchedCycles(), got, delta)
	}
	if srv.SchedCycles() < 300 {
		t.Errorf("nested burst credited %d cycles, charged at least 300", srv.SchedCycles())
	}
}
