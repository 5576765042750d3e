package mach

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/kflight"
	"repro/internal/kstat"
)

// sched is the runnable-thread dispatcher of a multi-engine kernel.  A
// thread runs as bursts — the charge sequences between blocking points of
// the RPC path — and each burst is *placed* on one engine of the thread's
// processor set:
//
// Placement runs in *virtual time* — list scheduling over modeled
// cycles.  A burst's start is the latest of three modeled constraints,
// no matter how the host scheduler happens to interleave the
// goroutines:
//
//   - engine capacity: each engine is a work-conserving busy floor
//     (schedEngine.busy) from which every burst claims its length;
//   - serialization domain: a client thread's bursts follow program
//     order through the thread's virtual clock (Thread.vt), while a
//     server pool's bursts draw on M interchangeable virtual servers
//     (vtPool) — which slot a caller took is a host accident that
//     must not order the schedule;
//   - RPC causality: a server burst cannot start before the caller's
//     send completed, and replies carry the server's completion time
//     back into the blocked client (Thread.syncVT), so a client that
//     waits on a saturated server pool *waits in the model too* — that
//     coupling is what makes the measured speedup curve flatten at the
//     pool size instead of scaling with raw engine count.
//
// Engine choice for a burst:
//
//   - affinity: the thread's last engine keeps its cache and TLB
//     contents live, so the thread stays home unless the expected wait
//     there exceeds the best alternative by more than the migration
//     charge (moving must be worth what it costs);
//   - otherwise the engine with the earliest expected start wins — its
//     busy floor plus its in-flight reservations (lengths are unknown
//     until release, so queued work is estimated at the running mean
//     burst length) — and the thread pays the migration charge
//     (cpu.Engine.Migrate) on the destination; cold caches cost extra
//     on top via the destination's real I/D/TLB state.  A move off a
//     busy home is the idle-steal case.
//
// Engines serialize costs through their cycle counters and virtual
// clocks, not wall-clock exclusivity, so placement never blocks: a
// burst placed on a busy engine queues behind it in modeled time while
// the Go goroutines run freely — which is what keeps the kernel
// deadlock-free under arbitrary user locking across RPCs.  A crossing is
// two or three bursts on one goroutine: the caller's send, the server
// burst on the slot it took (schedServe), and the caller's resume.
//
// A burst's length is the cycles charged through its own binding
// (cpu.Binding), not its engine's cycle delta: goroutines bound to the
// same engine meanwhile charge their own bursts, and a nested burst on
// the same goroutine shadows the outer one, so each cycle lands in
// exactly one burst and one busy floor.
type sched struct {
	k    *Kernel
	cx   *cpu.Complex
	engs []*schedEngine
	hyst uint64 // affinity hysteresis: the migration charge

	// Running mean burst length, the queue penalty used to estimate when
	// an engine with in-flight bursts will come free.
	burstCycles atomic.Uint64
	bursts      atomic.Uint64
}

// schedEngine is the per-engine scheduler state.
type schedEngine struct {
	eng  *cpu.Engine
	slot int
	runq atomic.Int64 // bursts currently placed here
	// busy is the engine's work-conserving floor: the modeled cycles of
	// every burst released on it.  A burst claims [busy, busy+length) of
	// the engine's capacity and starts no earlier than the claim — the
	// per-engine total-work bound that caps speedup at the engine count.
	// Deliberately NOT a free-time clock: a burst that became ready late
	// must not inflate the floor past its own length, or the idle gap
	// would count as busy and one late burst would delay every burst
	// placed on the engine after it (the ratchet spreads through RPC
	// replies until the whole system serializes).  Idle gaps stay
	// backfillable, as in real list scheduling.
	busy atomic.Uint64
	// vt ratchets to the latest modeled burst completion on the engine —
	// reporting and makespan only, never a placement constraint.
	vt atomic.Uint64
	// resv sums the in-flight bursts' reserved lengths (mean-burst
	// estimates, settled at release).  busy counts only released bursts,
	// so without reservations an engine with ten bursts in flight would
	// still look free to pick — and every thread would pile onto the same
	// engine, serializing the pool in virtual time.
	resv atomic.Int64

	migrations atomic.Uint64
	steals     atomic.Uint64
	dispatches atomic.Uint64
}

func newSched(k *Kernel) *sched {
	s := &sched{k: k, cx: k.cx, hyst: k.CPU.Config().MigrateCycles}
	for _, eng := range k.cx.Engines() {
		s.engs = append(s.engs, &schedEngine{eng: eng, slot: eng.Slot()})
	}
	return s
}

// candidates returns the scheduler engines of the thread's processor set;
// a task outside any set — or in a set whose processors were all moved
// away — falls back to every engine, keeping threads runnable (real Mach
// would leave them unscheduled).
func (s *sched) candidates(th *Thread) []*schedEngine {
	ps := th.task.pset.Load()
	if ps == nil {
		return s.engs
	}
	slots := ps.engineSlots()
	if len(slots) == 0 {
		return s.engs
	}
	out := make([]*schedEngine, 0, len(slots))
	for _, slot := range slots {
		out = append(out, s.engs[slot])
	}
	return out
}

// meanBurst estimates one queued burst's length for placement.  Floored
// at twice the migration charge so that, before any history accumulates,
// a queued burst still outweighs the affinity hysteresis — a thread
// whose home is busy steals to an idle engine rather than queueing.
func (s *sched) meanBurst() uint64 {
	n := s.bursts.Load()
	floor := 2 * s.hyst
	if n == 0 {
		return floor
	}
	if m := s.burstCycles.Load() / n; m > floor {
		return m
	}
	return floor
}

// pick chooses the engine for a thread's next burst: the earliest
// expected start in virtual time, with affinity hysteresis.
func (s *sched) pick(th *Thread) (se *schedEngine, stolen bool) {
	cands := s.candidates(th)
	last := th.lastEng.Load()
	ready := th.vt.Load()

	// cost estimates when a burst placed now would start: the engine's
	// busy floor plus its in-flight reservations (bursts whose lengths
	// are not yet known), no earlier than the thread is ready.
	cost := func(c *schedEngine) uint64 {
		t := c.busy.Load()
		if r := c.resv.Load(); r > 0 {
			t += uint64(r)
		}
		if ready > t {
			t = ready
		}
		return t
	}

	var lastSE, best *schedEngine
	var bestCost uint64
	for _, c := range cands {
		if c.eng == last {
			lastSE = c
		}
		cc := cost(c)
		// Ties go to the engine with the fewest consumed cycles — the
		// least-used engine of the set.
		if best == nil || cc < bestCost ||
			(cc == bestCost && s.cx.EngineCounters(c.slot).Cycles < s.cx.EngineCounters(best.slot).Cycles) {
			best, bestCost = c, cc
		}
	}
	// Affinity: stay home unless the wait there exceeds the best
	// alternative by more than the migration charge we would pay to move.
	if lastSE != nil && cost(lastSE) <= bestCost+s.hyst {
		return lastSE, false
	}
	return best, lastSE != nil && lastSE.runq.Load() != 0
}

// vtPool models a server pool as M interchangeable virtual servers.
// Which slot a caller takes is a host accident — a slot freed by a
// late-arriving burst can be taken by a caller whose send completed much
// earlier in modeled time, and chaining that burst on the slot's own
// clock would serialize the whole pool into one long false dependency
// (measured: a saturated four-worker pool flatlining at 1.4x).  Slot
// identity is a wall-clock artifact, so pool bursts instead claim
// capacity from M busy-floor virtual servers with the same semantics as
// schedEngine.busy: the least-loaded one advances by the burst's length,
// bounding the pool's aggregate progress at M servers' worth of work
// while idle gaps stay backfillable.
//
// There is one virtual server per ServerPool slot, but a pool fronting
// one physical resource can cap them below its slot count — the block
// driver runs its virtual capacity at one because its bursts are
// dominated by device time and there is only one disk arm.
type vtPool struct {
	mu    sync.Mutex
	slots []uint64
}

// newVTPool returns a pool of n virtual servers (at least one).
func newVTPool(n int) *vtPool {
	return &vtPool{slots: make([]uint64, max(n, 1))}
}

// setSize resizes the pool to n virtual servers (at least one).
// Boot-time only, before traffic.
func (p *vtPool) setSize(n int) {
	p.mu.Lock()
	p.slots = make([]uint64, max(n, 1))
	p.mu.Unlock()
}

// claim charges length cycles to the least-loaded slot and returns the
// slot's floor before the charge — the earliest the burst can start on
// the pool's capacity.
func (p *vtPool) claim(length uint64) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := 0
	for i := 1; i < len(p.slots); i++ {
		if p.slots[i] < p.slots[best] {
			best = i
		}
	}
	v := p.slots[best]
	p.slots[best] = v + length
	return v
}

// place places a burst of th: it picks an engine, binds the calling OS
// thread to it and charges the migration cost if th last ran elsewhere.
// With a pool the burst serializes on the pool's earliest-free virtual
// slot and on the caller's send completion (ready); without one, on th's
// own clock.  The returned release ends the burst (same goroutine) and
// settles its length: the cycles charged through the burst's binding.  A
// binding already in place is shadowed until the release (bindings
// nest), so an outer burst's length leaves out a nested one's cycles.
func (s *sched) place(th *Thread, pool *vtPool, ready uint64) func() {
	se, stolen := s.pick(th)
	se.runq.Add(1)
	// Reserve the burst's estimated length on the engine so later picks
	// see it queued; settled for the measured length at release.
	reserve := s.meanBurst()
	se.resv.Add(int64(reserve))
	// The thread's binding record is reused; a second burst of the same
	// thread open at once (callers sharing it) takes a fresh one.
	b := &th.bind
	owned := th.bindBusy.CompareAndSwap(false, true)
	if !owned {
		b = new(cpu.Binding)
	}
	unbind := s.cx.Bind(b, se.eng)
	prev := th.lastEng.Swap(se.eng)
	migrated := prev != nil && prev != se.eng
	if migrated {
		// Charged through the router after Bind, so the coherence cost
		// lands on the destination engine and counts into the burst.
		s.k.CPU.Migrate()
		se.migrations.Add(1)
		if stolen {
			se.steals.Add(1)
		}
	}
	se.dispatches.Add(1)
	// The Bind above stamps the dispatch record with se's slot.
	s.k.CPU.Planes().Emit(cpu.Event{Type: cpu.EvSched, Subsystem: "mach.sched", Name: th.task.name, Arg: uint64(se.slot)})
	return func() {
		length := b.Cycles()
		unbind()
		if owned {
			th.bindBusy.Store(false)
		}
		se.runq.Add(-1)
		se.resv.Add(-int64(reserve))
		// Advance virtual time: the burst starts once its engine-capacity
		// claim and its serialization domain (the thread's clock, or the
		// pool slot plus the caller's send) are both free, so concurrent
		// bursts serialize in modeled time no matter how the host
		// interleaved them.
		engFloor := se.busy.Add(length) - length
		start := engFloor
		var slotFloor uint64
		if pool != nil {
			slotFloor = pool.claim(length)
			if slotFloor > start {
				start = slotFloor
			}
			if ready > start {
				start = ready
			}
		} else {
			ready = th.vt.Load()
			if ready > start {
				start = ready
			}
		}
		// Observation only, for the latency ledger: decompose the burst's
		// modeled wait (input available at ready, running at start) into
		// pool-capacity queueing and engine queueing.  The slot floor
		// beyond ready is time behind the pool's virtual servers (for the
		// block driver, the single disk arm); the remainder is engine
		// backlog.
		var poolWait, cpuWait uint64
		if start > ready {
			wait := start - ready
			if slotFloor > ready {
				poolWait = slotFloor - ready
				if poolWait > wait {
					poolWait = wait
				}
			}
			cpuWait = wait - poolWait
		}
		th.schedBurst.Store(length)
		th.schedPoolWait.Store(poolWait)
		th.schedCPUWait.Store(cpuWait)
		end := start + length
		for {
			ev := se.vt.Load()
			if end <= ev || se.vt.CompareAndSwap(ev, end) {
				break
			}
		}
		th.vt.Store(end)
		s.burstCycles.Add(length)
		s.bursts.Add(1)
		th.schedCycles.Add(length)
	}
}

// schedRun places th's next burst on an engine of its processor set and
// returns the burst's release, or nil on single-CPU kernels and nested
// entries (where the burst simply continues on the current engine).
func (k *Kernel) schedRun(th *Thread) func() {
	if k.sched == nil || k.cx.BoundEngine() != nil {
		return nil
	}
	return k.sched.place(th, nil, 0)
}

// schedServe places the server burst of a crossing on slot srv — receive
// path, handler and reply — and returns its release, or nil on single-CPU
// kernels.  It cannot start before the caller's send completed at ready.
// A pool slot serializes on the pool's virtual capacity (which slot a
// caller took is a host accident), any other server thread on its own
// clock.  The burst is placed even when the caller is bound by an outer
// handler: a nested call still claims its server's capacity — the block
// driver's one virtual server is the disk arm.
func (k *Kernel) schedServe(srv *Thread, ready uint64) func() {
	if k.sched == nil {
		return nil
	}
	if srv.poolVT == nil {
		srv.syncVT(ready)
		return k.sched.place(srv, nil, 0)
	}
	return k.sched.place(srv, srv.poolVT, ready)
}

// schedReady advances th's virtual clock to vt ahead of its next
// dispatch: the thread was blocked on an event (an RPC reply, a request
// arrival) that completed at vt in modeled time.  Nested kernel entries
// (the calling OS thread already bound) are skipped — a nested call runs
// inside the outer burst, and absorbing the callee's completion time into
// the outer burst's start would double-count the wait.
func (k *Kernel) schedReady(th *Thread, vt uint64) {
	if k.sched == nil || vt == 0 || k.cx.BoundEngine() != nil {
		return
	}
	th.syncVT(vt)
}

// PublishCPUStats registers the per-engine families on the attached
// Set — cpu.engines and cpu.e<i>.{cycles,runq,dispatches,migrations,
// coherence_cycles,steals}, read from the scheduler's own state — so every
// exposition lists all engines from the first frame.  No-op on
// single-CPU kernels.  Called by boot after kstat attaches.
func (k *Kernel) PublishCPUStats() {
	st := kstat.For(k.CPU)
	if k.sched == nil || st == nil {
		return
	}
	engs := int64(len(k.sched.engs))
	st.GaugeFunc("cpu.engines", func() int64 { return engs })
	for _, se := range k.sched.engs {
		fam := fmt.Sprintf("cpu.e%d.", se.slot)
		migrate := se.eng.Config().MigrateCycles
		st.GaugeFunc(fam+"cycles", func() int64 { return int64(k.cx.EngineCounters(se.slot).Cycles) })
		st.GaugeFunc(fam+"runq", se.runq.Load)
		st.CounterFunc(fam+"dispatches", se.dispatches.Load)
		st.CounterFunc(fam+"migrations", se.migrations.Load)
		st.CounterFunc(fam+"coherence_cycles", func() uint64 { return se.migrations.Load() * migrate })
		st.CounterFunc(fam+"steals", se.steals.Load)
	}
}

// EngineStats is one engine's scheduler view, for tools and tests — the
// same record a flight dump carries.
type EngineStats = kflight.EngineSnap

// SchedStats reports per-engine dispatch statistics (nil on single-CPU
// kernels).
func (k *Kernel) SchedStats() []EngineStats {
	if k.sched == nil {
		return nil
	}
	out := make([]EngineStats, 0, len(k.sched.engs))
	for _, se := range k.sched.engs {
		out = append(out, EngineStats{
			Slot:       se.slot,
			Cycles:     k.cx.EngineCounters(se.slot).Cycles,
			Virtual:    se.vt.Load(),
			RunQueue:   se.runq.Load(),
			Reserved:   se.resv.Load(),
			Dispatches: se.dispatches.Load(),
			Migrations: se.migrations.Load(),
			Steals:     se.steals.Load(),
		})
	}
	return out
}
