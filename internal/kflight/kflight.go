// Package kflight is the black-box flight recorder and postmortem
// diagnosis plane — the fourth leg of the observability stack.  kstat
// says how many, ktrace says which spans, kprof says which cycles;
// kflight answers the question every multi-server hang turns into:
// **who is blocked on whom, and what happened just before?**
//
// It has three parts:
//
//   - A per-engine bounded ring of the last K events (RPC dispatch and
//     outcome, server receives, scheduler dispatches, cache traffic, VM
//     faults), reusing ktrace's event codes but always-on and lock-free:
//     each ring is a slot array of atomic pointers indexed by an atomic
//     sequence, so concurrent emitters never contend on a mutex and a
//     snapshot is a pointer sweep.
//   - The wait-for graph: internal/mach registers what every blocked
//     thread waits on (port rendezvous, reply exchange, pool receive,
//     queued IPC) and kflight materializes the edges and runs cycle
//     detection, so a deadlock comes out as a named thread→port→thread
//     cycle instead of "no progress".
//   - A stall watchdog (watchdog.go) that compares kstat progress
//     counters against busy gauges and assembles a postmortem Dump
//     (dump.go) when work is outstanding but nothing completes.
//
// Like kstat/ktrace/kprof, kflight is observation-only: hook points read
// counters but never charge the cost model, so a run with the recorder
// attached models bit-identical cycles to a detached run (gated by
// TestFlightWorkloadObservationOnly).  When detached, every hook is one
// atomic load.
package kflight

import (
	"sort"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/ktrace"
)

// Event is one flight-recorder entry.  It reuses ktrace's event codes so
// the two planes speak the same vocabulary; unlike a ktrace event it
// carries no span identity — the flight ring is a what-just-happened log,
// not a causal tree.
type Event struct {
	// Seq is the per-engine emission order (monotonic, never reset), so
	// ring wraps are detectable and dumps interleave deterministically.
	Seq uint64 `json:"seq"`
	// Engine is the slot the emitting thread's charges land on.
	Engine int `json:"engine"`
	// Type is the ktrace event code (EvRPC, EvRPCServe, EvSched, ...).
	Type ktrace.EventType `json:"type"`
	// Subsystem and Name identify the emitting component and operation
	// ("mach.rpc"/"call:vfs", "mach.sched"/"dispatch:os2", ...).
	Subsystem string `json:"subsystem"`
	Name      string `json:"name"`
	// Arg is an event-specific value (message ID, port, sector, address).
	Arg uint64 `json:"arg"`
	// Cycles is the emitting engine's cycle counter at emit time.
	Cycles uint64 `json:"cycles"`
}

// TypeName renders the event code ("rpc", "sched", ...), for dumps that
// were unmarshalled from JSON as well as live events.
func (e Event) TypeName() string { return e.Type.String() }

// DefaultRingSize is the per-engine ring capacity used by Attach.  Kept
// deliberately small: the flight ring is always on, and its value is the
// last moments before a stall, not a full trace (ktrace does that).
const DefaultRingSize = 512

// ring is one engine's lock-free bounded event buffer.  Writers reserve a
// slot with one atomic add and publish the immutable event with one
// atomic pointer store; readers sweep the pointers.  A reader racing a
// wrap can observe a slot's old and new occupant across two sweeps —
// snapshots sort by Seq and the watchdog only runs when nothing
// progresses, so the approximation never matters where dumps are taken.
type ring struct {
	seq   atomic.Uint64
	slots []atomic.Pointer[Event]
}

func (r *ring) put(e *Event) {
	e.Seq = r.seq.Add(1) - 1
	r.slots[int(e.Seq%uint64(len(r.slots)))].Store(e)
}

// snapshot returns the buffered events oldest-first plus the
// emitted/dropped totals.
func (r *ring) snapshot() (events []Event, emitted, dropped uint64) {
	emitted = r.seq.Load()
	events = make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			events = append(events, *e)
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	if n := uint64(len(r.slots)); emitted > n {
		dropped = emitted - n
	}
	return events, emitted, dropped
}

// Recorder is the always-on flight recorder for one kernel: a bounded
// lock-free event ring per engine.  All methods are safe for concurrent
// use from every emitting thread.
type Recorder struct {
	eng   *cpu.Engine
	rings []*ring
}

// NewRecorder builds a recorder over the engine (or, for the router of a
// Complex, over all its engines) with the given per-engine ring capacity.
func NewRecorder(eng *cpu.Engine, capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	r := &Recorder{eng: eng, rings: make([]*ring, len(eng.Engines()))}
	for i := range r.rings {
		r.rings[i] = &ring{slots: make([]atomic.Pointer[Event], capacity)}
	}
	return r
}

// Engines reports how many per-engine rings the recorder keeps.
func (r *Recorder) Engines() int { return len(r.rings) }

// Emit records one event on the emitting thread's current engine.
// Observation-only: it reads the engine's counters, charges nothing, and
// takes no locks.
func (r *Recorder) Emit(typ ktrace.EventType, subsystem, name string, arg uint64) {
	slot := r.eng.CurrentSlot()
	if slot < 0 || slot >= len(r.rings) {
		slot = 0
	}
	var cyc uint64
	if cx := r.eng.Complex(); cx != nil {
		cyc = cx.EngineCounters(slot).Cycles
	} else {
		cyc = r.eng.Counters().Cycles
	}
	r.rings[slot].put(&Event{
		Engine: slot, Type: typ, Subsystem: subsystem, Name: name,
		Arg: arg, Cycles: cyc,
	})
}

// EngineEvents returns one engine's buffered events oldest-first.
func (r *Recorder) EngineEvents(slot int) []Event {
	if slot < 0 || slot >= len(r.rings) {
		return nil
	}
	ev, _, _ := r.rings[slot].snapshot()
	return ev
}

// Emitted reports the total events emitted on one engine (including those
// the ring has since overwritten).
func (r *Recorder) Emitted(slot int) uint64 {
	if slot < 0 || slot >= len(r.rings) {
		return 0
	}
	return r.rings[slot].seq.Load()
}

// EngineDumps snapshots every ring for a postmortem dump.
func (r *Recorder) EngineDumps() []EngineDump {
	out := make([]EngineDump, 0, len(r.rings))
	for slot, rg := range r.rings {
		ev, emitted, dropped := rg.snapshot()
		out = append(out, EngineDump{Slot: slot, Emitted: emitted, Dropped: dropped, Events: ev})
	}
	return out
}

// --- engine attachment -----------------------------------------------------

// Attach returns the engine's recorder, attaching one with the default
// ring size if none is.
func Attach(eng *cpu.Engine) *Recorder {
	return AttachSized(eng, DefaultRingSize)
}

// AttachSized is Attach with an explicit per-engine ring capacity for a
// fresh recorder; an attached one is returned as it is.
func AttachSized(eng *cpu.Engine, capacity int) *Recorder {
	return eng.AttachPlane(cpu.PlaneFlight, func() any { return NewRecorder(eng, capacity) }).(*Recorder)
}

// Detach removes the engine's recorder; hook calls become no-ops again.
func Detach(eng *cpu.Engine) { eng.DetachPlane(cpu.PlaneFlight, nil) }

// For returns the engine's recorder, or nil when detached.
func For(eng *cpu.Engine) *Recorder { return From(eng.Planes()) }

// From returns the recorder in an engine's plane set, or nil.
func From(ps *cpu.Planes) *Recorder { return cpu.PlaneOf[*Recorder](ps, cpu.PlaneFlight) }
