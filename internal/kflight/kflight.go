// Package kflight is the black-box flight recorder and postmortem
// diagnosis plane — the fourth leg of the observability stack.  kstat
// says how many, ktrace says which spans, kprof says which cycles;
// kflight answers the question every multi-server hang turns into:
// **who is blocked on whom, and what happened just before?**
//
// It has two parts:
//
//   - A per-engine bounded ring of the last K observation records (RPC
//     calls and outcomes, pickups by server slots, scheduler
//     dispatches, cache traffic, VM faults): the same cpu.Ring and the
//     same cpu.Event the trace keeps, always on and small.
//   - The wait-for graph: internal/mach registers what every blocked
//     thread waits on (a server slot, a handler's reply, queued IPC)
//     and kflight materializes the edges and runs cycle
//     detection, so a deadlock comes out as a named thread→port→thread
//     cycle instead of "no progress".
//
// A postmortem Dump (dump.go) gathers both with scheduler state and the
// kstat fabric.  kflight detects no stall itself: the chaos harness's
// drain does, when its op counter stops, and dumps through
// mach.Kernel.FlightDump.
//
// Like kstat/ktrace/kprof, kflight is observation-only: hook points read
// counters but never charge the cost model, so a run with the recorder
// attached models bit-identical cycles to a detached run (gated by
// TestWorkloadObservationOnly/kflight).
package kflight

import (
	"repro/internal/cpu"
)

// DefaultRingSize is the per-engine ring capacity used by Attach.  Kept
// deliberately small: the flight ring is always on, and its value is the
// last moments before a stall, not a full trace (ktrace does that).
const DefaultRingSize = 512

// Recorder is the always-on flight recorder for one kernel: a bounded
// ring per engine of the records it consumes.  Safe for concurrent use
// from every emitting thread.
type Recorder struct {
	rings []*cpu.Ring
}

// Observe implements cpu.Observer: calls and their outcomes, pickups by
// server threads, scheduler dispatches, VM faults and cache outcomes go
// to the ring of the engine they were stamped on.
func (r *Recorder) Observe(e cpu.Event) {
	switch {
	case e.Phase == cpu.PhaseSent, e.Phase == cpu.PhaseServed, e.Type == cpu.EvCache && e.Name == "readahead":
		return
	}
	slot := e.Engine
	if slot < 0 || slot >= len(r.rings) {
		slot = 0
	}
	r.rings[slot].Put(&e)
}

// EngineDumps snapshots every ring for a postmortem dump, each record
// under its flight name.
func (r *Recorder) EngineDumps() []EngineDump {
	out := make([]EngineDump, 0, len(r.rings))
	for slot, rg := range r.rings {
		ev := rg.Events()
		for i := range ev {
			label(&ev[i])
		}
		out = append(out, EngineDump{Slot: slot, Emitted: rg.Emitted(), Dropped: rg.Dropped(), Events: ev})
	}
	return out
}

// label renders a record in the flight vocabulary: call/callv, reply/replyv
// and error/errorv with the destination server, recv with the task that
// picked the call up, dispatch with the task a burst was placed for.  A
// vectored call's arg is its width.
func label(e *cpu.Event) {
	name := e.Name
	switch e.Type {
	case cpu.EvRPC:
		if name == "" {
			name = "?"
		}
		v := ""
		if e.Width > 0 {
			v, e.Arg = "v", uint64(e.Width)
		}
		switch {
		case e.Phase == cpu.PhasePicked:
			e.Type, name = cpu.EvRPCServe, "recv:"+name
		case e.Phase == cpu.PhaseBegin:
			name = "call" + v + ":" + name
		case e.Err != "":
			name = "error" + v + ":" + name + ":" + e.Err
		default:
			name = "reply" + v + ":" + name
		}
	case cpu.EvSched:
		name = "dispatch:" + name
	}
	e.Name = name
}

// --- engine attachment -----------------------------------------------------

// Attach returns the engine's recorder, attaching one with the default
// ring size if none is.
func Attach(eng *cpu.Engine) *Recorder {
	return AttachSized(eng, DefaultRingSize)
}

// AttachSized is Attach with an explicit per-engine ring capacity for a
// fresh recorder (one ring per engine of the Complex eng routes for); an
// attached one is returned as it is.
func AttachSized(eng *cpu.Engine, capacity int) *Recorder {
	return eng.AttachPlane(cpu.PlaneFlight, func() any {
		r := &Recorder{rings: make([]*cpu.Ring, len(eng.Engines()))}
		for i := range r.rings {
			r.rings[i] = cpu.NewRing(capacity)
		}
		return r
	}).(*Recorder)
}

// Detach removes the engine's recorder.
func Detach(eng *cpu.Engine) { eng.DetachPlane(cpu.PlaneFlight, nil) }

// For returns the engine's recorder, or nil when detached.
func For(eng *cpu.Engine) *Recorder { return cpu.PlaneOf[*Recorder](eng.Planes(), cpu.PlaneFlight) }
