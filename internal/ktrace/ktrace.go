// Package ktrace is the trace plane: kernel event tracing with
// cross-server cost attribution.  It consumes the engine's observation
// records (cpu.Event) into one ring, keeping every record of the types it
// traces — IPC send/receive, RPC calls and serves, VM faults, pager
// traffic, address-space switches, driver I/O, name-service lookups,
// file-server operations — each stamped with the cpu.Counters snapshot at
// emit time, so the delta between a span's begin and end attributes
// instructions, cycles, bus cycles and CPI to one boundary crossing.
//
// Tracing is observation-only: stamp points read the performance
// counters but never charge the engine, so a traced run produces
// bit-identical cpu.Counters to an untraced run and the Table 1 / Table 2
// calibration gates are unaffected.
//
// Span correlation: the engine's open-record stack assigns each traced
// span a (TraceID, SpanID) and parents it to the innermost open traced
// span; across an RPC hand-off the call's record travels in the message,
// so the server-side span parents to the client's call even though it
// runs on another goroutine.  An OS/2 DosOpen can thus be followed across
// personality -> file server -> driver and rendered as a causal tree.
package ktrace

import (
	"fmt"

	"repro/internal/cpu"
)

// DefaultRingSize is the ring capacity used by Attach.
const DefaultRingSize = 1 << 16

// Tracer is the trace plane of one engine: a ring of every traced record,
// in global emission order (a client's resume can migrate, so one span
// can begin and end on different engines).
type Tracer struct {
	*cpu.Ring
}

// Observe implements cpu.Observer: it keeps instants and the edges of the
// spans the open-record stack assigned trace identity.
func (t *Tracer) Observe(e cpu.Event) {
	if e.Phase == cpu.PhaseInstant || e.SpanID != 0 {
		t.Put(e)
	}
}

// Events returns the buffered records, oldest first, with the display
// names the trace renders: a call's or a classic send's operation.
func (t *Tracer) Events() []cpu.Event {
	ev := t.Ring.Events()
	for i := range ev {
		ev[i].Name = name(&ev[i])
	}
	return ev
}

// name formats a record's span name from the names it carries.
func name(e *cpu.Event) string {
	switch e.Type {
	case cpu.EvRPC:
		if e.Width > 0 {
			return fmt.Sprintf("rpcv:%#04x[%d]", uint32(e.Arg), e.Width)
		}
		return fmt.Sprintf("rpc:%#04x", uint32(e.Arg))
	case cpu.EvIPCSend:
		return fmt.Sprintf("send:%#04x", uint32(e.Arg))
	}
	return e.Name
}

// Attach returns the engine's tracer, attaching one with the default ring
// size if none is.
func Attach(eng *cpu.Engine) *Tracer {
	return AttachSized(eng, DefaultRingSize)
}

// AttachSized is Attach with an explicit ring capacity for a fresh
// tracer; an attached one is returned as it is (Detach first to resize).
func AttachSized(eng *cpu.Engine, capacity int) *Tracer {
	return eng.AttachPlane(cpu.PlaneTrace, func() any { return &Tracer{cpu.NewRing(capacity)} }).(*Tracer)
}

// Detach removes the engine's tracer.
func Detach(eng *cpu.Engine) { eng.DetachPlane(cpu.PlaneTrace, nil) }

// For returns the engine's tracer, or nil when tracing is detached.
func For(eng *cpu.Engine) *Tracer { return cpu.PlaneOf[*Tracer](eng.Planes(), cpu.PlaneTrace) }
