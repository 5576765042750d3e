// Package ktrace implements kernel event tracing with cross-server cost
// attribution.  Each traced CPU engine gets a Tracer holding a fixed-size
// ring buffer of typed events (IPC send/receive, RPC enter/exit, VM
// faults, pager traffic, address-space switches, driver I/O, name-service
// lookups, file-server operations); every event is stamped with the
// cpu.Counters snapshot at emit time, so the delta between a span's begin
// and end events attributes instructions, cycles, bus cycles and CPI to
// one boundary crossing.
//
// Tracing is observation-only: hook points read the performance counters
// but never charge the engine, so a traced run produces bit-identical
// cpu.Counters to an untraced run and the Table 1 / Table 2 calibration
// gates are unaffected.  When no tracer is attached the hooks reduce to
// one atomic load and do nothing.
//
// Span correlation: spans carry a (TraceID, SpanID) context that
// internal/mach propagates inside messages, so an OS/2 DosOpen can be
// followed across personality -> file server -> driver and rendered as a
// causal tree.  Within one logical flow, spans opened while another span
// is open are parented to the innermost open span (an explicit stack kept
// by the tracer); across an RPC hand-off the context travels in the
// message, so the server-side span parents to the client's span even
// though it runs on another goroutine.
package ktrace

import (
	"sync"

	"repro/internal/cpu"
)

// EventType classifies a kernel event.
type EventType uint8

// The typed kernel events.
const (
	// EvRPC is a reworked-RPC client round trip (enter/exit).
	EvRPC EventType = iota
	// EvRPCServe is the server-side handling of one RPC.
	EvRPCServe
	// EvIPCSend is a classic mach_msg send.
	EvIPCSend
	// EvIPCRecv is a classic mach_msg receive.
	EvIPCRecv
	// EvVMFault is a page fault resolved by the VM system.
	EvVMFault
	// EvPageIn is a default-pager page-in.
	EvPageIn
	// EvPageOut is a default-pager page-out.
	EvPageOut
	// EvASSwitch is an address-space switch (TLB flush).
	EvASSwitch
	// EvDriverIO is a device-driver request (any driver model).
	EvDriverIO
	// EvInterrupt is an interrupt delivery (Arg = vector).
	EvInterrupt
	// EvNameLookup is a name-service resolution.
	EvNameLookup
	// EvFSOp is a file-server operation.
	EvFSOp
	// EvNetOp is a networking-stack operation.
	EvNetOp
	// EvTask is task/thread lifecycle (create, self).
	EvTask
	// EvAPI is a personality API entry (e.g. DosOpen).
	EvAPI
	// EvCache is a file-server buffer-cache operation (hit, miss,
	// read-ahead fill or write-back).
	EvCache
	// EvSched is an SMP scheduler dispatch (burst placement on an
	// engine), recorded by the kflight flight recorder.
	EvSched
)

var eventNames = [...]string{
	EvRPC: "rpc", EvRPCServe: "rpc_serve", EvIPCSend: "ipc_send",
	EvIPCRecv: "ipc_recv", EvVMFault: "vm_fault", EvPageIn: "page_in",
	EvPageOut: "page_out", EvASSwitch: "as_switch", EvDriverIO: "driver_io",
	EvInterrupt: "interrupt", EvNameLookup: "name_lookup", EvFSOp: "fs_op",
	EvNetOp: "net_op", EvTask: "task", EvAPI: "api", EvCache: "cache",
	EvSched: "sched",
}

func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return "unknown"
}

// Phase distinguishes span begin/end events from instant events.
type Phase uint8

// Event phases.
const (
	PhaseBegin Phase = iota
	PhaseEnd
	PhaseInstant
)

// SpanContext identifies a position in a trace; the zero value means
// "no context" and begins a new trace.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Event is one ring-buffer entry.
type Event struct {
	// Seq is the emission order, never reset, so wraps are detectable.
	Seq   uint64
	Type  EventType
	Phase Phase
	// Subsystem is the component charged ("mach.rpc", "vfs", "drivers"...).
	Subsystem string
	// Name is the operation ("open", "write", "reflect"...).
	Name string
	// TraceID/SpanID/ParentID place the event in its causal tree.
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
	// Arg carries an event-specific value (interrupt vector, ASID,
	// message bytes) with no fixed meaning across types.
	Arg uint64
	// Ctr is the engine's performance-counter snapshot at emit time.
	Ctr cpu.Counters
	// Engine is the engine slot the emitting thread's charges land on
	// (always 0 on single-engine systems).
	Engine int
}

// DefaultRingSize is the ring capacity used by Attach.
const DefaultRingSize = 1 << 16

// Tracer records events for one CPU engine into a bounded ring.
type Tracer struct {
	eng *cpu.Engine

	mu      sync.Mutex
	ring    []Event
	next    int // ring slot for the next event
	count   int // valid entries, <= len(ring)
	dropped uint64
	seq     uint64

	nextTrace uint64
	nextSpan  uint64
	// open is the stack of currently-open span contexts; the top is the
	// fallback parent for spans begun without an explicit context.  Under
	// the serialized client-blocks-on-RPC execution of the simulated
	// system this reconstructs the exact causal tree; with truly
	// concurrent emitters it is best-effort (explicit contexts carried in
	// messages stay exact).
	open []SpanContext
}

// NewTracer creates a tracer over the engine with the given ring capacity
// (events beyond it overwrite the oldest and bump the drop counter).
func NewTracer(eng *cpu.Engine, capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{eng: eng, ring: make([]Event, capacity)}
}

// Span is an in-progress interval; End emits the matching end event.  The
// zero Span is a no-op, so call sites can unconditionally defer End.
type Span struct {
	t    *Tracer
	ctx  SpanContext
	prev SpanContext
	typ  EventType
	sub  string
	name string
}

// Context returns the span's identity for propagation (e.g. inside a
// mach message).
func (s Span) Context() SpanContext { return s.ctx }

// Begin opens a span.  If parent is the zero context the innermost open
// span (if any) becomes the parent; otherwise a new trace starts.
func (t *Tracer) Begin(typ EventType, subsystem, name string, parent SpanContext) Span {
	ctr := t.eng.Counters()
	t.mu.Lock()
	if parent.TraceID == 0 && len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	traceID := parent.TraceID
	if traceID == 0 {
		t.nextTrace++
		traceID = t.nextTrace
	}
	t.nextSpan++
	ctx := SpanContext{TraceID: traceID, SpanID: t.nextSpan}
	t.open = append(t.open, ctx)
	t.put(Event{
		Type: typ, Phase: PhaseBegin, Subsystem: subsystem, Name: name,
		TraceID: traceID, SpanID: ctx.SpanID, ParentID: parent.SpanID,
		Ctr: ctr, Engine: t.eng.CurrentSlot(),
	})
	t.mu.Unlock()
	return Span{t: t, ctx: ctx, prev: parent, typ: typ, sub: subsystem, name: name}
}

// End closes the span, emitting its end event.
func (s Span) End() {
	if s.t == nil {
		return
	}
	t := s.t
	ctr := t.eng.Counters()
	t.mu.Lock()
	// Pop this span from the open stack (normally the top).
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == s.ctx {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
	t.put(Event{
		Type: s.typ, Phase: PhaseEnd, Subsystem: s.sub, Name: s.name,
		TraceID: s.ctx.TraceID, SpanID: s.ctx.SpanID, ParentID: s.prev.SpanID,
		Ctr: ctr, Engine: t.eng.CurrentSlot(),
	})
	t.mu.Unlock()
}

// Emit records an instant event.  A zero ctx attaches it to the innermost
// open span.
func (t *Tracer) Emit(typ EventType, subsystem, name string, ctx SpanContext, arg uint64) {
	ctr := t.eng.Counters()
	t.mu.Lock()
	if ctx.TraceID == 0 && len(t.open) > 0 {
		ctx = t.open[len(t.open)-1]
	}
	t.put(Event{
		Type: typ, Phase: PhaseInstant, Subsystem: subsystem, Name: name,
		TraceID: ctx.TraceID, ParentID: ctx.SpanID, Arg: arg, Ctr: ctr,
		Engine: t.eng.CurrentSlot(),
	})
	t.mu.Unlock()
}

// put appends an event to the ring; the caller holds t.mu.
func (t *Tracer) put(e Event) {
	e.Seq = t.seq
	t.seq++
	if t.count == len(t.ring) {
		t.dropped++ // overwriting the oldest entry
	} else {
		t.count++
	}
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
}

// Events returns the buffered events, oldest first.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.count)
	start := t.next - t.count
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.count; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Dropped reports how many events were overwritten by ring wrap.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Emitted reports the total events emitted (including dropped ones).
func (t *Tracer) Emitted() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Reset discards buffered events and the drop counter but keeps ID
// counters monotone so spans never collide across resets.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next, t.count, t.dropped = 0, 0, 0
	t.open = t.open[:0]
}

// --- engine attachment -----------------------------------------------------

// Attach returns the engine's tracer, attaching one with the default ring
// size (subscribed to address-space switches) if none is.
func Attach(eng *cpu.Engine) *Tracer {
	return AttachSized(eng, DefaultRingSize)
}

// AttachSized is Attach with an explicit ring capacity for a fresh
// tracer; an attached one is returned as it is (Detach first to resize).
func AttachSized(eng *cpu.Engine, capacity int) *Tracer {
	return eng.AttachPlane(cpu.PlaneTrace, func() any {
		t := NewTracer(eng, capacity)
		t.observeSwitches()
		return t
	}).(*Tracer)
}

// observeSwitches subscribes t to address-space switches.  On the router
// engine of a Complex the observer is installed on every engine, each
// stamping its own slot, so cross-engine address-space traffic is visible
// per CPU.
func (t *Tracer) observeSwitches() {
	obs := func(slot int) func(asid uint64, ctr cpu.Counters) {
		return func(asid uint64, ctr cpu.Counters) {
			t.mu.Lock()
			var ctx SpanContext
			if len(t.open) > 0 {
				ctx = t.open[len(t.open)-1]
			}
			t.put(Event{
				Type: EvASSwitch, Phase: PhaseInstant, Subsystem: "cpu",
				Name: "as_switch", TraceID: ctx.TraceID, ParentID: ctx.SpanID,
				Arg: asid, Ctr: ctr, Engine: slot,
			})
			t.mu.Unlock()
		}
	}
	for _, e := range t.eng.Engines() {
		e.SetSwitchObserver(obs(e.Slot()))
	}
}

// Detach removes the engine's tracer and its switch observers; hook
// calls become no-ops again.
func Detach(eng *cpu.Engine) {
	eng.DetachPlane(cpu.PlaneTrace, func() {
		for _, e := range eng.Engines() {
			e.SetSwitchObserver(nil)
		}
	})
}

// For returns the engine's tracer, or nil when tracing is detached.
func For(eng *cpu.Engine) *Tracer { return From(eng.Planes()) }

// From returns the tracer in an engine's plane set, or nil.
func From(ps *cpu.Planes) *Tracer { return cpu.PlaneOf[*Tracer](ps, cpu.PlaneTrace) }
