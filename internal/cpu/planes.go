package cpu

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Plane names one slot of an engine's observation set.  The planes live
// in their own packages (kstat, ktrace, kprof, kflight, klat); cpu holds
// them opaquely and imports none of them.
type Plane uint8

// The observation planes, one slot each.
const (
	PlaneStat Plane = iota
	PlaneTrace
	PlaneProf
	PlaneFlight
	PlaneLat
	NumPlanes
)

// EventType classifies an observation record.
type EventType uint8

// The record types.
const (
	// EvRPC is a reworked-RPC call: its span is the client round trip,
	// its stamps the send, pickup and reply commit of the crossing.
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
	// EvSched is an SMP scheduler dispatch (burst placement on an engine).
	EvSched
	// EvTrap is Table 2's thread_self trap.
	EvTrap
	// EvKernel is any other kernel path entered with a profile frame: a
	// trap-based service entry, the region-map walk of a transfer.
	EvKernel
	numEventTypes
)

var eventNames = [...]string{
	EvRPC: "rpc", EvRPCServe: "rpc_serve", EvIPCSend: "ipc_send",
	EvIPCRecv: "ipc_recv", EvVMFault: "vm_fault", EvPageIn: "page_in",
	EvPageOut: "page_out", EvASSwitch: "as_switch", EvDriverIO: "driver_io",
	EvInterrupt: "interrupt", EvNameLookup: "name_lookup", EvFSOp: "fs_op",
	EvNetOp: "net_op", EvTask: "task", EvAPI: "api", EvCache: "cache",
	EvSched: "sched", EvTrap: "trap", EvKernel: "kernel",
}

func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return "unknown"
}

// Phase says where in an interval a record was stamped.
type Phase uint8

// Record phases.  A span opens with Begin and closes with End; a call's
// span is stamped in between at its send, its pickup by a server thread
// and its reply commit; an instant stands alone.
const (
	PhaseBegin Phase = iota
	PhaseEnd
	PhaseInstant
	PhaseSent
	PhasePicked
	PhaseServed
)

// Event is the one observation record.  A stamp point builds one and
// hands it to its engine's plane set; every plane that reads its type
// consumes it, and the rings of the trace and flight planes store it.
// It carries names, not display strings: each plane formats its own
// rendering when it dumps.
type Event struct {
	// Seq is the storing ring's emission order, never reset.
	Seq   uint64    `json:"seq"`
	Type  EventType `json:"type"`
	Phase Phase     `json:"phase"`
	// Subsystem is the component charged ("mach.rpc", "vfs", "drivers"...).
	Subsystem string `json:"subsystem"`
	// Name is the operation ("open", "reflect"...), or for a crossing its
	// peer: a call's destination server, the task that picked it up.
	Name string `json:"name"`
	// TraceID/SpanID/ParentID place a traced record in its causal tree.
	TraceID  uint64 `json:"trace,omitempty"`
	SpanID   uint64 `json:"span,omitempty"`
	ParentID uint64 `json:"parent,omitempty"`
	// Arg is the record's value: a call's operation selector, a vector,
	// a faulting address, an outcome count.
	Arg uint64 `json:"arg"`
	// Width is a vectored call's sub-request count (0 for a plain one).
	Width int `json:"width,omitempty"`
	// Bytes and Mapped are the payload a crossing copies and maps: the
	// request's on a call's Begin, the reply's on its End.
	Bytes  uint64 `json:"bytes,omitempty"`
	Mapped uint64 `json:"mapped,omitempty"`
	// Err is a failed call's error.
	Err string `json:"err,omitempty"`
	// Ctr is the engine's performance counters at the stamp.
	Ctr Counters `json:"ctr"`
	// Engine is the slot the emitting thread's charges land on.
	Engine int `json:"engine"`
	// Span is the open record this one begins or ends.  Req is the
	// request it belongs to: the call a stamp or a serve span is part of,
	// the request a call is made for, the one a cache outcome served.
	Span *Span `json:"-"`
	Req  *Span `json:"-"`
}

// Span is an open record: the Begin record of an interval, which its
// stamps and its End refer back to.  A call's span is also its request
// identity: the message carries it to the server.
type Span struct {
	Event
	// Lat is the latency plane's ledger entry for a call (a *klat.Hop),
	// allocated with the record by that plane (RecordMaker) and filled
	// when it consumes the Begin.
	Lat any

	ps      *Planes
	frame   string // the profile frame, "" for none
	stacked bool   // on the engine's open-record stack
	closed  bool
	serve   *Span // the serve span its reply commit closes
}

// Observer is a plane that consumes records.  A record is handed over by
// value: a stamp point's record never escapes to the heap.
type Observer interface{ Observe(Event) }

// RecordMaker is a plane that keeps an entry per call: Open takes each
// EvRPC record from it, so the record and the entry are one allocation.
type RecordMaker interface{ NewRecord() *Span }

// reads lists the record types each plane consumes as spans (Begin and
// End) and as points (stamps and instants).  The profile plane consumes
// nothing itself: it reads the frames of the open-record stack.
var reads = [NumPlanes]struct{ spans, points uint32 }{
	PlaneStat:   {types(EvRPC, EvTrap), types(EvVMFault, EvCache)},
	PlaneTrace:  {traced, traced &^ types(EvRPC)},
	PlaneProf:   {types(EvRPC, EvRPCServe, EvTrap, EvKernel), 0},
	PlaneFlight: {types(EvRPC), types(EvRPC, EvSched, EvVMFault, EvCache)},
	PlaneLat:    {types(EvRPC), types(EvRPC, EvCache)},
}

// traced is every type the trace records.
var traced = (1<<numEventTypes - 1) &^ types(EvSched, EvTrap, EvKernel)

func types(ts ...EventType) uint32 {
	var m uint32
	for _, t := range ts {
		m |= 1 << t
	}
	return m
}

// Planes is the immutable set of planes attached to an engine.  Attach
// and detach publish a new set copy-on-write, so a stamp point reads
// everything it needs from one atomic load (Engine.Planes).
type Planes struct {
	eng           *Engine
	slots         [NumPlanes]any
	spans, points uint32 // types some attached plane consumes
	obs           []observer
	records       RecordMaker // the plane a call's record comes from, if any
}

type observer struct {
	Observer
	spans, points uint32
}

// PlaneOf returns the plane of type T in slot p of ps (a nil set holds
// nothing), or T's zero value.
func PlaneOf[T any](ps *Planes, p Plane) T {
	var v T
	if ps != nil {
		v, _ = ps.slots[p].(T)
	}
	return v
}

// Engines returns the engines a plane attached here observes: every
// engine of the Complex this engine routes for, or this engine alone.
func (e *Engine) Engines() []*Engine {
	if e.cx != nil {
		return e.cx.Engines()
	}
	return []*Engine{e}
}

// Planes returns the engine's plane set, nil before the first attach.
func (e *Engine) Planes() *Planes { return e.planes.Load() }

// AttachPlane is the one attach rule of every plane: it returns the plane
// in slot p, or publishes mk() there when the slot is empty (detach first
// for a fresh one).  mk runs under the engine's attach lock, so a plane
// installs its engine hooks atomically with its publication.
func (e *Engine) AttachPlane(p Plane, mk func() any) any {
	e.planeMu.Lock()
	defer e.planeMu.Unlock()
	if v := PlaneOf[any](e.planes.Load(), p); v != nil {
		return v
	}
	return e.setPlane(p, mk())
}

// DetachPlane empties slot p; undo, if set, runs on the removed plane
// under the attach lock to take down the hooks its attach installed.
func (e *Engine) DetachPlane(p Plane, undo func()) {
	e.planeMu.Lock()
	defer e.planeMu.Unlock()
	if PlaneOf[any](e.planes.Load(), p) != nil {
		if undo != nil {
			undo()
		}
		e.setPlane(p, nil)
	}
}

// setPlane publishes a copy of the set with slot p holding v, with the
// consumer masks recomputed; planeMu is held.
func (e *Engine) setPlane(p Plane, v any) any {
	next := Planes{eng: e}
	if cur := e.planes.Load(); cur != nil {
		next.slots = cur.slots
	}
	next.slots[p] = v
	for i, s := range next.slots {
		if s == nil {
			continue
		}
		r := reads[i]
		next.spans |= r.spans
		next.points |= r.points
		if o, ok := s.(Observer); ok {
			next.obs = append(next.obs, observer{o, r.spans, r.points})
		}
		if m, ok := s.(RecordMaker); ok {
			next.records = m
		}
	}
	e.planes.Store(&next)
	return v
}

// Wants reports whether an attached plane consumes records of type t:
// the one load and test a stamp point pays when nothing does.
func (ps *Planes) Wants(t EventType) bool { return ps != nil && (ps.spans|ps.points)&(1<<t) != 0 }

// fan hands e to every attached plane that consumes it.
func (ps *Planes) fan(e Event) {
	for _, o := range ps.obs {
		m := o.points
		if e.Phase <= PhaseEnd {
			m = o.spans
		}
		if m&(1<<e.Type) != 0 {
			o.Observe(e)
		}
	}
}

// stamp fills the record's clock: the counters (the Complex-wide sum on a
// router) and the slot the caller's charges land on.
func (ps *Planes) stamp(e *Event) {
	e.Ctr = ps.eng.Counters()
	e.Engine = ps.eng.CurrentSlot()
}

// Emit records an instant.  The trace parents it to the innermost open
// traced span.
func (ps *Planes) Emit(e Event) {
	if ps == nil || ps.points&(1<<e.Type) == 0 {
		return
	}
	e.Phase = PhaseInstant
	ps.stamp(&e)
	if ps.slots[PlaneTrace] != nil {
		o := &ps.eng.open
		o.mu.Lock()
		e.TraceID, e.ParentID = o.innermost().TraceID, o.innermost().SpanID
		o.mu.Unlock()
	}
	ps.fan(e)
}

// Open opens a span and returns it, or nil when no attached plane reads
// spans of its type.  parent, when it carries trace identity, is the
// span's causal parent (a context carried in a message); otherwise the
// trace parents it to the innermost open traced span.  A serve span
// registers with the call it serves, whose reply commit closes it.
func (ps *Planes) Open(e Event, parent *Span) *Span {
	if ps == nil || ps.spans&(1<<e.Type) == 0 {
		return nil
	}
	var sp *Span
	if e.Type == EvRPC && ps.records != nil {
		sp = ps.records.NewRecord()
	} else {
		sp = new(Span)
	}
	sp.Event, sp.ps = e, ps
	sp.Phase, sp.Span = PhaseBegin, sp
	ps.stamp(&sp.Event)
	traced := ps.slots[PlaneTrace] != nil && reads[PlaneTrace].spans&(1<<e.Type) != 0
	if ps.slots[PlaneProf] != nil {
		sp.frame = frame(&sp.Event)
	}
	if traced || sp.frame != "" {
		ps.eng.open.push(sp, parent, traced)
	}
	if e.Type == EvRPCServe && e.Req != nil {
		e.Req.serve = sp
	}
	ps.fan(sp.Event)
	return sp
}

// End closes the span; a nil or closed span is a no-op.
func (sp *Span) End() { sp.Close(Event{}) }

// Close closes the span with an End record carrying end's outcome (Err,
// Bytes, Mapped) and the span's identity.
func (sp *Span) Close(end Event) {
	if sp == nil || sp.closed {
		return
	}
	sp.closed = true
	e := sp.Event
	e.Phase, e.Err, e.Bytes, e.Mapped = PhaseEnd, end.Err, end.Bytes, end.Mapped
	sp.ps.stamp(&e)
	if sp.stacked {
		sp.ps.eng.open.pop(sp)
	}
	sp.ps.fan(e)
}

// Stamp records a point of the call sp: its send (PhaseSent), its pickup
// by a server thread (PhasePicked, name the serving task, arg the
// operation) or its reply commit (PhaseServed), which also ends the
// serve span open under it.
func (sp *Span) Stamp(p Phase, name string, arg uint64) {
	if sp == nil {
		return
	}
	if p == PhaseServed {
		sp.serve.End()
	}
	e := Event{Type: sp.Type, Phase: p, Subsystem: sp.Subsystem, Name: name, Arg: arg, Req: sp}
	sp.ps.stamp(&e)
	sp.ps.fan(e)
}

// frame is the profile frame a span contributes to the context, "" for
// none: the client and server sides of an RPC and the kernel paths.
func frame(e *Event) string {
	switch e.Type {
	case EvRPC:
		if e.Name == "" {
			return "rpc:?"
		}
		return "rpc:" + e.Name
	case EvRPCServe:
		return e.Name + fmt.Sprintf(";op:%#04x", uint32(e.Arg))
	case EvTrap, EvKernel:
		return e.Subsystem + ":" + e.Name
	}
	return ""
}

// openRecords is an engine's stack of open spans, read by two planes: the
// trace parents a span to the innermost traced one, and the profile's
// context is the frames of those that have one.  Under the serialized
// client-blocks-on-RPC execution of the simulated system the stack is a
// true call stack; with truly concurrent emitters it is best-effort.
type openRecords struct {
	mu             sync.Mutex
	spans          []*Span
	traces, nextID uint64
	ctx            atomic.Pointer[string]
}

func (o *openRecords) push(sp *Span, parent *Span, traced bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if traced {
		if parent == nil || parent.TraceID == 0 {
			parent = o.innermost()
		}
		sp.TraceID = parent.TraceID
		if sp.TraceID == 0 {
			o.traces++
			sp.TraceID = o.traces
		}
		o.nextID++
		sp.SpanID, sp.ParentID = o.nextID, parent.SpanID
	}
	sp.stacked = true
	o.spans = append(o.spans, sp)
	if sp.frame != "" {
		o.rejoin()
	}
}

func (o *openRecords) pop(sp *Span) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i := len(o.spans) - 1; i >= 0; i-- {
		if o.spans[i] == sp {
			o.spans = append(o.spans[:i], o.spans[i+1:]...)
			break
		}
	}
	if sp.frame != "" {
		o.rejoin()
	}
}

// innermost returns the innermost open traced span, or an empty one.
func (o *openRecords) innermost() *Span {
	for i := len(o.spans) - 1; i >= 0; i-- {
		if o.spans[i].SpanID != 0 {
			return o.spans[i]
		}
	}
	return &noSpan
}

var noSpan Span

// rejoin republishes the profile context; mu is held.
func (o *openRecords) rejoin() {
	var frames []string
	for _, sp := range o.spans {
		if sp.frame != "" {
			frames = append(frames, sp.frame)
		}
	}
	ctx := strings.Join(frames, ";")
	o.ctx.Store(&ctx)
}

// ProfContext returns the profile context: the frames of the open spans
// that have one, outermost first, ";"-joined.
func (e *Engine) ProfContext() string {
	if p := e.open.ctx.Load(); p != nil {
		return *p
	}
	return ""
}

// Ring is the bounded record buffer of the trace and flight planes: it
// keeps the newest records up to its capacity, growing to it as records
// arrive, and counts what it overwrote.
type Ring struct {
	mu         sync.Mutex
	buf        []Event
	max        int
	seq, reset uint64
}

// NewRing returns a ring holding up to capacity records (at least one).
func NewRing(capacity int) *Ring { return &Ring{max: max(capacity, 1)} }

// Put stores a copy of *e, stamped with the ring's sequence.  It takes a
// pointer, and keeps none, so an observer hands over the record it was
// given without one more copy of it.
func (r *Ring) Put(e *Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := int(r.seq - r.reset)
	if i < r.max {
		r.buf = append(r.buf, *e)
	} else {
		i %= r.max
		r.buf[i] = *e
	}
	r.buf[i].Span, r.buf[i].Req, r.buf[i].Seq = nil, nil, r.seq
	r.seq++
}

// Events returns the buffered records, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	out := make([]Event, 0, n)
	for s := r.seq - uint64(n); s < r.seq; s++ {
		out = append(out, r.buf[int(s-r.reset)%r.max])
	}
	return out
}

// Emitted reports every record ever put, including overwritten ones.
func (r *Ring) Emitted() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Dropped reports the records overwritten since the last Reset.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq - r.reset - uint64(len(r.buf))
}

// Reset discards the buffered records and the drop count; the sequence
// stays monotone.
func (r *Ring) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf, r.reset = r.buf[:0], r.seq
}
