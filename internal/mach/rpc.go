package mach

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cpu"
	"repro/internal/klat"
	"repro/internal/kstat"
)

// This file implements the reworked RPC path — the paper's central IPC
// change.  Relative to classic mach_msg the rework:
//
//   - removed reply ports (the reply goes back on the call that carried
//     the request)
//   - made message delivery and reply synchronous
//   - blocks a caller until a server can take its call
//   - removed message queuing
//   - passes data too large for the inline body by reference, copying it
//     once from sender to receiver
//   - replaced virtual copy with physical copy
//   - optimized and simplified the user-level stubs and server loops
//
// Servers are passive, one step further along the same line: a call takes
// a free slot of the server's pool and runs the server side — receive
// path, handler, reply — on the caller's own goroutine under the slot's
// thread identity, charging the same sequence a hand-off to a server
// thread would.  There is no rendezvous, no reply wait and no server
// goroutine; classic mach_msg (ipc.go) keeps its active receivers.
//
// The result in the paper was a 2x–10x message-passing improvement over
// mach_msg depending on size; BenchmarkFigureIPCSweep reproduces the sweep.

// userBufAddr returns the synthetic address of a task's message buffer,
// distinct per address space so copies charge realistic D-cache traffic.
func userBufAddr(asid uint64) uint64 {
	return 0x8000_0000 + asid*0x0100_0000
}

// CallOpts parameterizes one Call.  The zero value means "plain
// synchronous call, wait forever".  The struct
// leaves room for future per-call policy (retry, priority inheritance)
// without growing another method per knob.
type CallOpts struct {
	// Timeout bounds the wait for a free server slot; 0 means no
	// deadline.  A call that has taken a slot always completes: its
	// handler runs on the caller's goroutine, so there is no reply to
	// abandon.
	Timeout time.Duration

	// Parent names the request this call is made for — the message the
	// calling handler is serving — so the call's hop joins that request's
	// latency ledger as a child.  It overrides the thread's ActFor; with
	// neither, the call is a root.
	Parent *Message
}

// Call performs a synchronous remote procedure call: it blocks until a
// slot of the destination's server is free, moves the request across with
// a single physical copy, runs the server side on the calling goroutine
// and returns the reply.  There is no reply port and no queuing.  Call
// and CallV are the only client entry points; CallV is the vectored one.
//
// The request stays the caller's: the kernel delivers a copy of its
// header and writes nothing into it, so one message can be sent again.
// The reply is the one the handler built, and the caller's to keep.
//
// Call runs the crossing inside the call's record: one record opened at
// entry, stamped on the way (send done, pickup, reply commit) and closed
// at return, which every attached plane consumes — the stat families, the
// flight ring, the profile frame, the trace span and the latency hop.  The
// record rides to the handler in the delivered header.  Its trace parent
// is whatever record the message already carried (a request the caller
// is serving and passes on; none for a fresh one: the innermost open
// span), its request is the one the call is made for — named by the call,
// else by whoever drives this thread; one that names nothing is a root.
// Nothing here charges the engine.
func (th *Thread) Call(dest PortName, req *Message, opts CallOpts) (*Message, error) {
	out := th.rpcCall(dest, req, opts)
	return out.m, out.err
}

// CallV performs a vectored call: one crossing carries every request in
// reqs and returns the matching sub-replies, in order.  The whole batch
// pays one dispatch, one AS-switch pair and one I-cache refill; each
// sub-message adds only its body copy (or per-page region map) and a
// small demux charge.  Sub-messages cannot carry port rights.  A batch
// of one degrades to a plain Call; an empty batch is a no-op.  The
// returned slice is the call's one allocation.
func (th *Thread) CallV(dest PortName, reqs []*Message, opts CallOpts) ([]*Message, error) {
	switch len(reqs) {
	case 0:
		return nil, nil
	case 1:
		m, err := th.Call(dest, reqs[0], opts)
		if err != nil {
			return nil, err
		}
		return []*Message{m}, nil
	}
	for _, sub := range reqs {
		if sub == nil {
			return nil, ErrBatchMismatch
		}
	}
	carrier := Message{ID: reqs[0].ID, rec: reqs[0].rec, batch: reqs}
	out := th.rpcCall(dest, &carrier, opts)
	if out.err != nil {
		return nil, out.err
	}
	if len(out.batch) != len(reqs) {
		return nil, ErrBatchMismatch
	}
	return out.batch, nil
}

// rpcCall runs the shared client path inside the call's record (see
// Call).
func (th *Thread) rpcCall(dest PortName, req *Message, opts CallOpts) rpcOutcome {
	ps := th.task.kernel.CPU.Planes()
	if !ps.Wants(cpu.EvRPC) {
		return th.rpcCallRaw(dest, req, nil, opts.Timeout)
	}
	// Charge-free destination-server lookup: the record names the peer.
	srv := ""
	if e, lerr := th.task.ports.lookup(dest, RightSend); lerr == nil {
		if rt := e.port.receiverTask(); rt != nil {
			srv = rt.name
		}
	}
	of := opts.Parent.Record()
	if klat.Of(of) == nil {
		of = th.actFor.Load()
	}
	rec := ps.Open(cpu.Event{Type: cpu.EvRPC, Subsystem: "mach.rpc", Name: srv, Arg: uint64(req.ID),
		Width: len(req.batch), Bytes: copiedBytes(req), Mapped: regionBytes(req), Req: of}, req.rec)
	out := th.rpcCallRaw(dest, req, rec, opts.Timeout)
	var end cpu.Event
	if out.err != nil {
		end.Err = out.err.Error()
	} else {
		reply := Message{batch: out.batch} // a vectored reply's sub-replies
		if out.m != nil {
			reply = *out.m
		}
		end.Bytes, end.Mapped = copiedBytes(&reply), regionBytes(&reply)
	}
	rec.Close(end)
	return out
}

// sendable checks a message against the crossing's limits: inline bodies
// of at most InlineMax bytes, and no port rights in a carrier's subs.
func (m *Message) sendable() error {
	if len(m.Body) > InlineMax {
		return ErrMsgTooLarge
	}
	for _, sub := range m.batch {
		if len(sub.Body) > InlineMax {
			return ErrMsgTooLarge
		}
		if len(sub.Rights) > 0 {
			return ErrBatchRights
		}
	}
	return nil
}

// copiedBytes counts the bytes a message moves through the physical copy
// path: inline bodies and copy-once OOL payloads, across every
// sub-message of a carrier.  Region payloads are excluded — they move by
// map manipulation and land on mach.ool.bytes_mapped instead.
func copiedBytes(m *Message) uint64 {
	n := uint64(len(m.Body) + len(m.OOL))
	for _, sub := range m.batch {
		n += uint64(len(sub.Body) + len(sub.OOL))
	}
	return n
}

// regionBytes counts the payload bytes a message transfers by reference.
func regionBytes(m *Message) uint64 {
	var n uint64
	for i := range m.Regions {
		n += m.Regions[i].Len
	}
	for _, sub := range m.batch {
		n += regionBytes(sub)
	}
	return n
}

// rpcOutcome is what a call resolves to: the reply message — or, for a
// vectored reply, its sub-replies — or a distinguishable failure.
type rpcOutcome struct {
	m     *Message
	batch []*Message
	err   error
	vt    uint64 // the server burst's virtual completion time (0 on single-CPU)
}

// rpcCallRaw is the shared client path; rec is the call's record, nil
// when nothing observes calls, and timeout bounds the slot wait (0: none).
func (th *Thread) rpcCallRaw(dest PortName, req *Message, rec *cpu.Span, timeout time.Duration) rpcOutcome {
	k := th.task.kernel
	if err := req.sendable(); err != nil {
		return rpcOutcome{err: err}
	}
	// The send path up to the slot wait is one scheduled burst; the
	// server side is another, placed on the slot (schedServe); the resume
	// after the reply is a third, dispatched separately — that resume is
	// where a migration can happen and be charged.  The send burst's
	// release funnels through the deferred call, so error returns always
	// end it.  All of this is nil/no-op on single-CPU.
	rel := k.schedRun(th)
	release := func() {
		if rel != nil {
			rel()
			rel = nil
		}
	}
	defer release()

	// Simplified client stub and kernel entry.
	k.CPU.Exec(k.paths.rpcStubC)
	k.trap()
	k.CPU.Exec(k.paths.portLookup)

	port, entry, err := th.task.portFor(dest, RightSend)
	if err != nil {
		k.rti()
		return rpcOutcome{err: err}
	}
	k.touchKData(port.id, 96)
	k.CPU.Exec(k.paths.rpcSend)

	// The request header crosses by value, with the call's record.
	// Carried rights are resolved and renamed in the delivered copy's own
	// list, so the caller's keeps its names.
	hdr := *req
	hdr.rec = rec
	if len(req.Rights) > 0 {
		hdr.Rights = slices.Clone(req.Rights)
		if err := th.task.loadRights(&hdr); err != nil {
			k.rti()
			return rpcOutcome{err: err}
		}
	}

	// Data movement: inline bodies and copy-once OOL payloads are each
	// physically copied exactly once, sender space to receiver space;
	// region payloads move by per-page map manipulation with no per-byte
	// cost; a vectored carrier pays one gathered copy plus a per-sub
	// demux charge.
	dstAS := port.receiverASID()
	k.chargeTransfer(req, th.task.asid, dstAS)
	k.CPU.Exec(k.paths.schedule)

	// The client blocks for a slot: its burst ends here.  Both waits —
	// parked for a slot, then for the reply while the handler runs —
	// register with the flight recorder's wait-for graph.
	th.waits[0].aim(port, uint32(req.ID))
	th.waits[1].aim(port, uint32(req.ID))
	release()

	// Send done: the send burst is fully charged; cycles from here to the
	// slot claim are the call's queue-wait.
	rec.Stamp(cpu.PhaseSent, "", 0)

	s, r, err := th.claim(port, timeout)
	if err != nil {
		return rpcOutcome{err: err}
	}
	// A send-once right is spent by the one call that removes it; a call
	// racing through the same name finds it gone.
	if entry.typ == RightSendOnce && !th.task.ports.consumeSendOnce(dest) {
		r.pool.free(s)
		return rpcOutcome{err: ErrInvalidName}
	}
	th.wait.Store(&th.waits[1])
	s.req = hdr
	out := r.pool.serve(s, port, r.name, th)
	th.clearWait()
	if out.err != nil {
		return out
	}

	// Client resumes: switch back to its space and return to user mode.
	// A fresh dispatch — the thread prefers its last engine but may be
	// stolen to an idle one, paying the migration charge there.  The
	// resume cannot start before the reply existed in modeled time: the
	// server burst's virtual completion time rides in the outcome, and
	// waiting for it here is what couples client progress to server
	// occupancy.
	k.schedReady(th, out.vt)
	rel = k.schedRun(th)
	k.CPU.SwitchAddressSpace(th.task.asid)
	k.CPU.Exec(k.paths.schedule)
	k.rti()
	k.CPU.Instr(20) // stub epilogue
	return out
}

// claim blocks th until a slot of the pool serving port is free and takes
// it, returning the port's route: the pool and the handler's name for the
// port.  It fails with ErrDeadPort when the port dies or its set is
// destroyed, with ErrAborted when th is terminated, and with ErrTimeout
// once timeout (0: none) has passed since it first parked.  A call to a
// port nothing serves yet waits for a server to register.  A killed slot
// still waiting to be taken is dropped.
func (th *Thread) claim(port *Port, timeout time.Duration) (*slot, route, error) {
	var deadline time.Time
	for {
		s, r, pk, err := port.take(th)
		if pk == nil {
			return s, r, err
		}
		// Every slot is busy, or nothing serves the port yet.  A port
		// set counts its callers waiting here.
		if timeout > 0 && deadline.IsZero() {
			deadline = time.Now().Add(timeout)
		}
		if r.set != nil {
			r.set.waiting(1)
		}
		why := pk.park(th, &th.waits[0], deadline)
		if r.set != nil {
			r.set.waiting(-1)
		}
		if why != granted {
			r.mu.Lock()
			r.q.drop(pk)
			r.mu.Unlock()
			return nil, r, why.err()
		}
		if s := pk.slot; s != nil && !s.th.Dead() {
			return s, r, nil
		}
	}
}

// serve runs the server side of one crossing on the calling goroutine,
// under slot s's thread identity, for caller — whose request header is
// already in s.req — and frees the slot.  port is the port called and
// name the handler's name for it.
//
// The server burst covers receive path, handler and reply, and cannot
// start before the caller's send burst completed in modeled time.  The
// serve span every served RPC gets is parented to the client's call
// carried in the message, so the causal tree crosses tasks, carries the
// server and operation profile frames, and is closed by the reply commit
// (it covers handler AND reply delivery — the server-occupancy segment
// internal/bench calibrates its concurrency model from).  A reply that is
// never committed closes it on return.  The pool's busy count covers the
// same segment and falls before the caller resumes.
func (p *ServerPool) serve(s *slot, port *Port, name PortName, caller *Thread) rpcOutcome {
	k := p.task.kernel
	req := &s.req
	req.srv = s.th
	// Pickup: the call has its slot; queue-wait ends, the service segment
	// (receive path, handler, reply) begins.
	req.rec.Stamp(cpu.PhasePicked, p.task.name, uint64(req.ID))
	rel := k.schedServe(s.th, caller.vt.Load())

	// The server side of the crossing: load the server's address space,
	// run the receive return path and the simplified server stub, install
	// carried rights and sequence the request.
	k.CPU.SwitchAddressSpace(p.task.asid)
	k.CPU.Exec(k.paths.rpcReceive)
	k.CPU.Exec(k.paths.rpcStubS)
	k.touchKData(port.id, 96)
	if len(req.Rights) > 0 {
		p.task.acceptRights(req)
	}
	port.mu.Lock()
	port.seqno++
	req.Seq = port.seqno
	port.mu.Unlock()
	k.rti()

	if p.ops != nil {
		p.busyOnce.Do(func() { kstat.For(k.CPU).GaugeFunc(p.fam+".busy", p.busy.Load) })
		p.busy.Add(1)
	}
	sp := k.CPU.Planes().Open(cpu.Event{Type: cpu.EvRPCServe, Subsystem: "mach.rpc", Name: s.frame,
		Arg: uint64(req.ID), Req: req.rec}, req.rec)
	// The handler runs on the caller's goroutine: waits made as the
	// slot's thread park the caller's parker until the slot is freed.
	s.th.pk.Store(caller.pk.Load())
	out := p.reply(s, s.handle(name, p.handler), caller, rel)
	if p.ops != nil {
		p.busy.Add(-1)
		p.ops[s.idx].Add(1)
		p.opsOnce.Do(func() { kstat.For(k.CPU).CounterFunc(p.fam+".ops", p.Ops) })
	}
	s.th.pk.Store(&s.th.own)
	sp.End()
	p.free(s)
	return out
}

// handle runs h on the slot's request and returns the reply to send.
// Vectored carriers are demultiplexed here — each sub-request handled in
// order, the sub-replies sent back in one crossing — so handlers never
// see one.
//
// The latency ledger needs nothing bound here: the request record rides
// in the message the handler is given, and a handler that calls onward
// names it from there.  Each sub is delivered, like a plain request, as
// a header copy in the slot (the sub-messages are still the client's)
// that names the serving thread, so a sub that waits on a kernel lock
// shows in the wait-for graph; it also carries the sub's sub-hop — one
// service window.
func (s *slot) handle(name PortName, h func(PortName, *Message) *Message) *Message {
	req := &s.req
	subs := req.batch
	if subs == nil {
		return h(name, req)
	}
	if cap(s.replies) < len(subs) {
		s.replies = make([]*Message, len(subs))
		s.subs = make([]Message, len(subs))
	}
	replies, hdrs := s.replies[:len(subs)], s.subs[:len(subs)]
	for i, sub := range subs {
		hdrs[i] = *sub
		hdrs[i].srv = s.th
		sh := req.Hop().BeginSub(uint32(sub.ID))
		if sh != nil {
			hdrs[i].rec = sh
		}
		replies[i] = h(name, &hdrs[i])
		klat.Of(sh).EndSub()
	}
	// The caller receives a slice of its own, so the handler's replies
	// may be reused; nil slots become empty replies, and a sub header
	// echoed back is copied out of the slot.
	out := make([]*Message, len(subs))
	for i, sub := range replies {
		if sub == nil || sub == &hdrs[i] {
			sub = cloneForDelivery(sub)
		}
		out[i] = sub
	}
	clear(replies) // keep nothing alive
	clear(hdrs)
	s.carrier = Message{ID: out[0].ID, batch: out}
	return &s.carrier
}

// chargeTransfer charges the data-movement half of one RPC crossing in
// direction srcAS→dstAS: a single physical copy for inline bodies and
// copy-once OOL payloads (gathered across every sub-message of a
// vectored carrier), a per-page map charge — and no per-byte cost — for
// by-reference regions, and a per-sub demux charge for carriers.
func (k *Kernel) chargeTransfer(m *Message, srcAS, dstAS uint64) {
	if m.batch == nil {
		k.CPU.Copy(userBufAddr(srcAS), userBufAddr(dstAS), uint64(len(m.Body)))
		if len(m.OOL) > 0 {
			k.CPU.Copy(userBufAddr(srcAS)+1<<20, userBufAddr(dstAS)+1<<20, uint64(len(m.OOL)))
		}
		k.chargeRegions(m)
		return
	}
	// Vectored carrier: sub-bodies are gathered into one contiguous
	// buffer and moved with a single copy, so the per-message fixed copy
	// overhead is paid once per batch, not once per op.
	var body, ool uint64
	for _, sub := range m.batch {
		k.CPU.Exec(k.paths.batchDemux)
		body += uint64(len(sub.Body))
		ool += uint64(len(sub.OOL))
		k.chargeRegions(sub)
	}
	k.CPU.Copy(userBufAddr(srcAS), userBufAddr(dstAS), body)
	if ool > 0 {
		k.CPU.Copy(userBufAddr(srcAS)+1<<20, userBufAddr(dstAS)+1<<20, ool)
	}
}

// chargeRegions charges the by-reference transfer of a message's regions:
// one rpc_region_map traversal and one map-entry touch per page, zero
// per-byte cycles.  Its record's profile frame makes the map cost
// attributable as its own charge site.
func (k *Kernel) chargeRegions(m *Message) {
	if len(m.Regions) == 0 {
		return
	}
	defer k.CPU.Planes().Open(cpu.Event{Type: cpu.EvKernel, Subsystem: "xfer", Name: "region_map"}, nil).End()
	for i := range m.Regions {
		for p, n := uint64(0), m.Regions[i].Pages(); p < n; p++ {
			k.CPU.Exec(k.paths.regionMap)
			k.touchKData((1<<16)+p, 64)
		}
	}
}

// reply copies the reply back to caller with a single physical copy and
// ends the server burst rel.  The reply the handler built is what the
// caller gets, except where the kernel cannot hand it over as it is: no
// reply at all (the caller gets an empty one), the request header echoed
// back (it lives in the slot, which the slot's next call overwrites), and
// a reply carrying rights (the kernel renames them into the caller's
// space, and the handler's own list keeps the server's names).  A reply
// the kernel cannot deliver (oversized body, bad rights) fails the call
// with ErrReplyFailed wrapping the cause; the pool serves on.
func (p *ServerPool) reply(s *slot, reply *Message, caller *Thread, rel func()) rpcOutcome {
	k := p.task.kernel
	fail := func(err error) rpcOutcome {
		if rel != nil {
			rel()
		}
		return rpcOutcome{err: fmt.Errorf("%w: %w", ErrReplyFailed, err)}
	}
	if reply == nil || reply == &s.req || len(reply.Rights) > 0 {
		reply = cloneForDelivery(reply)
	}
	if err := reply.sendable(); err != nil {
		return fail(err)
	}
	k.trap()
	k.CPU.Exec(k.paths.rpcReply)
	k.chargeTransfer(reply, p.task.asid, caller.task.asid)
	if len(reply.Rights) > 0 {
		if err := p.task.loadRights(reply); err != nil {
			return fail(err)
		}
	}
	k.CPU.Exec(k.paths.schedule)
	if len(reply.Rights) > 0 {
		caller.task.acceptRights(reply)
	}
	// End the server burst before the caller resumes, so the outcome
	// carries the handler's virtual completion time and the resume starts
	// after it in modeled time.
	if rel != nil {
		rel()
		// The burst just settled: attach its modeled schedule to the
		// hop's ledger.  On a multi-engine run the wall-clock segments
		// measure global work during the hop, not this request's own
		// waiting, so these virtual-cycle figures — burst length, pool
		// wait, engine wait — are what E-TAIL's queue attribution
		// reasons over.  They are the dispatcher's state handed to the
		// ledger entry, not a stamp of the crossing.
		s.req.Hop().NoteSched(s.th.schedBurst.Load(),
			s.th.schedPoolWait.Load(), s.th.schedCPUWait.Load())
	}
	// Reply commit: service ends here and so does the serve span, before
	// the caller resumes.
	s.req.rec.Stamp(cpu.PhaseServed, "", 0)
	if reply.batch != nil {
		return rpcOutcome{batch: reply.batch, vt: s.th.vt.Load()}
	}
	return rpcOutcome{m: reply, vt: s.th.vt.Load()}
}

// receiverASID reports the address space holding the receive right.
func (p *Port) receiverASID() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.recvTask == nil {
		return 0
	}
	return p.recvTask.asid
}

// Handler processes one RPC request and returns the reply.  It runs on
// the caller's goroutine, under a server slot's identity.  The request is
// valid until its reply: its header lives in the slot, which the slot's
// next call overwrites, so a handler keeps nothing of it past the reply
// but what it copied out — its record (Record, Hop) or the bytes it
// points to, which stay the caller's.  A handler may return the request
// itself; the kernel copies it then.  Any other reply goes to the caller
// as it is, so a handler must not change a reply it has returned.  Every
// handler in this tree has been checked against this contract: none
// keeps its request past the reply.
type Handler func(*Message) *Message

// Serve makes th the one slot of a server on the named receive right:
// each call to the port runs h under th's identity.  It parks th's own
// goroutine until the port or the thread dies and returns ErrDeadPort or
// ErrAborted; a port already served fails with ErrRightExists.  This is
// the "optimized and simplified ... server loop" of the rework, reduced
// to a registration.
func (th *Thread) Serve(recvName PortName, h Handler) error {
	port, _, err := th.task.portFor(recvName, RightReceive)
	if err != nil {
		return err
	}
	if port.receiverTask() != th.task {
		return ErrNotReceiver
	}
	p := &ServerPool{task: th.task, server: th,
		idle:    []*slot{{th: th, frame: "serve:" + th.task.name}},
		handler: func(_ PortName, m *Message) *Message { return h(m) }}
	// Armed before it registers, so the port's death cannot slip by.
	if !th.own.arm(th, true) {
		return ErrAborted
	}
	if err := port.serve(p, recvName); err != nil {
		th.own.wake(granted)
		th.own.park(th, nil, time.Time{}) // withdraw the wait
		return err
	}
	why := th.own.park(th, nil, time.Time{})
	p.mu.Lock()
	p.server = nil
	p.mu.Unlock()
	return why.err()
}

// cloneForDelivery copies a header the kernel cannot deliver as it is
// (see ServerPool.reply): the copy has its own rights list, so renaming them
// leaves the original's names alone, and shares the body bytes, because
// the physical copy is charged in the cost model and the simulation
// treats delivered bodies as immutable.  A nil message copies as an empty
// one.
func cloneForDelivery(m *Message) *Message {
	c := new(Message)
	if m != nil {
		*c = *m
		c.Rights = slices.Clone(m.Rights)
	}
	return c
}

// loadRights resolves the in-transit rights of a message against the
// sending task's space, charging the per-right transfer path.
func (t *Task) loadRights(m *Message) error {
	k := t.kernel
	for i := range m.Rights {
		pr := &m.Rights[i]
		k.CPU.Exec(k.paths.rightXfer)
		e, err := t.ports.lookup(pr.Name, RightNone)
		if err != nil {
			return err
		}
		switch pr.Disposition {
		case DispCopySend:
			if e.typ != RightSend && e.typ != RightReceive {
				return ErrInvalidRight
			}
			pr.port, pr.typ = e.port, RightSend
		case DispMakeSend:
			if e.typ != RightReceive {
				return ErrInvalidRight
			}
			pr.port, pr.typ = e.port, RightSend
		case DispMakeSendOnce:
			if e.typ != RightReceive {
				return ErrInvalidRight
			}
			pr.port, pr.typ = e.port, RightSendOnce
		case DispMoveReceive:
			if e.typ != RightReceive {
				return ErrInvalidRight
			}
			t.ports.remove(pr.Name)
			pr.port, pr.typ = e.port, RightReceive
		default:
			return ErrInvalidRight
		}
	}
	return nil
}

// acceptRights installs carried rights into the receiving task's space and
// rewrites the names in the message to receiver-local names.
func (t *Task) acceptRights(m *Message) {
	k := t.kernel
	for i := range m.Rights {
		pr := &m.Rights[i]
		if pr.port == nil {
			continue
		}
		k.CPU.Exec(k.paths.rightXfer)
		if pr.typ == RightReceive {
			pr.port.setReceiverTask(t)
		}
		n, err := t.ports.insert(pr.port, pr.typ)
		if err != nil {
			pr.Name = NullName
			continue
		}
		pr.Name = n
	}
}
