package mach

import (
	"slices"
	"time"

	"repro/internal/cpu"
	"repro/internal/kflight"
	"repro/internal/klat"
	"repro/internal/kstat"
)

// This file implements the reworked RPC path — the paper's central IPC
// change.  Relative to classic mach_msg the rework:
//
//   - removed reply ports (the reply path is implicit in the rendezvous)
//   - made message delivery and reply synchronous
//   - blocks threads waiting to send or receive
//   - removed message queuing
//   - passes data too large for the inline body by reference, copying it
//     once from sender to receiver
//   - replaced virtual copy with physical copy
//   - optimized and simplified the user-level stubs and server loops
//
// The result in the paper was a 2x–10x message-passing improvement over
// mach_msg depending on size; BenchmarkFigureIPCSweep reproduces the sweep.

// userBufAddr returns the synthetic address of a task's message buffer,
// distinct per address space so copies charge realistic D-cache traffic.
func userBufAddr(asid uint64) uint64 {
	return 0x8000_0000 + asid*0x0100_0000
}

// Responder completes one received RPC.  It belongs to the server thread
// that received the request: valid until the reply, and filled in again
// by the thread's next receive.  A receive loop must therefore not keep a
// Responder past the thread's next receive — a reply deferred that long
// would answer the newer request.
type Responder struct {
	ex   *rpcExchange
	port *Port
	srv  *Thread
	done bool
	// release ends the server burst the scheduler placed in RPCReceive;
	// Reply runs it once the reply is delivered (nil on single-CPU
	// kernels).  Carrying it here is what lets Serve, ServePool and every
	// hand-rolled receive loop get scheduled without changing: the
	// receive-handle-reply window is exactly one dispatched burst.
	release func()
	// carrier is the header ReplyV sends its sub-replies in.  It stays
	// with the server: the caller receives the sub-replies alone.
	carrier Message
	// busy is the occupancy gauge of the pool whose worker received the
	// request (nil outside a pool).  It falls at the reply commit, with
	// the serve span, or wherever the exchange resolves without one —
	// never after the caller has its reply.
	busy *kstat.Gauge
}

// CallOpts parameterizes one Call.  The zero value means "plain
// synchronous call, wait forever".  The struct
// leaves room for future per-call policy (retry, priority inheritance)
// without growing another method per knob.
type CallOpts struct {
	// Timeout bounds the call end to end; 0 means no deadline.  The
	// deadline is wired into the rendezvous and reply waits directly:
	// expiry during rendezvous means the exchange was never handed over,
	// and expiry while the server holds the exchange abandons it — a
	// later Reply finds the abandoned state and discards the reply
	// instead of resurrecting the call.
	Timeout time.Duration

	// Parent names the request this call is made for — the message the
	// calling handler is serving — so the call's hop joins that request's
	// latency ledger as a child.  It overrides the thread's ActFor; with
	// neither, the call is a root.
	Parent *Message
}

// Call performs a synchronous remote procedure call: it blocks until a
// server thread is waiting in RPCReceive on the destination port, hands
// the request over with a single physical copy, and blocks until the reply
// arrives.  There is no reply port and no queuing.  Call and CallV are
// the only client entry points; CallV is the vectored one.
//
// The request stays the caller's: the kernel delivers a copy of its
// header and writes nothing into it, so one message can be sent again.
// The reply is the one the handler built, and the caller's to keep.
//
// Call runs the crossing inside the call's record: one record opened at
// entry, stamped on the way (send done, pickup, reply commit) and closed
// at return, which every attached plane consumes — the stat families, the
// flight ring, the profile frame, the trace span and the latency hop.  The
// record rides to the server in the delivered header.  Its trace parent
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

// rpcCall arms the optional deadline and runs the shared client path
// inside the call's record (see Call).
func (th *Thread) rpcCall(dest PortName, req *Message, opts CallOpts) rpcOutcome {
	var deadline <-chan time.Time
	if opts.Timeout > 0 {
		timer := time.NewTimer(opts.Timeout)
		defer timer.Stop()
		deadline = timer.C
	}
	ps := th.task.kernel.CPU.Planes()
	if !ps.Wants(cpu.EvRPC) {
		return th.rpcCallRaw(dest, req, nil, deadline)
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
	out := th.rpcCallRaw(dest, req, rec, deadline)
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

// exchange takes the thread's idle exchange for a call, or makes one: at
// the thread's first call, after an abandoned call, and for a call made
// while another goroutine's call through the same thread holds it.
func (th *Thread) exchange() *rpcExchange {
	if ex := th.ex.Swap(nil); ex != nil {
		return ex
	}
	ex := &rpcExchange{reply: make(chan rpcOutcome, 1), abort: th.abort, caller: th, gone: make(chan struct{})}
	ex.waits[0].kind = kflight.WaitRendezvous
	ex.waits[1].kind = kflight.WaitReply
	return ex
}

// park returns ex to the thread for its next call.  Legal only where the
// call holds ex alone: it was never handed over (the rendezvous failed),
// or its outcome has been received — the replier's send on ex.reply was
// its last access, and no port, forwarder or server holds it.  An
// abandoned exchange is never parked.
func (th *Thread) park(ex *rpcExchange) {
	ex.state.Store(exPending)
	th.ex.Store(ex)
}

// rpcCallRaw is the shared client path; rec is the call's record, nil
// when nothing observes calls.  A nil deadline channel never fires.
func (th *Thread) rpcCallRaw(dest PortName, req *Message, rec *cpu.Span, deadline <-chan time.Time) rpcOutcome {
	k := th.task.kernel
	if err := req.sendable(); err != nil {
		return rpcOutcome{err: err}
	}
	// The send path up to the rendezvous is one scheduled burst; the
	// resume after the reply is another, dispatched separately — that
	// resume is where a migration can happen and be charged.  Both
	// releases funnel through the deferred call, so error returns always
	// end the current burst.  All of this is nil/no-op on single-CPU.
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

	// The request header crosses by value, in the thread's exchange, with
	// the call's record.  Carried rights are resolved and renamed in the
	// delivered copy's own list, so the caller's keeps its names.
	ex := th.exchange()
	ex.request = *req
	ex.request.rec = rec
	if len(req.Rights) > 0 {
		ex.request.Rights = slices.Clone(req.Rights)
		if err := th.task.loadRights(&ex.request); err != nil {
			th.park(ex)
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

	ex.waits[0].aim(port, uint32(req.ID))
	ex.waits[1].aim(port, uint32(req.ID))

	// The client blocks for the rendezvous: its burst ends here.  Both
	// blocking points register with the flight recorder's wait-for graph;
	// the deferred clear covers every return path.
	release()
	defer th.clearWait()

	// Send done: the send burst is fully charged; cycles from here to a
	// server thread's pickup are the call's queue-wait.
	rec.Stamp(cpu.PhaseSent, "", 0)

	th.wait.Store(&ex.waits[0])
	select {
	case port.rpc <- ex:
	case <-port.rpcClosed():
		th.park(ex)
		return rpcOutcome{err: ErrDeadPort}
	case <-th.abort:
		th.park(ex)
		return rpcOutcome{err: ErrAborted}
	case <-deadline:
		// The exchange was never handed over; nothing to abandon.
		th.park(ex)
		return rpcOutcome{err: ErrTimeout}
	}
	if entry.typ == RightSendOnce {
		th.task.ports.consumeSendOnce(dest)
	}

	th.wait.Store(&ex.waits[1])
	var out rpcOutcome
	select {
	case out = <-ex.reply:
	case <-th.abort:
		ex.abandon()
		return rpcOutcome{err: ErrAborted}
	case <-deadline:
		if ex.abandon() {
			return rpcOutcome{err: ErrTimeout}
		}
		// The reply committed before the deadline took effect; the
		// buffered outcome is already in flight, so take it.
		out = <-ex.reply
	}
	th.clearWait()
	// The outcome is in: nobody else holds the exchange any more.
	th.park(ex)
	if out.err != nil {
		return out
	}

	// Client resumes: switch back to its space and return to user mode.
	// A fresh dispatch — the thread prefers its last engine but may be
	// stolen to an idle one, paying the migration charge there.  The
	// resume cannot start before the reply existed in modeled time: the
	// server's virtual completion time rides in the outcome, and waiting
	// for it here is what couples client progress to server occupancy.
	k.schedReady(th, out.vt)
	rel = k.schedRun(th)
	k.CPU.SwitchAddressSpace(th.task.asid)
	k.CPU.Exec(k.paths.schedule)
	k.rti()
	k.CPU.Instr(20) // stub epilogue
	return out
}

// RPCReceive blocks the calling server thread until an RPC arrives on the
// port named by recvName (which must denote a receive right in the
// thread's task).  It returns the request and a Responder that must be
// used exactly once.  Both are valid until the reply: the request header
// is the caller's exchange, which the caller's next call overwrites, and
// the Responder is the thread's own, which its next receive fills in.  A
// loop that defers a reply must send it before the thread receives again;
// read anything needed from the request before replying.
func (th *Thread) RPCReceive(recvName PortName) (*Message, *Responder, error) {
	k := th.task.kernel
	port, _, err := th.task.portFor(recvName, RightReceive)
	if err != nil {
		return nil, nil, err
	}
	if port.receiverTask() != th.task {
		return nil, nil, ErrNotReceiver
	}

	// A parked server thread registers as a receive wait; receive-side
	// kinds never form dependency edges (they are capacity, not demand),
	// but the dump lists them so "who is idle" is visible postmortem.
	th.wait.Store(&port.recvWait)
	var ex *rpcExchange
	select {
	case ex = <-port.rpc:
	case <-port.rpcClosed():
		th.clearWait()
		return nil, nil, ErrDeadPort
	case <-th.abort:
		th.clearWait()
		return nil, nil, ErrAborted
	}
	th.clearWait()
	// Pickup: a server thread has the exchange; queue-wait ends, the
	// service segment (receive path, handler, reply) begins.
	ex.taken(th)

	// The server side of the hand-off: load the server's address space,
	// run the receive return path and the simplified server stub.  The
	// burst dispatched here covers receive, handler and reply — its
	// release travels in the Responder, and it cannot start before the
	// client's send burst completed in modeled time.  Pool workers
	// serialize on the pool's virtual capacity, not on their own clock
	// (which worker won the rendezvous is a wall-clock accident).
	var rel func()
	if th.poolVT != nil {
		rel = k.schedRunPool(th, th.poolVT, ex.caller.vt.Load())
	} else {
		k.schedReady(th, ex.caller.vt.Load())
		rel = k.schedRun(th)
	}
	return &ex.request, th.accept(ex, port, rel), nil
}

// accept runs the server side of a hand-off inside the burst rel ends:
// load the server's address space, run the receive return path and the
// simplified server stub, install carried rights and sequence the
// request.  It returns the thread's Responder, set up for ex.  Shared by
// RPCReceive and receiveSet.
func (th *Thread) accept(ex *rpcExchange, port *Port, rel func()) *Responder {
	k := th.task.kernel
	k.CPU.SwitchAddressSpace(th.task.asid)
	k.CPU.Exec(k.paths.rpcReceive)
	k.CPU.Exec(k.paths.rpcStubS)
	k.touchKData(port.id, 96)
	if len(ex.request.Rights) > 0 {
		th.task.acceptRights(&ex.request)
	}
	port.mu.Lock()
	port.seqno++
	ex.request.Seq = port.seqno
	port.mu.Unlock()
	k.rti()
	th.resp = Responder{ex: ex, port: port, srv: th, release: rel}
	return &th.resp
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

// Reply completes the RPC, copying the reply body back with a single
// physical copy and resuming the blocked client.  A reply the server
// cannot deliver (oversized body, bad rights) still resolves the exchange:
// the blocked client unblocks with ErrReplyFailed and the server gets the
// underlying error, so neither side hangs on the other's mistake.
//
// A vectored request must be answered with ReplyV; Reply on a carrier
// fails the exchange (the client unblocks with ErrReplyFailed) and
// returns ErrBatchMismatch.
func (r *Responder) Reply(reply *Message) error {
	// A used Responder's exchange may already be serving the caller's
	// next call: check before reading it.
	if r.done {
		return ErrNoReplyExpected
	}
	if len(r.ex.request.batch) > 0 {
		return r.mismatch()
	}
	return r.deliver(reply)
}

// ReplyV completes a vectored RPC: one crossing carries every sub-reply
// back, in request order.  len(replies) must equal the request batch
// width (nil slots become empty replies); ReplyV on a plain request is a
// batch mismatch, except for the degenerate single-reply case.  The
// caller receives a slice of its own, so replies may be reused.
func (r *Responder) ReplyV(replies []*Message) error {
	if r.done {
		return ErrNoReplyExpected
	}
	n := len(r.ex.request.batch)
	if n == 0 && len(replies) == 1 {
		return r.deliver(replies[0])
	}
	if n == 0 || len(replies) != n {
		return r.mismatch()
	}
	subs := make([]*Message, n)
	for i, sub := range replies {
		if sub == nil {
			sub = &Message{}
		}
		subs[i] = sub
	}
	r.carrier = Message{ID: subs[0].ID, batch: subs}
	return r.deliver(&r.carrier)
}

// mismatch fails an exchange answered with the wrong reply shape: the
// client unblocks with ErrReplyFailed, the server gets ErrBatchMismatch.
func (r *Responder) mismatch() error {
	r.finish()
	r.ex.fail(ErrReplyFailed)
	return ErrBatchMismatch
}

// idle lowers the pool's busy gauge, once.
func (r *Responder) idle() {
	r.busy.Dec()
	r.busy = nil
}

// finish consumes the responder and ends the server burst.
func (r *Responder) finish() {
	r.done = true
	r.idle()
	if r.release != nil {
		r.release()
		r.release = nil
	}
}

// deliver is the shared reply path for plain replies and reply carriers.
func (r *Responder) deliver(reply *Message) error {
	defer r.finish()
	k := r.srv.task.kernel
	// The reply the handler built is what the caller gets, except where
	// the kernel cannot hand it over as it is: no reply at all (the caller
	// gets an empty one), the request header echoed back (it lives in the
	// caller's exchange, which the caller's next call overwrites), and a
	// reply carrying rights (the kernel renames them into the caller's
	// space, and the handler's own list keeps the server's names).
	if reply == nil || reply == &r.ex.request || len(reply.Rights) > 0 {
		reply = cloneForDelivery(reply)
	}
	if err := reply.sendable(); err != nil {
		r.idle()
		r.ex.fail(ErrReplyFailed)
		return err
	}
	k.trap()
	k.CPU.Exec(k.paths.rpcReply)
	callerAS := r.ex.caller.task.asid
	k.chargeTransfer(reply, r.srv.task.asid, callerAS)
	if len(reply.Rights) > 0 {
		if err := r.srv.task.loadRights(reply); err != nil {
			r.idle()
			r.ex.fail(ErrReplyFailed)
			return err
		}
	}
	k.CPU.Exec(k.paths.schedule)
	if r.ex.commit() {
		// Install carried rights only for a caller that is still
		// waiting; an abandoned caller's name space must not change
		// under it, and the loaded rights die with the reply.
		if len(reply.Rights) > 0 {
			r.ex.caller.task.acceptRights(reply)
		}
		// End the server burst before waking the client, so the outcome
		// carries the handler's virtual completion time and the client's
		// resume starts after it in modeled time.
		if r.release != nil {
			r.release()
			r.release = nil
			// The burst just settled: attach its modeled schedule to the
			// hop's ledger.  On a multi-engine run the wall-clock segments
			// measure global work during the hop, not this request's own
			// waiting, so these virtual-cycle figures — burst length, pool
			// wait, engine wait — are what E-TAIL's queue attribution
			// reasons over.  They are the dispatcher's state handed to the
			// ledger entry, not a stamp of the crossing.
			r.ex.request.Hop().NoteSched(r.srv.schedBurst.Load(),
				r.srv.schedPoolWait.Load(), r.srv.schedCPUWait.Load())
		}
		// Reply commit: the reply is committed and the burst released —
		// service ends here and so do the serve span and the pool's busy
		// gauge, before the reply wakes the client, so the client's
		// resume can never land inside them whatever the host runs
		// first.  Only the committed branch stamps: an abandoned
		// exchange's call was closed by the client and must not be
		// written further.
		r.ex.request.rec.Stamp(cpu.PhaseServed, "", 0)
		r.idle()
		out := rpcOutcome{m: reply, vt: r.srv.vt.Load()}
		if reply.batch != nil {
			out = rpcOutcome{batch: reply.batch, vt: out.vt}
		}
		// The send is the replier's last access to the exchange: from here
		// the caller may reuse it (Thread.park).
		r.ex.reply <- out
	}
	return nil
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

// Handler processes one RPC request and returns the reply.  The request
// is valid until its reply: its header lives in the caller's exchange,
// which the caller's next call overwrites, so a handler keeps nothing of
// it past the reply but what it copied out — its record (Record, Hop) or
// the bytes it points to, which stay the caller's.  A handler may return
// the request itself; the kernel copies it then.  Any other reply goes to
// the caller as it is, so a handler must not change a reply it has
// returned.  Every handler in this tree has been checked against this
// contract: none keeps its request past the reply.
type Handler func(*Message) *Message

// serveLoop is what a server loop owns for its whole life: its thread,
// the "serve:<task>[/<worker>]" frame its spans and profile contexts
// carry, and the slots a vectored request's sub-replies are gathered in.
// Thread.Serve and ServerPool.worker are both this plus a receive.
type serveLoop struct {
	th      *Thread
	frame   string
	replies []*Message
}

// dispatch runs h on one request received on port pn and delivers the
// reply, inside the serve span every served RPC gets: parented to the
// client's call carried in the message, so the causal tree crosses tasks,
// carrying the server and operation profile frames, and closed by the
// call's reply commit (it covers handler AND reply delivery — the
// server-occupancy segment internal/bench calibrates its concurrency
// model from).  A reply that is never committed closes it on return.
// Vectored carriers are demultiplexed here — each sub-request handled in
// order, the sub-replies sent back in one crossing — so handlers never
// see one.
//
// The latency ledger needs nothing bound here: the request record rides
// in the message the handler is given, and a handler that calls onward
// names it from there.  A carrier's subs each get a sub-hop — one service
// window — in a header copy of their own: the sub-messages are still the
// client's.  ps is the engine's plane set, loaded once by the loop for
// this request.
func (l *serveLoop) dispatch(ps *cpu.Planes, resp *Responder, req *Message, pn PortName, h func(PortName, *Message) *Message) error {
	defer ps.Open(cpu.Event{Type: cpu.EvRPCServe, Subsystem: "mach.rpc", Name: l.frame,
		Arg: uint64(req.ID), Req: req.rec}, req.rec).End()
	if subs := req.batch; subs != nil {
		if cap(l.replies) < len(subs) {
			l.replies = make([]*Message, len(subs))
		}
		replies := l.replies[:len(subs)]
		var hdrs []Message
		if req.Hop() != nil {
			hdrs = make([]Message, len(subs))
		}
		for i, sub := range subs {
			sh := req.Hop().BeginSub(uint32(sub.ID))
			if sh != nil {
				hdrs[i] = *sub
				hdrs[i].rec = sh
				sub = &hdrs[i]
			}
			replies[i] = h(pn, sub)
			klat.Of(sh).EndSub()
		}
		err := resp.ReplyV(replies)
		clear(replies) // the caller got its own slice; keep nothing alive
		return err
	}
	return resp.Reply(h(pn, req))
}

// Serve runs a server loop on the named receive right: each iteration
// blocks in RPCReceive, applies h, and replies.  It exits when the thread
// or port dies.  This is the "optimized and simplified ... server loop" of
// the rework.
func (th *Thread) Serve(recvName PortName, h Handler) error {
	l := serveLoop{th: th, frame: "serve:" + th.task.name}
	hp := func(_ PortName, m *Message) *Message { return h(m) }
	for {
		req, resp, err := th.RPCReceive(recvName)
		if err != nil {
			return err
		}
		if err := l.dispatch(th.task.kernel.CPU.Planes(), resp, req, recvName, hp); err != nil {
			return err
		}
	}
}

// cloneForDelivery copies a header the kernel cannot deliver as it is
// (see deliver): the copy has its own rights list, so renaming them
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
