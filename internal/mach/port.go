package mach

import (
	"sync"
	"sync/atomic"

	"repro/internal/kflight"
)

// PortName is a task-local name for a port right.  As in Mach, names are
// internal capabilities: they have meaning only within one task's port
// name space, and the kernel provides no way to turn a name into a global
// identity — that is the name service's job.
type PortName uint32

// NullName is the distinguished invalid name.
const NullName PortName = 0

// RightType enumerates the kinds of port rights a name may denote.
type RightType uint8

const (
	RightNone RightType = iota
	// RightReceive is the unique receive capability for a port.
	RightReceive
	// RightSend allows sending messages or RPCs to the port.
	RightSend
	// RightSendOnce allows a single send, then the right dies.
	RightSendOnce
)

func (r RightType) String() string {
	switch r {
	case RightReceive:
		return "receive"
	case RightSend:
		return "send"
	case RightSendOnce:
		return "send-once"
	default:
		return "none"
	}
}

// Port is a kernel message queue / RPC rendezvous object.  In the queued
// (classic mach_msg) mode, messages are enqueued up to a limit; in RPC mode
// the port is a synchronous meeting point between a sender and a blocked
// server thread, with no queuing at all — one of the paper's key changes.
type Port struct {
	id uint64

	mu       sync.Mutex
	queue    []*Message
	limit    int
	dead     bool
	recvTask *Task // task holding the receive right (nil if dead)

	notEmpty *sync.Cond // receivers wait here (queued IPC)
	notFull  *sync.Cond // senders wait here (queued IPC)

	// rpc is the synchronous rendezvous channel for the reworked RPC
	// path: unbuffered, so a sender blocks until a server thread is
	// actually waiting in RPCReceive — "blocked threads waiting to send
	// or receive messages ... removed message queuing".
	rpc chan *rpcExchange

	// seqno counts delivered messages, for tests and debugging.
	seqno uint64

	// closedCh is closed when the port dies (lazily created for the
	// port-set forwarders).
	closedCh chan struct{}

	// recvWait is the wait record of a thread parked in RPCReceive here,
	// built with the port and never written again: WaitEdges reads it
	// from any goroutine.
	recvWait flightWait
}

// rpcOutcome is what the client's reply wait resolves to: a delivered
// reply message — or, for a vectored reply, its sub-replies — or a
// distinguishable failure (dead port, failed reply delivery).
type rpcOutcome struct {
	m     *Message
	batch []*Message
	err   error
	vt    uint64 // server's virtual completion time (0 on single-CPU)
}

// Exchange states.  Exactly one party moves a call's exchange out of
// exPending: the replier (server Reply, port teardown) via commit/fail, or
// the caller via abandon on timeout or thread abort.  The CAS settles the
// race; only the winner of the pending state may touch the outcome
// channel, so the buffered send below can never block or double-fire.
// Thread.park returns a replied exchange to exPending for the thread's
// next call.
const (
	exPending int32 = iota
	exReplied
	exAbandoned
)

// rpcExchange carries a thread's synchronous RPCs, one at a time.  A
// thread has at most one call outstanding, so it makes its exchange once
// and every call reuses it (Thread.exchange, Thread.park): the crossing
// builds no kernel object of its own.  An exchange a call abandoned is
// never reused — a server or a port-set forwarder may still hold it — so
// the thread's next call makes a fresh one.
type rpcExchange struct {
	// request is the delivered request header, copied in by value at the
	// call: the handler's *Message points here, which is why a request
	// is valid until its reply and no longer.
	request Message
	reply   chan rpcOutcome // buffered(1); sent at most once per call, by the CAS winner
	abort   chan struct{}
	caller  *Thread
	state   atomic.Int32

	// gone is closed when the caller abandons the exchange (timeout or
	// thread abort).  Intermediaries holding the exchange without a
	// receiver — the port-set forwarders — select on it so an abandoned
	// caller never leaves them blocked trying to deliver a request
	// nobody will answer.
	gone chan struct{}

	// waits are the current call's wait-for registrations, rendezvous
	// then reply; the server thread that takes the exchange moves the
	// caller from the first to the second (taken) before its handler
	// runs.  Each call aims both at its port and operation (aim) before
	// publishing either.
	waits [2]flightWait
}

// commit claims the right to deliver the outcome.  It returns false when
// the caller already abandoned the exchange (timeout/abort), in which case
// the reply must be discarded.
func (ex *rpcExchange) commit() bool {
	return ex.state.CompareAndSwap(exPending, exReplied)
}

// fail resolves the exchange with an error outcome if it is still pending.
func (ex *rpcExchange) fail(err error) {
	if ex.commit() {
		ex.reply <- rpcOutcome{err: err}
	}
}

// abandon marks the caller as gone.  It returns false when a reply already
// committed — the buffered outcome is then in flight and must be taken.
func (ex *rpcExchange) abandon() bool {
	if ex.state.CompareAndSwap(exPending, exAbandoned) {
		close(ex.gone)
		return true
	}
	return false
}

// DefaultQueueLimit is the default depth of a port's message queue in the
// classic queued-IPC mode.
const DefaultQueueLimit = 5

func newPort(id uint64) *Port {
	p := &Port{id: id, limit: DefaultQueueLimit, rpc: make(chan *rpcExchange)}
	p.recvWait.kind = kflight.WaitReceive
	p.recvWait.port.Store(p)
	p.notEmpty = sync.NewCond(&p.mu)
	p.notFull = sync.NewCond(&p.mu)
	return p
}

// ID returns the kernel-internal identity of the port (not visible to
// simulated user code, which only ever holds task-local names).
func (p *Port) ID() uint64 { return p.id }

// SetQueueLimit adjusts the queued-IPC depth of the port.
func (p *Port) SetQueueLimit(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n < 1 {
		n = 1
	}
	p.limit = n
	p.notFull.Broadcast()
}

// destroy marks the port dead and wakes all waiters.
func (p *Port) destroy() {
	p.mu.Lock()
	p.dead = true
	p.queue = nil
	p.recvTask = nil
	p.notEmpty.Broadcast()
	p.notFull.Broadcast()
	if p.closedCh != nil {
		select {
		case <-p.closedCh:
		default:
			close(p.closedCh)
		}
	}
	p.mu.Unlock()
	// Drain any RPC senders blocked in rendezvous.
	for {
		select {
		case ex := <-p.rpc:
			ex.fail(ErrDeadPort)
		default:
			return
		}
	}
}

// receiverTask returns the task holding the receive right.
func (p *Port) receiverTask() *Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recvTask
}

// setReceiverTask moves the receive right's ownership.
func (p *Port) setReceiverTask(t *Task) {
	p.mu.Lock()
	p.recvTask = t
	p.mu.Unlock()
}

// Dead reports whether the port has been destroyed.
func (p *Port) Dead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dead
}

// QueueLen reports the number of queued messages (classic IPC only).
func (p *Port) QueueLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// rightEntry is one slot in a task's port name space.
type rightEntry struct {
	port *Port
	typ  RightType
	refs int // user references on send rights
}

// space is a task's port name space: the translation table from task-local
// names to kernel port rights.  Port rights have meaning only within the
// context of a port space.
type space struct {
	mu     sync.Mutex
	next   PortName
	rights map[PortName]*rightEntry
	byPort map[*Port]PortName // send-right coalescing, as in Mach
}

func newSpace() *space {
	return &space{next: 1, rights: make(map[PortName]*rightEntry), byPort: make(map[*Port]PortName)}
}

// insert adds a right, coalescing send rights onto an existing name for the
// same port as Mach does.
func (s *space) insert(p *Port, typ RightType) (PortName, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if typ == RightSend {
		if n, ok := s.byPort[p]; ok {
			e := s.rights[n]
			if e.typ == RightSend || e.typ == RightReceive {
				e.refs++
				return n, nil
			}
		}
	}
	if s.next == 0 {
		return NullName, ErrNoSpace
	}
	n := s.next
	s.next++
	s.rights[n] = &rightEntry{port: p, typ: typ, refs: 1}
	if typ == RightSend || typ == RightReceive {
		s.byPort[p] = n
	}
	return n, nil
}

// lookup resolves a name, requiring the right to permit sending or
// receiving per want.
func (s *space) lookup(n PortName, want RightType) (*rightEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.rights[n]
	if !ok {
		return nil, ErrInvalidName
	}
	switch want {
	case RightReceive:
		if e.typ != RightReceive {
			return nil, ErrInvalidRight
		}
	case RightSend:
		// A receive right also permits sending (Mach allows make-send
		// implicitly via the name in our simplified model).
		if e.typ != RightSend && e.typ != RightSendOnce && e.typ != RightReceive {
			return nil, ErrInvalidRight
		}
	}
	return e, nil
}

// consumeSendOnce removes a send-once right after its single use.
func (s *space) consumeSendOnce(n PortName) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.rights[n]; ok && e.typ == RightSendOnce {
		delete(s.rights, n)
	}
}

// remove releases one reference on a name, deleting the entry when the
// count reaches zero.  Removing a receive right destroys the port.
func (s *space) remove(n PortName) (*Port, RightType, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.rights[n]
	if !ok {
		return nil, RightNone, ErrInvalidName
	}
	e.refs--
	if e.refs > 0 {
		return e.port, e.typ, nil
	}
	delete(s.rights, n)
	if s.byPort[e.port] == n {
		delete(s.byPort, e.port)
	}
	return e.port, e.typ, nil
}

// names returns a snapshot of all names in the space.
func (s *space) names() []PortName {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PortName, 0, len(s.rights))
	for n := range s.rights {
		out = append(out, n)
	}
	return out
}

func (s *space) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rights)
}
