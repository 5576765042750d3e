package mach

import "sync"

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

// Port is a kernel message queue / RPC object.  In the queued (classic
// mach_msg) mode, messages are enqueued up to a limit; in RPC mode the
// port names the passive server that runs its calls, with no queuing at
// all — one of the paper's key changes.
type Port struct {
	id uint64

	mu       sync.Mutex
	queue    []*Message
	limit    int
	dead     bool
	recvTask *Task // task holding the receive right (nil if dead)

	// senders and receivers wait for queue room and for a message
	// (queued IPC).
	senders, receivers waitq

	// seqno counts delivered messages, for tests and debugging.
	seqno uint64

	// The reworked RPC path's dispatch: the pool whose slots run the
	// port's calls (ServePool, Serve), or the port set whose pool does;
	// name is the receive right's name the handler is given.  callers
	// wait while the port has neither.
	pool    *ServerPool
	set     *PortSet
	name    PortName
	callers waitq
}

// DefaultQueueLimit is the default depth of a port's message queue in the
// classic queued-IPC mode.
const DefaultQueueLimit = 5

func newPort(id uint64) *Port {
	return &Port{id: id, limit: DefaultQueueLimit}
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
	p.senders.wake(nil, granted)
}

// destroy marks the port dead and wakes all its waiters as closed:
// queued-IPC waiters, callers waiting for a server or a slot, and a
// thread parked in Serve on it.  The pool registered on the port dies
// with it.
func (p *Port) destroy() {
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	p.dead = true
	p.queue = nil
	p.recvTask = nil
	p.senders.wake(nil, closed)
	p.receivers.wake(nil, closed)
	p.callers.wake(nil, closed)
	pool, set := p.pool, p.set
	p.mu.Unlock()
	if set != nil {
		set.abandon(p)
	}
	pool.retire()
}

// route is where a call to a port finds a free slot.
type route struct {
	pool *ServerPool // nil while nothing serves the port
	name PortName    // the handler's name for the port
	// set is the port set the port belongs to (nil outside one).
	set *PortSet
	// q is the queue a call that found no free slot waits on, mu its
	// owner's mutex.
	q  *waitq
	mu *sync.Mutex
}

// take resolves the port's dispatch for one call by th and takes a free
// slot of its pool.  With none free, or nothing serving the port yet, it
// queues th's wait where the grant will come from — the pool's next free
// slot, the port or its set gaining a server — and returns its parker.
func (p *Port) take(th *Thread) (*slot, route, *parker, error) {
	p.mu.Lock()
	r := route{pool: p.pool, name: p.name, q: &p.callers, mu: &p.mu}
	dead := p.dead
	if ps := p.set; ps != nil {
		p.mu.Unlock()
		ps.mu.Lock()
		r.pool, r.set, r.q, r.mu = ps.pool, ps, &ps.callers, &ps.mu
		dead = ps.dead || p.Dead()
	}
	if r.pool != nil {
		r.mu.Unlock()
		r.q, r.mu = &r.pool.waiters, &r.pool.mu
		r.mu.Lock()
		if s := r.pool.idleSlot(); s != nil {
			r.mu.Unlock()
			return s, r, nil, nil
		}
		dead = r.pool.retired || p.Dead()
	}
	defer r.mu.Unlock()
	pk, err := r.q.enqueue(th, p, dead)
	return nil, r, pk, err
}

// serve registers pool as the port's server under the handler's name n.
func (p *Port) serve(pool *ServerPool, n PortName) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.dead:
		return ErrDeadPort
	case p.pool != nil || p.set != nil:
		return ErrRightExists
	}
	p.pool, p.name = pool, n
	p.callers.wake(nil, granted)
	return nil
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

// consumeSendOnce removes a send-once right after its single use.  It
// reports whether this call removed it: of two calls racing through one
// send-once name, only the one that did may be delivered.
func (s *space) consumeSendOnce(n PortName) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.rights[n]; ok && e.typ == RightSendOnce {
		delete(s.rights, n)
		return true
	}
	return false
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
