package mach

import (
	"fmt"
	"sync"

	"repro/internal/kflight"
	"repro/internal/kstat"
)

// Port sets, inherited from Mach 3.0: a receive right can be moved into a
// port set, and the server threads receiving on the set service all
// member ports — the mechanism behind designs like the file server's
// port-per-open-file without a thread per port.  A set is served one
// way: by a ServeSetPool of one or more threads.

// PortSet groups receive rights for combined receive.
type PortSet struct {
	id   uint64
	task *Task

	mu      sync.Mutex
	members map[*Port]PortName
	dead    bool

	// deadCh is closed by Destroy so forwarders and receivers blocked on
	// the set's channel unwind instead of hanging with an exchange (or a
	// caller) stranded.
	deadCh chan struct{}

	// ch receives exchanges forwarded from member ports.
	ch chan setDelivery

	// pendFam is the kstat queue-depth gauge: exchanges a forwarder has
	// taken from a member port's rendezvous but no server thread has
	// received yet.
	pendFam string

	// recvWait is the wait record of a thread parked in the set's
	// receive, never written after the set is built.
	recvWait flightWait
}

type setDelivery struct {
	ex   *rpcExchange
	port *Port
	name PortName // receiver-side name of the member port
}

// AllocatePortSet creates an empty port set in the task.
func (t *Task) AllocatePortSet() (*PortSet, error) {
	k := t.kernel
	k.trap()
	k.CPU.Exec(k.paths.portLookup)
	defer k.rti()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead {
		return nil, ErrInvalidTask
	}
	id := k.allocPortID()
	ps := &PortSet{
		id:      id,
		task:    t,
		members: make(map[*Port]PortName),
		deadCh:  make(chan struct{}),
		ch:      make(chan setDelivery),
		pendFam: fmt.Sprintf("mach.portset.%s/%d.pending", t.name, id),
	}
	ps.recvWait.kind, ps.recvWait.set = kflight.WaitSetReceive, ps
	return ps, nil
}

// AddMember moves the named receive right into the set.  A forwarder
// relays the port's synchronous rendezvous into the set's channel,
// preserving the no-queuing property: a sender still blocks until a
// server thread actually takes the exchange from the set.
func (ps *PortSet) AddMember(n PortName) error {
	t := ps.task
	k := t.kernel
	k.trap()
	k.CPU.Exec(k.paths.portLookup)
	defer k.rti()
	e, err := t.ports.lookup(n, RightReceive)
	if err != nil {
		return err
	}
	port := e.port
	if port.receiverTask() != t {
		return ErrNotReceiver
	}
	ps.mu.Lock()
	if ps.dead {
		ps.mu.Unlock()
		return ErrDeadPort
	}
	if _, ok := ps.members[port]; ok {
		ps.mu.Unlock()
		return ErrRightExists
	}
	ps.members[port] = n
	ps.mu.Unlock()
	go ps.forward(port, n)
	return nil
}

// forward relays one member port's exchanges into the set until the port
// or the set dies.
func (ps *PortSet) forward(port *Port, name PortName) {
	for {
		ps.mu.Lock()
		_, member := ps.members[port]
		dead := ps.dead
		ps.mu.Unlock()
		if !member || dead || port.Dead() {
			return
		}
		select {
		case ex, ok := <-portRecvChan(port):
			if !ok {
				return
			}
			ps.mu.Lock()
			_, still := ps.members[port]
			setDead := ps.dead
			ps.mu.Unlock()
			if !still || setDead {
				// The port left the set with an exchange in hand;
				// fail the caller rather than losing it.
				ex.fail(ErrDeadPort)
				return
			}
			pending := kstat.For(ps.task.kernel.CPU).Gauge(ps.pendFam)
			pending.Inc()
			select {
			case ps.ch <- setDelivery{ex: ex, port: port, name: name}:
				// The receiver decrements in receiveSet.
			case <-ex.abort:
				// Caller thread died; the exchange is already (or about
				// to be) abandoned on the caller side.
				pending.Dec()
			case <-ex.gone:
				// Caller abandoned the exchange (deadline expired while
				// every server thread was busy elsewhere).  Drop it: a
				// committed delivery now would be discarded anyway, and
				// blocking here would wedge this member port forever.
				pending.Dec()
			case <-ps.deadCh:
				// The set died with the exchange in hand: fail the
				// caller instead of stranding it in its reply wait.
				ex.fail(ErrDeadPort)
				pending.Dec()
				return
			}
		case <-port.rpcClosed():
			return
		case <-ps.deadCh:
			return
		}
	}
}

// portRecvChan and rpcClosed expose the port's rendezvous to the
// forwarder.
func portRecvChan(p *Port) <-chan *rpcExchange { return p.rpc }

func (p *Port) rpcClosed() <-chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closedCh == nil {
		p.closedCh = make(chan struct{})
		if p.dead {
			close(p.closedCh)
		}
	}
	return p.closedCh
}

// RemoveMember takes a port out of the set; it becomes directly
// receivable again.
func (ps *PortSet) RemoveMember(n PortName) error {
	t := ps.task
	e, err := t.ports.lookup(n, RightReceive)
	if err != nil {
		return err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if _, ok := ps.members[e.port]; !ok {
		return ErrInvalidName
	}
	delete(ps.members, e.port)
	return nil
}

// Members reports the current member count.
func (ps *PortSet) Members() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.members)
}

// Destroy dissolves the set (member ports survive).  Forwarders holding
// undelivered exchanges fail their callers with ErrDeadPort, and server
// threads blocked in receiveSet unblock with the same error.
func (ps *PortSet) Destroy() {
	ps.mu.Lock()
	if !ps.dead {
		ps.dead = true
		close(ps.deadCh)
	}
	ps.members = make(map[*Port]PortName)
	ps.mu.Unlock()
}

// receiveSet is a ServeSetPool worker's receive: it blocks until any
// member port has an RPC, returning the request, the responder, and the
// member's receive-right name so the server can tell which object was
// invoked.
func (th *Thread) receiveSet(ps *PortSet) (*Message, *Responder, PortName, error) {
	if ps.task != th.task {
		return nil, nil, NullName, ErrNotReceiver
	}
	k := th.task.kernel
	th.wait.Store(&ps.recvWait)
	var d setDelivery
	select {
	case d = <-ps.ch:
		kstat.For(k.CPU).Gauge(ps.pendFam).Dec()
	case <-th.abort:
		th.clearWait()
		return nil, nil, NullName, ErrAborted
	case <-ps.deadCh:
		th.clearWait()
		return nil, nil, NullName, ErrDeadPort
	}
	th.clearWait()
	// Pickup for set-served requests (the file server's port-per-open-file
	// pools): queue-wait — including the forwarder relay — ends when a
	// pool thread takes the delivery.
	d.ex.taken(th)
	// One scheduled burst covers receive, handler and reply, as in
	// RPCReceive; the release rides in the Responder.  The burst
	// serializes on the pool's virtual capacity — not on th's own
	// clock, since which worker goroutine won this rendezvous is a
	// wall-clock accident — and cannot start before the client's send
	// burst completed in modeled time.
	rel := k.schedRunPool(th, th.poolVT, d.ex.caller.vt.Load())
	return &d.ex.request, th.accept(d.ex, d.port, rel), d.name, nil
}
