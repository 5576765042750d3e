package mach

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/kstat"
)

// Port sets, inherited from Mach 3.0: a receive right can be moved into a
// port set, and the server serving the set serves all member ports — the
// mechanism behind designs like the file server's port-per-open-file
// without a thread per port.  A set is served one way: by a ServeSetPool
// of one or more slots, which every member's callers share.

// PortSet groups receive rights for combined service.
type PortSet struct {
	id   uint64
	task *Task

	mu      sync.Mutex
	members map[*Port]PortName
	dead    bool

	// pool serves the set (ServeSetPool); callers of its members wait
	// while it has none.
	pool    *ServerPool
	callers waitq

	// pending counts the callers waiting for a slot of the set; its
	// kstat family is registered when the first one waits.
	pending atomic.Int64
	publish sync.Once
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
	return &PortSet{id: id, task: t, members: make(map[*Port]PortName)}, nil
}

// waiting moves the set's count of callers waiting for a slot by d.  The
// first wait registers the set's pending family, which reads the count.
func (ps *PortSet) waiting(d int64) {
	ps.publish.Do(func() {
		fam := fmt.Sprintf("mach.portset.%s/%d.pending", ps.task.name, ps.id)
		kstat.For(ps.task.kernel.CPU).GaugeFunc(fam, ps.pending.Load)
	})
	ps.pending.Add(d)
}

// AddMember moves the named receive right into the set: from here its
// callers take the set's slots, and the handler is given n.
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
	port.mu.Lock()
	port.set, port.name = ps, n
	port.callers.wake(nil, granted)
	port.mu.Unlock()
	return nil
}

// serve registers pool as the set's server.
func (ps *PortSet) serve(pool *ServerPool) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	switch {
	case ps.dead:
		return ErrDeadPort
	case ps.pool != nil:
		return ErrRightExists
	}
	ps.pool = pool
	ps.callers.wake(nil, granted)
	return nil
}

// abandon wakes, as closed, the callers of the dead member port p waiting
// for the set's server or for a slot of its pool.
func (ps *PortSet) abandon(p *Port) {
	ps.mu.Lock()
	ps.callers.wake(p, closed)
	pool := ps.pool
	ps.mu.Unlock()
	if pool != nil {
		pool.mu.Lock()
		pool.waiters.wake(p, closed)
		pool.mu.Unlock()
	}
}

// RemoveMember takes a port out of the set; nothing serves it until a
// server registers on it again.
func (ps *PortSet) RemoveMember(n PortName) error {
	t := ps.task
	e, err := t.ports.lookup(n, RightReceive)
	if err != nil {
		return err
	}
	ps.mu.Lock()
	_, ok := ps.members[e.port]
	delete(ps.members, e.port)
	ps.mu.Unlock()
	if !ok {
		return ErrInvalidName
	}
	e.port.mu.Lock()
	if e.port.set == ps {
		e.port.set = nil
	}
	e.port.mu.Unlock()
	return nil
}

// Members reports the current member count.
func (ps *PortSet) Members() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.members)
}

// Destroy dissolves the set.  Member ports survive, but callers waiting
// for a slot of the set — and later callers of its former members — fail
// with ErrDeadPort, and the set's pool retires.
func (ps *PortSet) Destroy() {
	ps.mu.Lock()
	ps.dead = true
	ps.callers.wake(nil, closed)
	ps.members = make(map[*Port]PortName)
	pool := ps.pool
	ps.mu.Unlock()
	pool.retire()
}
