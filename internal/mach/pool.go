package mach

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/kstat"
)

// Server pools: N slots serving one receive right (or one port set).
// Servers are passive: a slot is a server thread with no goroutine of its
// own.  A caller takes a free slot and runs the server side of its
// crossing — receive path, handler, reply — on its own goroutine, under
// the slot's thread identity (Ford & Lepreau's migrating threads; a
// passive protection domain in seL4 MCS).  Nothing is queued: with every
// slot busy, callers block for a free one, exactly as they would against
// a single-threaded server.
//
// Handler concurrency contract: a handler given to ServePool or
// ServeSetPool with n > 1 runs on up to n goroutines at once and MUST
// synchronize any access to server state shared across requests.  Message
// bodies are private to each call and need no locking.  Each server
// documents its own contract at its handler.

// ServerPool is a set of server slots serving a shared receive right.
type ServerPool struct {
	task    *Task
	name    string
	handler func(PortName, *Message) *Message

	// vtp is the pool's virtual capacity on multi-engine kernels: its
	// slots' bursts serialize on these interchangeable virtual servers
	// (one per slot unless capped by LimitVirtualServers) rather than on
	// each slot's own clock.
	vtp *vtPool

	// ops counts completed calls per slot and busy the calls between
	// pickup and reply: what the pool's kstat families, named fam, read.
	// Only ServePool and ServeSetPool count them.  The busy and ops
	// families register at the first pickup and the first completion, so
	// a pool that has served nothing lists only workers.
	ops               []atomic.Uint64
	busy              atomic.Int64
	fam               string
	busyOnce, opsOnce sync.Once

	mu      sync.Mutex
	slots   []*slot // slot i's current thread, nil for Thread.Serve
	spawned int     // monotonic name counter across respawns
	// idle holds the free slots, first freed first taken; a killed slot
	// still there is dropped by its taker or by RespawnWorker.  waiters
	// are the callers parked for a slot: a freed slot goes straight to
	// the first of them.  retired is set once the port or set died.
	idle    []*slot
	waiters waitq
	retired bool
	// server is the thread parked in Serve, for its registration.
	server *Thread
}

// slot is one server thread of a pool, and what a call through it
// borrows: the thread's identity, the frame its serve spans carry, and
// the request header the handler is given.
type slot struct {
	th    *Thread
	idx   int
	frame string // serve:<task>[/<thread>]

	// req is the delivered request header, copied in by value when the
	// call takes the slot: the handler's *Message points here, which is
	// why a request is valid until its reply and no longer.
	req Message
	// subs holds a vectored request's delivered sub-headers, replies
	// gathers its sub-replies, and carrier is the header they travel
	// back in.
	subs    []Message
	replies []*Message
	carrier Message
}

// ServePool registers n slots serving the named receive right with h.
// n < 1 is treated as 1.  The slots die with the port or the task.
func (t *Task) ServePool(name string, recv PortName, n int, h Handler) (*ServerPool, error) {
	port, _, err := t.portFor(recv, RightReceive)
	if err != nil {
		return nil, err
	}
	if port.receiverTask() != t {
		return nil, ErrNotReceiver
	}
	return t.servePool(name, n, func(_ PortName, m *Message) *Message { return h(m) },
		func(p *ServerPool) error { return port.serve(p, recv) })
}

// ServeSetPool registers n slots serving a port set with h — the one way
// a set is served; h also receives the member port's name.  This is the
// paper-faithful shape of the file server's port-per-open-file design:
// many object ports, a fixed pool of slots, no thread per port.
func (t *Task) ServeSetPool(name string, ps *PortSet, n int, h func(port PortName, req *Message) *Message) (*ServerPool, error) {
	if ps.task != t {
		return nil, ErrNotReceiver
	}
	return t.servePool(name, n, h, ps.serve)
}

func (t *Task) servePool(name string, n int, h func(PortName, *Message) *Message, register func(*ServerPool) error) (*ServerPool, error) {
	n = max(n, 1)
	p := &ServerPool{
		task: t, name: name, handler: h, idle: make([]*slot, 0, n),
		ops: make([]atomic.Uint64, n), slots: make([]*slot, n), vtp: newVTPool(n),
	}
	// The pool's families read its own state: a pool that dies reads
	// zero busy and workers and keeps its ops, so a successor of the same
	// name adds to the count.
	p.fam = "mach.pool." + t.name + "/" + name
	kstat.For(t.kernel.CPU).GaugeFunc(p.fam+".workers", func() int64 { return int64(p.LiveWorkers()) })
	for i := 0; i < n; i++ {
		if err := p.spawnSlot(i); err != nil {
			p.Stop()
			return nil, err
		}
	}
	if err := register(p); err != nil {
		p.Stop()
		return nil, err
	}
	return p, nil
}

// spawnSlot creates (or recreates) slot idx through the charged
// thread_create path and frees it.
func (p *ServerPool) spawnSlot(idx int) error {
	p.mu.Lock()
	seq := p.spawned
	p.spawned++
	p.mu.Unlock()
	th, err := p.task.create(fmt.Sprintf("%s/%d", p.name, seq))
	if err != nil {
		return err
	}
	th.poolVT = p.vtp
	s := &slot{th: th, idx: idx, frame: "serve:" + p.task.name + "/" + th.name}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.slots[idx] = s
	// Drop the killed slots still waiting to be taken, so that killing
	// and respawning without traffic never grows idle.
	p.idle = slices.DeleteFunc(p.idle, func(old *slot) bool { return old.th.Dead() })
	p.give(s)
	return nil
}

// idleSlot takes the first live idle slot; p.mu is held.
func (p *ServerPool) idleSlot() *slot {
	for len(p.idle) > 0 {
		s := p.idle[0]
		p.idle = slices.Delete(p.idle, 0, 1)
		if !s.th.Dead() {
			return s
		}
	}
	return nil
}

// free returns a slot after its call; a killed slot is not returned.
func (p *ServerPool) free(s *slot) {
	if s.th.Dead() {
		return
	}
	p.mu.Lock()
	p.give(s)
	p.mu.Unlock()
}

// give hands s to the first parked caller, or makes it idle; p.mu is held.
func (p *ServerPool) give(s *slot) {
	if _, ok := p.waiters.next(s); !ok {
		p.idle = append(p.idle, s)
	}
}

// retire ends a pool whose port or set died; nil-safe.
func (p *ServerPool) retire() {
	if p != nil {
		p.end((*Thread).terminate)
	}
}

// end retires the pool: its parked callers, and a thread parked in
// Serve, wake as closed (ErrDeadPort), later calls fail fast, and kill
// ends every slot.  A handler already running completes and its reply is
// delivered.
func (p *ServerPool) end(kill func(*Thread)) {
	p.mu.Lock()
	p.retired = true
	p.waiters.wake(nil, closed)
	if p.server != nil {
		p.server.own.wake(closed)
	}
	p.mu.Unlock()
	for _, th := range p.snapshot() {
		kill(th)
	}
}

// Size reports the number of slots.
func (p *ServerPool) Size() int { return len(p.ops) }

// LimitVirtualServers caps the pool's virtual capacity at n servers on
// multi-engine kernels, regardless of slot count.  A pool fronting one
// physical resource uses this to keep the resource serial in modeled
// time — the block driver caps at 1 because its bursts are dominated by
// device time and there is only one disk arm.  Call at boot, before the
// pool sees traffic.
func (p *ServerPool) LimitVirtualServers(n int) { p.vtp.setSize(n) }

// Ops reports the total requests completed by the pool.
func (p *ServerPool) Ops() uint64 {
	var sum uint64
	for i := range p.ops {
		sum += p.ops[i].Load()
	}
	return sum
}

// WorkerOps reports per-slot completion counts, for checking that load
// actually spreads across the pool.
func (p *ServerPool) WorkerOps() []uint64 {
	out := make([]uint64, len(p.ops))
	for i := range p.ops {
		out[i] = p.ops[i].Load()
	}
	return out
}

// Stop retires the pool as its port's death would, terminating every
// slot through thread_terminate.
func (p *ServerPool) Stop() { p.end((*Thread).Terminate) }

// snapshot returns the current slot threads.
func (p *ServerPool) snapshot() []*Thread {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Thread, 0, len(p.slots))
	for _, s := range p.slots {
		if s != nil {
			out = append(out, s.th)
		}
	}
	return out
}

// slotThread returns slot i's current thread, nil when i is out of range.
func (p *ServerPool) slotThread(i int) *Thread {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.slots) || p.slots[i] == nil {
		return nil
	}
	return p.slots[i].th
}

// KillWorker terminates slot i (thread_terminate on its thread),
// simulating a crashed pool thread.  A handler already running on the
// slot completes and its reply is still delivered, but the slot is not
// freed again.  Returns false when i is out of range or the slot's thread
// is already dead.
func (p *ServerPool) KillWorker(i int) bool {
	th := p.slotThread(i)
	if th == nil || th.Dead() {
		return false
	}
	th.Terminate()
	return true
}

// RespawnWorker recreates a dead slot with a fresh thread — the pool's
// crash-recovery path.  It fails if the slot's thread is still alive or
// the task has terminated.
func (p *ServerPool) RespawnWorker(i int) error {
	if i < 0 || i >= len(p.slots) {
		return ErrInvalidThread
	}
	if th := p.slotThread(i); th != nil && !th.Dead() {
		return ErrThreadRunning
	}
	return p.spawnSlot(i)
}

// LiveWorkers counts slots whose thread is currently alive.
func (p *ServerPool) LiveWorkers() int {
	n := 0
	for _, th := range p.snapshot() {
		if !th.Dead() {
			n++
		}
	}
	return n
}
