package mach

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/kstat"
)

// Server pools: N threads draining one receive right (or one port set)
// concurrently.  This is the multi-threaded form of the rework's
// "optimized and simplified ... server loops": the port's synchronous
// rendezvous already admits any number of waiting receivers, so a pool is
// simply N threads blocked in RPCReceive on the same right, and a client
// hands its exchange to whichever one the scheduler picks.  Nothing is
// queued; with all workers busy, callers block in the rendezvous exactly
// as they would against a single-threaded server.
//
// Handler concurrency contract: a handler given to ServePool or
// ServeSetPool with n > 1 runs on up to n threads at once and MUST
// synchronize any access to server state shared across requests.  Message
// bodies are private to each exchange and need no locking.  Each server
// documents its own contract at its handler.

// ServerPool is a set of server threads draining a shared receive right.
type ServerPool struct {
	task *Task
	name string
	ops  []atomic.Uint64

	// recv and handler are retained so a dead worker can be respawned on
	// the same receive right (RespawnWorker).
	recv    receiveFn
	handler func(PortName, *Message) *Message

	// vtp is the pool's virtual capacity on multi-engine kernels: its
	// workers' bursts serialize on these interchangeable server slots
	// (one per thread unless capped by LimitVirtualServers) rather than
	// on each worker's own clock.
	vtp *vtPool

	// kstat family names, precomputed so the worker loop does no string
	// concatenation per request.
	busyFam, opsFam, workersFam string

	mu      sync.Mutex
	threads []*Thread // slot i holds worker i's current thread
	spawned int       // monotonic name counter across respawns
}

// receiveFn blocks one worker until a request arrives, returning the
// member port name for set-based pools (the receive right's own name for
// single-port pools).
type receiveFn func(*Thread) (*Message, *Responder, PortName, error)

// ServePool starts n threads serving the named receive right with h.
// n < 1 is treated as 1.  Workers exit when the port is destroyed or the
// task terminates.
func (t *Task) ServePool(name string, recv PortName, n int, h Handler) (*ServerPool, error) {
	return t.servePool(name, n, func(th *Thread) (*Message, *Responder, PortName, error) {
		req, resp, err := th.RPCReceive(recv)
		return req, resp, recv, err
	}, func(_ PortName, m *Message) *Message { return h(m) })
}

// ServeSetPool starts n threads serving a port set with h — the one way a
// set is served; h also receives the member port's name.  This is the
// paper-faithful shape of the file server's port-per-open-file design:
// many object ports, a fixed pool of threads, no thread per port.
func (t *Task) ServeSetPool(name string, ps *PortSet, n int, h func(port PortName, req *Message) *Message) (*ServerPool, error) {
	return t.servePool(name, n, func(th *Thread) (*Message, *Responder, PortName, error) {
		return th.receiveSet(ps)
	}, h)
}

func (t *Task) servePool(name string, n int, recv receiveFn, h func(PortName, *Message) *Message) (*ServerPool, error) {
	if n < 1 {
		n = 1
	}
	p := &ServerPool{
		task: t, name: name, recv: recv, handler: h,
		ops: make([]atomic.Uint64, n), threads: make([]*Thread, n), vtp: newVTPool(n),
	}
	fam := "mach.pool." + t.name + "/" + name
	p.busyFam, p.opsFam, p.workersFam = fam+".busy", fam+".ops", fam+".workers"
	// Touch the gauge so the family exists even before the first
	// worker starts; spawnWorker maintains the live count.
	kstat.For(t.kernel.CPU).Gauge(p.workersFam).Add(0)
	for i := 0; i < n; i++ {
		if err := p.spawnWorker(i); err != nil {
			p.Stop()
			return nil, err
		}
	}
	return p, nil
}

// spawnWorker starts (or restarts) worker slot idx.  The pool-occupancy
// workers gauge counts live workers: incremented when a worker starts and
// decremented when its loop exits for any reason — dead port, terminated
// thread, task shutdown — so the monitor never shows phantom workers
// after a pool dies.
func (p *ServerPool) spawnWorker(idx int) error {
	p.mu.Lock()
	seq := p.spawned
	p.spawned++
	p.mu.Unlock()
	k := p.task.kernel
	th, err := p.task.Spawn(fmt.Sprintf("%s/%d", p.name, seq), func(th *Thread) {
		th.poolVT = p.vtp
		workers := kstat.For(k.CPU).Gauge(p.workersFam)
		workers.Inc()
		defer workers.Dec()
		p.worker(th, idx, p.recv, p.handler)
	})
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.threads[idx] = th
	p.mu.Unlock()
	return nil
}

// worker is one pool thread's loop.  Its frame is per-thread
// (serve:<task>/<worker>), so a trace attributes the full server-side
// segment of each RPC — handler AND reply delivery — to the worker that
// ran it.  A failed reply delivery (oversized or bad-rights reply)
// poisons neither the worker nor the port: the client was already
// unblocked with ErrReplyFailed, so the worker just takes the next
// request.  Only a receive failure (dead port, terminated thread) ends the
// worker.
func (p *ServerPool) worker(th *Thread, idx int, recv receiveFn, h func(PortName, *Message) *Message) {
	k := th.task.kernel
	l := serveLoop{th: th, frame: "serve:" + th.task.name + "/" + th.name}
	for {
		req, resp, pn, err := recv(th)
		if err != nil {
			return
		}
		// Worker occupancy: the busy gauge covers handler + reply, the
		// same segment the EvRPCServe span attributes, so the monitor's
		// pool occupancy and the trace calibration agree on what "busy"
		// means.  The responder lowers it at the reply commit, before
		// the caller is released, so a caller never sees its own call
		// still busy.
		ps := k.CPU.Planes()
		st := kstat.From(ps)
		resp.busy = st.Gauge(p.busyFam)
		resp.busy.Inc()
		_ = l.dispatch(ps, resp, req, pn, h)
		st.Counter(p.opsFam).Inc()
		p.ops[idx].Add(1)
	}
}

// Size reports the number of worker slots.
func (p *ServerPool) Size() int { return len(p.ops) }

// WorkersGauge reports the kstat gauge family that tracks this pool's
// live worker count, so external health checks (the chaos harness) can
// compare the published gauge against LiveWorkers.
func (p *ServerPool) WorkersGauge() string { return p.workersFam }

// LimitVirtualServers caps the pool's virtual capacity at n servers on
// multi-engine kernels, regardless of thread count.  A pool fronting one
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

// WorkerOps reports per-worker completion counts, for checking that load
// actually spreads across the pool.
func (p *ServerPool) WorkerOps() []uint64 {
	out := make([]uint64, len(p.ops))
	for i := range p.ops {
		out[i] = p.ops[i].Load()
	}
	return out
}

// Stop terminates all workers (thread_terminate on each).
func (p *ServerPool) Stop() {
	for _, th := range p.snapshot() {
		th.Terminate()
	}
}

// Wait blocks until every worker has exited.
func (p *ServerPool) Wait() {
	for _, th := range p.snapshot() {
		<-th.Done()
	}
}

// snapshot returns the current worker threads (nil slots skipped).
func (p *ServerPool) snapshot() []*Thread {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Thread, 0, len(p.threads))
	for _, th := range p.threads {
		if th != nil {
			out = append(out, th)
		}
	}
	return out
}

// KillWorker terminates worker slot i mid-flight (thread_terminate on its
// current thread), simulating a crashed pool thread.  A handler already
// running completes and its reply is still delivered; the worker exits at
// its next blocking point.  Returns false when i is out of range or the
// slot's thread is already dead.
func (p *ServerPool) KillWorker(i int) bool {
	p.mu.Lock()
	var th *Thread
	if i >= 0 && i < len(p.threads) {
		th = p.threads[i]
	}
	p.mu.Unlock()
	if th == nil || th.Dead() {
		return false
	}
	th.Terminate()
	return true
}

// RespawnWorker restarts a dead worker slot with a fresh thread on the
// same receive right — the pool's crash-recovery path.  It fails if the
// slot's thread is still alive or the task has terminated.
func (p *ServerPool) RespawnWorker(i int) error {
	p.mu.Lock()
	if i < 0 || i >= len(p.threads) {
		p.mu.Unlock()
		return ErrInvalidThread
	}
	if th := p.threads[i]; th != nil && !th.Dead() {
		p.mu.Unlock()
		return ErrThreadRunning
	}
	p.mu.Unlock()
	return p.spawnWorker(i)
}

// LiveWorkers counts worker slots whose thread is currently alive.
func (p *ServerPool) LiveWorkers() int {
	n := 0
	for _, th := range p.snapshot() {
		if !th.Dead() {
			n++
		}
	}
	return n
}
