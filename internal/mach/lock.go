package mach

import (
	"sync"
	"time"

	"repro/internal/kflight"
)

// Lock is a kernel lock.  The paper's Mach "had no notion of
// synchronization other than that which can be constructed using the IPC
// system", so the project added kernel locks; this is the one a server
// holds across kernel calls — a file-server volume across its device
// requests, the registry's profile file across its file-server calls.
// Exclusion that outlives no call stays a plain host mutex.
//
// The lock is taken for the request its caller serves, because a
// handler has nothing else: the request names the server thread whose
// wait a contended acquire registers and the ledger its wait is marked
// on.  It charges no modeled instruction, so taking it moves no pin.
//
//   - Acquire is FIFO: a release hands the lock to the longest waiter,
//     so a releaser that asks again queues behind it.
//   - A handoff is a scheduling point: the releaser gives its processor
//     to the new holder and goes on only once that one runs.  Without
//     it the new holder would wait for a processor while the lock sat
//     idle in its name, and every contended handoff would stall the
//     volume behind the releaser's own unlocked work.
//   - A free lock is taken without registering or allocating anything.
//   - A contended acquire registers one wait-for edge, waiter → lock →
//     holder thread, cleared at the handoff, and marks the wait on the
//     request's latency ledger under the lock's name.
type Lock struct {
	name string

	mu     sync.Mutex // guards what follows; held across no call
	held   bool
	holder *Thread
	queue  waitq // first come, first served
	// handoff is the releaser parked until the holder it handed the lock
	// to runs.
	handoff *parker
}

// NewLock makes a free lock; name labels its waits in the wait-for graph
// and the latency ledger.
func NewLock(name string) *Lock { return &Lock{name: name} }

// Acquire takes l for req, the request the caller serves; nil (boot, a
// harness) names no thread and no ledger.  Every Acquire needs its
// Release.  A wait for the lock ends only when it is handed over.
func (l *Lock) Acquire(req *Message) {
	th := req.server()
	l.mu.Lock()
	if !l.held {
		l.held, l.holder = true, th
		l.mu.Unlock()
		return
	}
	p := th.parker()
	p.arm(th, false)
	l.queue = append(l.queue, waiter{p: p, th: th})
	l.mu.Unlock()

	var w *flightWait
	if th != nil {
		w = &flightWait{kind: kflight.WaitKernelLock, lock: l}
		w.op.Store(uint32(req.ID))
	}
	req.Hop().Wait(l.name, func() { p.park(th, w, time.Time{}) })
	// Running: the releaser may go on.
	l.mu.Lock()
	r := l.handoff
	l.handoff = nil
	l.mu.Unlock()
	r.wake(granted)
}

// Release hands l to its longest waiter, or frees it.
func (l *Lock) Release() {
	l.mu.Lock()
	if len(l.queue) == 0 {
		l.held, l.holder = false, nil
		l.mu.Unlock()
		return
	}
	r := l.holder.parker()
	r.arm(l.holder, false)
	l.handoff = r
	w, _ := l.queue.next(nil) // a lock wait takes the first grant
	l.holder = w.th
	l.mu.Unlock()
	r.park(nil, nil, time.Time{})
}

// holding returns the thread holding l, for the wait-for graph.
func (l *Lock) holding() *Thread {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.holder
}
