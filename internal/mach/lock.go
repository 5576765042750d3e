package mach

import (
	"sync"

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
	queue  []lockWaiter // first come, first served
}

// lockWaiter is one blocked acquirer: its thread, and the channel its
// handoff arrives on.
type lockWaiter struct {
	th   *Thread
	turn chan struct{}
}

// NewLock makes a free lock; name labels its waits in the wait-for graph
// and the latency ledger.
func NewLock(name string) *Lock { return &Lock{name: name} }

// Acquire takes l for req, the request the caller serves; nil (boot, a
// harness) names no thread and no ledger.  Every Acquire needs its
// Release.
func (l *Lock) Acquire(req *Message) {
	th := req.server()
	l.mu.Lock()
	if !l.held {
		l.held, l.holder = true, th
		l.mu.Unlock()
		return
	}
	w := lockWaiter{th: th, turn: make(chan struct{})}
	l.queue = append(l.queue, w)
	l.mu.Unlock()

	if th != nil {
		fw := &flightWait{kind: kflight.WaitKernelLock, lock: l}
		fw.op.Store(uint32(req.ID))
		th.wait.Store(fw)
	}
	req.Hop().Wait(l.name, func() { <-w.turn })
	if th != nil {
		th.clearWait()
	}
	w.turn <- struct{}{} // running: the releaser may go on
}

// Release hands l to its longest waiter, or frees it.
func (l *Lock) Release() {
	l.mu.Lock()
	if len(l.queue) == 0 {
		l.held, l.holder = false, nil
		l.mu.Unlock()
		return
	}
	w := l.queue[0]
	l.queue[0] = lockWaiter{}
	l.queue = l.queue[1:]
	l.holder = w.th
	l.mu.Unlock()
	w.turn <- struct{}{}
	<-w.turn
}

// holding returns the thread holding l, for the wait-for graph.
func (l *Lock) holding() *Thread {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.holder
}
