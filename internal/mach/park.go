package mach

import (
	"slices"
	"sync"
	"time"
)

// Every kernel wait — a slot claim, a call waiting for a server, a queued
// send or receive, Serve, a kernel lock and its releaser — is armed and
// queued under the mutex of the object that grants it, then parks.  Its
// wakers (the grant, a port or set dying, termination, the deadline) all
// resume it through wake, and only the first lands; a grant that lost goes
// to the next waiter.  A parker belongs to a goroutine: a handler runs on
// its caller's, so its waits, made as the slot's thread, park the
// caller's parker (Thread.pk) — and a thread parked in Serve can have its
// handler wait on a lock.

// wakeReason is why a parked wait resumed.
type wakeReason uint8

const (
	granted  wakeReason = iota // handed the resource, or told to look again
	closed                     // the port or set waited on died
	aborted                    // the waiting thread was terminated
	timedOut                   // the call's deadline passed
)

// err is the error a wait that resumed for why fails with.
func (why wakeReason) err() error {
	return [...]error{nil, ErrDeadPort, ErrAborted, ErrTimeout}[why]
}

// parker is what one goroutine parks on, one wait at a time.
type parker struct {
	mu    sync.Mutex
	armed bool    // a wait is pending and no waker has landed
	as    *Thread // whose termination ends the pending wait (nil: none's)
	slot  *slot   // what the last wake handed a slot claim
	// woke holds the one wake of the pending wait, so a waker's send
	// never blocks.
	woke chan wakeReason
}

// parker returns what a wait made as th parks on: th.pk, or a fresh
// parker for a nil thread.
func (th *Thread) parker() *parker {
	if th == nil {
		return &parker{woke: make(chan wakeReason, 1)}
	}
	return th.pk.Load()
}

// arm readies a wait made as th before it is queued, so no wake is lost
// in between; an abortable wait of a dead thread is refused.
func (p *parker) arm(th *Thread, abortable bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.armed {
		panic("mach: one goroutine parked in two waits")
	}
	if abortable && th.Dead() {
		return false
	}
	p.armed, p.as = true, nil
	if abortable {
		p.as = th
	}
	return true
}

// park blocks until the armed wait is woken and returns why.  Meanwhile w,
// the wait-for graph's record of the wait (nil: none), is th's published
// wait.  A non-zero deadline wakes the wait as timedOut.
func (p *parker) park(th *Thread, w *flightWait, deadline time.Time) wakeReason {
	if w != nil {
		th.wait.Store(w)
		defer th.clearWait()
	}
	if deadline.IsZero() {
		return <-p.woke
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case why := <-p.woke:
		return why
	case <-t.C:
		p.wake(timedOut)
		return <-p.woke
	}
}

// wake resumes p's pending wait with why and reports whether it did.
func (p *parker) wake(why wakeReason) bool { return p.grant(why, nil, nil) }

// grant is wake handing a slot claim s; with as non-nil it lands only on
// a wait as's termination ends.
func (p *parker) grant(why wakeReason, s *slot, as *Thread) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.armed || as != nil && p.as != as {
		return false
	}
	p.armed, p.slot = false, s
	p.woke <- why
	return true
}

// waitq is a first-come, first-served list of armed waits, guarded by the
// mutex of the object that grants them.
type waitq []waiter

type waiter struct {
	p    *parker
	th   *Thread // a lock's next holder
	port *Port   // the port a caller called
}

// enqueue arms a wait made as th, a caller of port, and queues it, unless
// what it waits on is dead (ErrDeadPort) or th is (ErrAborted).
func (q *waitq) enqueue(th *Thread, port *Port, dead bool) (*parker, error) {
	if dead {
		return nil, ErrDeadPort
	}
	p := th.parker()
	if !p.arm(th, true) {
		return nil, ErrAborted
	}
	*q = append(*q, waiter{p: p, port: port})
	return p, nil
}

// drop takes p's wait off the list, unless a waker already did.
func (q *waitq) drop(p *parker) {
	*q = slices.DeleteFunc(*q, func(w waiter) bool { return w.p == p })
}

// next grants the longest waiter still parked, handing a claim s, and
// takes it off the list; ok is false when no wait took the grant.
func (q *waitq) next(s *slot) (waiter, bool) {
	for len(*q) > 0 {
		w := (*q)[0]
		*q = slices.Delete(*q, 0, 1)
		if w.p.grant(granted, s, nil) {
			return w, true
		}
	}
	return waiter{}, false
}

// wake wakes with why, and takes off the list, every waiter — or, with
// port non-nil, every caller of port.
func (q *waitq) wake(port *Port, why wakeReason) {
	*q = slices.DeleteFunc(*q, func(w waiter) bool {
		if port != nil && w.port != port {
			return false
		}
		w.p.wake(why)
		return true
	})
}
