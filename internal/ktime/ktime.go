// Package ktime implements the clocks-and-timers component.  Mach 3.0's
// time management was "very limited"; the project implemented a much more
// extensive one.  The simulated clock is driven by the cost model's cycle
// counter — simulated time is cycles divided by the clock rate — so the
// whole system shares one deterministic notion of time.
package ktime

import (
	"container/heap"
	"errors"
	"sort"
	"sync"

	"repro/internal/cpu"
	"repro/internal/kstat"
)

// Time is a simulated timestamp in nanoseconds since boot.
type Time uint64

// Duration is a simulated span in nanoseconds.
type Duration uint64

// Common durations.
const (
	Microsecond Duration = 1000
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// ErrTimerDead is returned when operating on a cancelled timer.
var ErrTimerDead = errors.New("ktime: timer cancelled")

// Clock converts engine cycles to simulated time and owns the timer queue.
type Clock struct {
	eng     *cpu.Engine
	mhz     uint64
	readOp  cpu.Region
	adminOp cpu.Region

	mu     sync.Mutex
	timers timerHeap
	nextID uint64
	offset Time // manual advancement for tests and idle periods
}

// NewClock creates a clock over the engine at the given frequency in MHz
// (133 for the paper's machines).
func NewClock(eng *cpu.Engine, layout *cpu.Layout, mhz uint64) *Clock {
	if mhz == 0 {
		mhz = 133
	}
	return &Clock{
		eng:     eng,
		mhz:     mhz,
		readOp:  layout.PlaceInstr("clock_read", 40),
		adminOp: layout.PlaceInstr("timer_admin", 180),
	}
}

// Now returns the current simulated time: elapsed cycles at the clock
// rate, plus any manual advancement.
func (c *Clock) Now() Time {
	kstat.For(c.eng).Counter("ktime.clock_reads").Inc()
	c.eng.Exec(c.readOp)
	cyc := c.eng.Counters().Cycles
	c.mu.Lock()
	off := c.offset
	c.mu.Unlock()
	return Time(cyc*1000/c.mhz) + off
}

// Advance moves simulated time forward by d, firing due timers.  Time
// steps from deadline to deadline, so a callback that re-arms a timer
// within the window sees it fire too — the scheduler and device models
// use this to represent idle waiting without burning simulated cycles.
func (c *Clock) Advance(d Duration) {
	target := c.nowQuiet() + Time(d)
	for {
		c.mu.Lock()
		if len(c.timers) == 0 || c.timers[0].deadline > target {
			c.mu.Unlock()
			break
		}
		deadline := c.timers[0].deadline
		c.mu.Unlock()
		// Step time up to this deadline, then fire everything due.
		if now := c.nowQuiet(); deadline > now {
			c.mu.Lock()
			c.offset += Time(deadline - now)
			c.mu.Unlock()
		}
		c.fireDue()
	}
	if now := c.nowQuiet(); target > now {
		c.mu.Lock()
		c.offset += Time(target - now)
		c.mu.Unlock()
	}
	c.fireDue()
}

// Timer is a one-shot or periodic timer.
type Timer struct {
	id       uint64
	deadline Time
	period   Duration // 0 for one-shot
	fn       func(Time)
	dead     bool
	idx      int
}

// After schedules fn to run (on the caller of Advance) after d.
func (c *Clock) After(d Duration, fn func(Time)) *Timer {
	return c.schedule(d, 0, fn)
}

// Every schedules fn to run every period, first after one period.
func (c *Clock) Every(period Duration, fn func(Time)) *Timer {
	return c.schedule(period, period, fn)
}

func (c *Clock) schedule(d Duration, period Duration, fn func(Time)) *Timer {
	kstat.For(c.eng).Counter("ktime.timers_set").Inc()
	c.eng.Exec(c.adminOp)
	now := c.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	t := &Timer{id: c.nextID, deadline: now + Time(d), period: period, fn: fn}
	heap.Push(&c.timers, t)
	return t
}

// Cancel stops the timer; firing in progress is not interrupted.
func (c *Clock) Cancel(t *Timer) error {
	c.eng.Exec(c.adminOp)
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.dead {
		return ErrTimerDead
	}
	t.dead = true
	if t.idx >= 0 && t.idx < len(c.timers) && c.timers[t.idx] == t {
		heap.Remove(&c.timers, t.idx)
	}
	return nil
}

func (c *Clock) fireDue() {
	for {
		now := c.nowQuiet()
		c.mu.Lock()
		if len(c.timers) == 0 || c.timers[0].deadline > now {
			c.mu.Unlock()
			return
		}
		t := heap.Pop(&c.timers).(*Timer)
		if t.dead {
			c.mu.Unlock()
			continue
		}
		if t.period > 0 {
			t.deadline = now + Time(t.period)
			heap.Push(&c.timers, t)
		} else {
			t.dead = true
		}
		fn := t.fn
		c.mu.Unlock()
		if fn != nil {
			fn(now)
		}
	}
}

// nowQuiet reads time without charging the read path (internal use).
func (c *Clock) nowQuiet() Time {
	cyc := c.eng.Counters().Cycles
	c.mu.Lock()
	off := c.offset
	c.mu.Unlock()
	return Time(cyc*1000/c.mhz) + off
}

// Pending reports the number of armed timers.
func (c *Clock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers)
}

// Deadlines returns the sorted pending deadlines (for inspection).
func (c *Clock) Deadlines() []Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Time, len(c.timers))
	for i, t := range c.timers {
		out[i] = t.deadline
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// timerHeap is a min-heap on deadline.
type timerHeap []*Timer

func (h timerHeap) Len() int            { return len(h) }
func (h timerHeap) Less(i, j int) bool  { return h[i].deadline < h[j].deadline }
func (h timerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *timerHeap) Push(x interface{}) { t := x.(*Timer); t.idx = len(*h); *h = append(*h, t) }
func (h *timerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.idx = -1
	*h = old[:n-1]
	return t
}
