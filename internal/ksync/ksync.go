// Package ksync implements the synchronizer component the project added
// to Mach 3.0.  The paper: "Mach 3.0 also had no notion of synchronization
// other than that which can be constructed using the IPC system.  Since
// this was too expensive and too hard to program for many uses, we
// implemented a comprehensive set of synchronizers including both memory-
// and kernel-based locks and semaphores."
//
// Two families are provided:
//
//   - Kernel synchronizers (KSemaphore, KMutex, Event): every operation
//     traps into the kernel and charges the full trap cost.
//   - Memory synchronizers (MSemaphore, MMutex): the uncontended paths
//     are a few user-level instructions on a shared word (the
//     personality-neutral runtime's half); only contention traps.
//
// The cost asymmetry between the two is itself one of the system's design
// points and is measurable via the engine counters.
package ksync

import (
	"sync"

	"repro/internal/cpu"
	"repro/internal/kstat"
)

// Costs holds the calibrated instruction costs of the synchronizer paths.
type Costs struct {
	// KernelOp is the in-kernel work of a kernel-synchronizer
	// operation, beyond the trap itself.
	KernelOp uint64
	// UserFast is the user-level fast path of a memory synchronizer
	// (atomic op on the shared word).
	UserFast uint64
	// TrapCycles mirrors the kernel's privilege-transition cost.
	TrapCycles uint64
}

// DefaultCosts returns the calibrated defaults.
func DefaultCosts() Costs {
	return Costs{KernelOp: 260, UserFast: 18, TrapCycles: 230}
}

// Factory creates synchronizers charging to one engine.
type Factory struct {
	eng   *cpu.Engine
	costs Costs

	kernelPath cpu.Region
	userPath   cpu.Region
}

// NewFactory builds a synchronizer factory over the engine, placing its
// code paths with the given layout.
func NewFactory(eng *cpu.Engine, layout *cpu.Layout) *Factory {
	c := DefaultCosts()
	f := &Factory{eng: eng, costs: c}
	f.kernelPath = layout.PlaceInstr("ksync_kernel", c.KernelOp)
	f.userPath = layout.PlaceInstr("ksync_user_fast", c.UserFast)
	return f
}

// The op counters of the two synchronization paths.
var (
	kernelOps = kstat.NewKey("ksync.kernel_ops")
	userOps   = kstat.NewKey("ksync.user_ops")
)

func (f *Factory) kernelOp() {
	kstat.For(f.eng).Count(kernelOps).Inc()
	f.eng.Stall(f.costs.TrapCycles)
	f.eng.Exec(f.kernelPath)
}

func (f *Factory) userOp() {
	kstat.For(f.eng).Count(userOps).Inc()
	f.eng.Exec(f.userPath)
}

// KSemaphore is a kernel-based counting semaphore.
type KSemaphore struct {
	f  *Factory
	mu sync.Mutex
	cv *sync.Cond
	n  int
}

// NewKSemaphore creates a kernel semaphore with the given initial count.
func (f *Factory) NewKSemaphore(initial int) *KSemaphore {
	s := &KSemaphore{f: f, n: initial}
	s.cv = sync.NewCond(&s.mu)
	return s
}

// Wait decrements the semaphore, blocking while it is zero.
func (s *KSemaphore) Wait() {
	s.f.kernelOp()
	s.mu.Lock()
	for s.n == 0 {
		s.cv.Wait()
	}
	s.n--
	s.mu.Unlock()
}

// TryWait decrements without blocking; it reports success.
func (s *KSemaphore) TryWait() bool {
	s.f.kernelOp()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return false
	}
	s.n--
	return true
}

// Signal increments the semaphore, waking one waiter.
func (s *KSemaphore) Signal() {
	s.f.kernelOp()
	s.mu.Lock()
	s.n++
	s.cv.Signal()
	s.mu.Unlock()
}

// Count returns the current count.
func (s *KSemaphore) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// KMutex is a kernel-based mutual exclusion lock.
type KMutex struct {
	sem *KSemaphore
}

// NewKMutex creates an unlocked kernel mutex.
func (f *Factory) NewKMutex() *KMutex {
	return &KMutex{sem: f.NewKSemaphore(1)}
}

// Lock acquires the mutex.
func (m *KMutex) Lock() { m.sem.Wait() }

// Unlock releases the mutex.
func (m *KMutex) Unlock() { m.sem.Signal() }

// TryLock attempts the lock without blocking.
func (m *KMutex) TryLock() bool { return m.sem.TryWait() }

// Event is a kernel event object: threads wait until it is set; Set wakes
// all current and future waiters until Reset.
type Event struct {
	f   *Factory
	mu  sync.Mutex
	cv  *sync.Cond
	set bool
}

// NewEvent creates a reset event.
func (f *Factory) NewEvent() *Event {
	e := &Event{f: f}
	e.cv = sync.NewCond(&e.mu)
	return e
}

// Wait blocks until the event is set.
func (e *Event) Wait() {
	e.f.kernelOp()
	e.mu.Lock()
	for !e.set {
		e.cv.Wait()
	}
	e.mu.Unlock()
}

// Set signals the event, releasing all waiters.
func (e *Event) Set() {
	e.f.kernelOp()
	e.mu.Lock()
	e.set = true
	e.cv.Broadcast()
	e.mu.Unlock()
}

// Reset clears the event.
func (e *Event) Reset() {
	e.f.kernelOp()
	e.mu.Lock()
	e.set = false
	e.mu.Unlock()
}

// IsSet reports the event state.
func (e *Event) IsSet() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.set
}

// MSemaphore is a memory-based semaphore: its fast path is a user-level
// atomic operation on a word in (conceptually coerced) shared memory; it
// traps only when it must block or wake a blocked waiter.
type MSemaphore struct {
	f       *Factory
	mu      sync.Mutex
	cv      *sync.Cond
	n       int
	waiters int

	// Kernel traps taken, observable for the cost-asymmetry experiment.
	traps uint64
}

// NewMSemaphore creates a memory semaphore with the given initial count.
func (f *Factory) NewMSemaphore(initial int) *MSemaphore {
	s := &MSemaphore{f: f, n: initial}
	s.cv = sync.NewCond(&s.mu)
	return s
}

// Wait decrements, spinning through the user fast path and trapping only
// when the count is exhausted.
func (s *MSemaphore) Wait() {
	s.f.userOp()
	s.mu.Lock()
	if s.n > 0 {
		s.n--
		s.mu.Unlock()
		return
	}
	// Slow path: block in the kernel.
	s.traps++
	s.f.kernelOp()
	s.waiters++
	for s.n == 0 {
		s.cv.Wait()
	}
	s.n--
	s.waiters--
	s.mu.Unlock()
}

// Signal increments; it traps only when a waiter must be woken.
func (s *MSemaphore) Signal() {
	s.f.userOp()
	s.mu.Lock()
	s.n++
	if s.waiters > 0 {
		s.traps++
		s.f.kernelOp()
		s.cv.Signal()
	}
	s.mu.Unlock()
}

// Traps reports how many operations took the kernel slow path.
func (s *MSemaphore) Traps() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.traps
}

// Count returns the current count.
func (s *MSemaphore) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// MMutex is a memory-based mutex with a user-level fast path.
type MMutex struct {
	sem *MSemaphore
}

// NewMMutex creates an unlocked memory mutex.
func (f *Factory) NewMMutex() *MMutex {
	return &MMutex{sem: f.NewMSemaphore(1)}
}

// Lock acquires the mutex.
func (m *MMutex) Lock() { m.sem.Wait() }

// Unlock releases the mutex.
func (m *MMutex) Unlock() { m.sem.Signal() }

// Traps reports kernel slow-path entries.
func (m *MMutex) Traps() uint64 { return m.sem.Traps() }
