// N-engine SMP: a Complex is a set of processor engines sharing nothing
// but the bus — each has its own I-/D-cache and TLB, so a thread that
// migrates between engines genuinely refetches its working set on the
// destination, and pays an explicit coherence charge (Engine.Migrate) on
// top.
//
// The system charges all costs through one *Engine handle (the kernel's
// k.CPU).  Under a Complex that handle is engine 0, the *router*: a
// scheduler binds each running simulated thread's goroutine to an engine
// (Bind), and every charge arriving at the router is forwarded to the
// caller's bound engine.  Unbound callers (boot, background emitters)
// land on engine 0.  A standalone engine has no router and no per-charge
// lookup, which keeps the CPUs=1 model bit-identical to the pre-SMP one.
package cpu

import (
	"runtime"
	"sync"
)

// Complex is a set of N engines with a shared routing table.
type Complex struct {
	engines []*Engine
	// bind maps a goroutine — or, on linux off amd64, its OS thread
	// (routeKey) — to its current binding.  A binding is installed and
	// removed by its owner, under runtime.LockOSThread, so a live entry
	// can never be observed by any goroutine but its owner: the key names
	// the owner, and a locked OS thread runs nothing else.
	bind sync.Map // routeKey() -> *Binding
}

// Binding is one goroutine's route to an engine.  Besides routing, it
// counts the cycles every charge routed through it adds — the engine's
// cycles that belong to this binding alone, whatever other threads bound
// to the same engine charge meanwhile.  A nested binding shadows the
// outer one, so each cycle is counted in exactly one binding.  The count
// is written under the engine lock by its owner's charges and read by the
// owner, so a scheduler can reuse one record per simulated thread.
type Binding struct {
	eng    *Engine
	cycles uint64
}

// Cycles returns the cycles charged through b since it was bound.  Call
// it on the bound goroutine.
func (b *Binding) Cycles() uint64 { return b.cycles }

// NewComplex creates n engines with cold caches; engine 0 is the router
// all shared charge sites go through.
func NewComplex(cfg Config, n int) *Complex {
	if n < 1 {
		n = 1
	}
	cx := &Complex{engines: make([]*Engine, n)}
	for i := 0; i < n; i++ {
		e := NewEngine(cfg)
		e.slot = i
		e.root = cx.engines[0]
		cx.engines[i] = e
	}
	cx.engines[0].cx, cx.engines[0].root = cx, nil
	return cx
}

// Size returns the number of engines.
func (cx *Complex) Size() int { return len(cx.engines) }

// Router returns engine 0, the handle shared charge sites use.
func (cx *Complex) Router() *Engine { return cx.engines[0] }

// Engines returns the engines, slot-ordered.  The slice is shared; do not
// modify it.
func (cx *Complex) Engines() []*Engine { return cx.engines }

// current returns the calling goroutine's binding, or nil when unbound.
func (cx *Complex) current() *Binding {
	if v, ok := cx.bind.Load(routeKey()); ok {
		return v.(*Binding)
	}
	return nil
}

// Bind pins the calling goroutine to its OS thread and routes its charges
// to engine e through the caller's record b until the returned undo runs
// (on the same goroutine); b's cycle count starts at zero.  b must not be
// bound already.  Bindings nest — a nested Bind shadows the outer one and
// undo restores it — matching LockOSThread's own nesting.
func (cx *Complex) Bind(b *Binding, e *Engine) (undo func()) {
	runtime.LockOSThread()
	key := routeKey()
	prev, hadPrev := cx.bind.Load(key)
	b.eng, b.cycles = e, 0
	cx.bind.Store(key, b)
	return func() {
		if hadPrev {
			cx.bind.Store(key, prev)
		} else {
			cx.bind.Delete(key)
		}
		runtime.UnlockOSThread()
	}
}

// BoundEngine returns the engine the calling goroutine is bound to, or
// nil when unbound.  Only a goroutine's own binding can ever be visible
// to it (see the bind field), so a non-nil result is stable until the
// caller's own undo.
func (cx *Complex) BoundEngine() *Engine {
	if b := cx.current(); b != nil {
		return b.eng
	}
	return nil
}

// TotalCounters sums the counters of every engine.  Each engine's own
// counters are monotonic, and engines are read in slot order, so repeated
// reads by one observer are monotonic too — the property the delta-based
// observation hooks depend on.
func (cx *Complex) TotalCounters() Counters {
	var sum Counters
	for _, e := range cx.engines {
		c := e.rawCounters()
		sum.Instructions += c.Instructions
		sum.Cycles += c.Cycles
		sum.BusCycles += c.BusCycles
		sum.ICacheMisses += c.ICacheMisses
		sum.DCacheMisses += c.DCacheMisses
		sum.TLBMisses += c.TLBMisses
		sum.Switches += c.Switches
	}
	return sum
}

// EngineCounters reads one engine's own counters (no routing, no sum).
func (cx *Complex) EngineCounters(slot int) Counters {
	return cx.engines[slot].rawCounters()
}

// CurrentSlot returns the slot the calling thread's charges land on: the
// bound engine's slot under a Complex, 0 otherwise.  Used by tracers to
// stamp events with an engine id.
func (e *Engine) CurrentSlot() int {
	e, _ = e.route()
	return e.slot
}
