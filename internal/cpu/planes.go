package cpu

// Plane names one slot of an engine's observation set.  The planes live
// in their own packages (kstat, ktrace, kprof, kflight, klat); cpu holds
// them opaquely and imports none of them.
type Plane uint8

// The observation planes, one slot each.
const (
	PlaneStat Plane = iota
	PlaneTrace
	PlaneProf
	PlaneFlight
	PlaneLat
	NumPlanes
)

// Planes is the immutable set of planes attached to an engine, nil where
// detached.  Attach and detach publish a new set copy-on-write, so a hook
// site reads every plane it needs from one atomic load (Engine.Planes).
type Planes [NumPlanes]any

// PlaneOf returns the plane of type T in slot p of ps (a nil set holds
// nothing), or T's zero value.
func PlaneOf[T any](ps *Planes, p Plane) T {
	var v T
	if ps != nil {
		v, _ = ps[p].(T)
	}
	return v
}

// Engines returns the engines a plane attached here observes: every
// engine of the Complex this engine routes for, or this engine alone.
func (e *Engine) Engines() []*Engine {
	if e.cx != nil {
		return e.cx.Engines()
	}
	return []*Engine{e}
}

// Planes returns the engine's plane set, nil before the first attach.
func (e *Engine) Planes() *Planes { return e.planes.Load() }

// AttachPlane is the one attach rule of every plane: it returns the plane
// in slot p, or publishes mk() there when the slot is empty (detach first
// for a fresh one).  mk runs under the engine's attach lock, so a plane
// installs its engine hooks atomically with its publication.
func (e *Engine) AttachPlane(p Plane, mk func() any) any {
	e.planeMu.Lock()
	defer e.planeMu.Unlock()
	if v := PlaneOf[any](e.planes.Load(), p); v != nil {
		return v
	}
	return e.setPlane(p, mk())
}

// DetachPlane empties slot p; undo, if set, runs on the removed plane
// under the attach lock to take down the hooks its attach installed.
func (e *Engine) DetachPlane(p Plane, undo func()) {
	e.planeMu.Lock()
	defer e.planeMu.Unlock()
	if PlaneOf[any](e.planes.Load(), p) != nil {
		if undo != nil {
			undo()
		}
		e.setPlane(p, nil)
	}
}

// setPlane publishes a copy of the set with slot p holding v; planeMu is
// held.
func (e *Engine) setPlane(p Plane, v any) any {
	var next Planes
	if cur := e.planes.Load(); cur != nil {
		next = *cur
	}
	next[p] = v
	e.planes.Store(&next)
	return v
}
