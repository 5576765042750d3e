package mach

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/kflight"
	"repro/internal/klat"
	"repro/internal/kprof"
	"repro/internal/kstat"
)

// Structural introspection for the kflight diagnosis plane.  The wait-for
// graph's *types and analysis* live in internal/kflight (so the monitor,
// chaos harness and CLI consume dumps without importing the kernel); the
// *registration* lives here, because only the kernel knows what a blocked
// thread is blocked on.  Every kernel wait parks through one pair
// (park.go), and park publishes the wait's record for as long as it
// blocks: a call's wait for a slot, a queued send or receive, a contended
// kernel lock.  A call's wait for its reply, while its handler runs on
// its own goroutine, is the one record published without a park.  Serve
// and a lock's releaser park with no record, so there are five kinds.
// WaitEdges resolves the registered ports to their owning tasks, and
// locks to their holders, at snapshot time.  The RPC path builds no
// record per call: a call stores the pair its thread carries
// (Thread.waits), re-aimed at the call's port and operation.  A passive
// server has no thread parked for work, so nothing registers a receive.
//
// Registration is always-on and observation-only: one atomic pointer
// store per wait, no cost-model charges, no locks.  The pager
// never registers — its PageIn/PageOut are synchronous calls inside the
// faulting thread's kernel entry, so a thread stuck in paging surfaces as
// the enclosing RPC wait (see DESIGN.md).

// flightWait records what one blocked thread is waiting on.  WaitEdges
// reads it from any goroutine.  kind is fixed before the record is first
// published; port and op are atomic because a thread's pair is re-aimed
// by each call while a snapshot may still hold it, and such a snapshot
// may pair the new call's port with the old call's op.
type flightWait struct {
	kind kflight.WaitKind
	port atomic.Pointer[Port]
	op   atomic.Uint32 // in-flight message ID, when the wait carries one
	lock *Lock         // the lock a WaitKernelLock record waits for
}

// aim points the record at port and operation op; it runs before the
// record is published for the wait it describes.
func (w *flightWait) aim(port *Port, op uint32) {
	w.port.Store(port)
	w.op.Store(op)
}

// clearWait removes the registration; the thread is running again.
func (th *Thread) clearWait() { th.wait.Store(nil) }

// WaitEdges materializes the wait-for graph: one edge per blocked thread,
// thread → port → owning task or thread → lock → holding thread, resolved
// at snapshot time so an edge always names the port's *current* receiver
// and the lock's current holder.  Edges are sorted for deterministic
// dumps.
func (k *Kernel) WaitEdges() []kflight.WaitEdge {
	var out []kflight.WaitEdge
	for _, t := range k.Tasks() {
		for _, th := range t.ThreadsSnapshot() {
			w := th.wait.Load()
			if w == nil {
				continue
			}
			e := kflight.WaitEdge{
				Task: t.name, TaskID: uint32(t.id),
				Thread: th.name, ThreadID: uint32(th.id),
				Kind: w.kind, Op: w.op.Load(),
			}
			if port := w.port.Load(); port != nil {
				e.PortID = port.id
				if rt := port.receiverTask(); rt != nil {
					e.OwnerTask, e.OwnerTaskID = rt.name, uint32(rt.id)
				}
			}
			if w.lock != nil {
				e.Lock = w.lock.name
				if h := w.lock.holding(); h != nil {
					e.OwnerTask, e.OwnerTaskID = h.task.name, uint32(h.task.id)
					e.Holder, e.HolderID = h.name, uint32(h.id)
				}
			}
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b kflight.WaitEdge) int {
		return cmp.Or(cmp.Compare(a.TaskID, b.TaskID), cmp.Compare(a.ThreadID, b.ThreadID))
	})
	return out
}

// FlightDump assembles the one dump of this kernel's observation planes:
// the flight rings, the wait-for graph with cycles named, scheduler
// state, the kstat fabric, the tail-latency dump and the profile.  It is
// the chaos harness's postmortem and the monitor's one answer; a plane
// that is not attached leaves its section absent.
func (k *Kernel) FlightDump(reason string) *kflight.Dump {
	var stats kstat.Snapshot
	if st := kstat.For(k.CPU); st != nil {
		stats = st.Snapshot()
	}
	d := kflight.Collect(reason, kflight.For(k.CPU), k.WaitEdges(), k.SchedStats(), stats)
	if lt := klat.For(k.CPU); lt != nil {
		d.Tail = lt.Dump()
	}
	if p := kprof.For(k.CPU); p != nil {
		prof := p.Snapshot()
		d.Profile = &prof
	}
	return d
}
