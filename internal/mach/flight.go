package mach

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/kflight"
	"repro/internal/kstat"
)

// Structural introspection for the kflight diagnosis plane.  The wait-for
// graph's *types and analysis* live in internal/kflight (so the monitor,
// chaos harness and CLI consume dumps without importing the kernel); the
// *registration* lives here, because only the kernel knows what a blocked
// thread is blocked on: every blocking select of the RPC path
// (rendezvous, reply wait, receive, set receive) and the queued-IPC
// condition waits brackets itself with a registration and clearWait, and
// WaitEdges resolves the registered ports to their owning tasks at
// snapshot time.  The RPC path builds no record per call: a call stores
// the pair its exchange carries (see taken), re-aimed at the call's port
// and operation, a receive the record of its port or set.
//
// Registration is always-on and observation-only: one atomic pointer
// store per blocking point, no cost-model charges, no locks.  The pager
// never registers — its PageIn/PageOut are synchronous calls inside the
// faulting thread's kernel entry, so a thread stuck in paging surfaces as
// the enclosing RPC wait (see DESIGN.md).

// flightWait records what one blocked thread is waiting on.  WaitEdges
// reads it from any goroutine.  kind and set are fixed before the record
// is first published; port and op are atomic because an exchange's pair
// is re-aimed by each call while a snapshot may still hold it, and such a
// snapshot may pair the new call's port with the old call's op.
type flightWait struct {
	kind kflight.WaitKind
	set  *PortSet             // the port set (set-receive only)
	port atomic.Pointer[Port] // the port (or nil for a set wait)
	op   atomic.Uint32        // in-flight message ID, when the wait carries one
}

// aim points the record at port and operation op; it runs before the
// record is published for the wait it describes.
func (w *flightWait) aim(port *Port, op uint32) {
	w.port.Store(port)
	w.op.Store(op)
}

// setWait registers the thread's current blocking point in a record of
// its own: the classic queued path's waits.
func (th *Thread) setWait(kind kflight.WaitKind, port *Port, set *PortSet, op uint32) {
	w := &flightWait{kind: kind, set: set}
	w.aim(port, op)
	th.wait.Store(w)
}

// clearWait removes the registration; the thread is running again.
func (th *Thread) clearWait() { th.wait.Store(nil) }

// taken is the receive side of a hand-off, run by the server thread th
// that takes the exchange (RPCReceive, receiveSet) before its handler
// runs: the call's pickup stamp, naming the serving task, and the
// caller's wait moved from rendezvous to reply, so a handler that dumps
// the wait-for graph sees its own caller waiting for it.  The
// compare-and-swap leaves a caller that has already moved on (abandoned,
// or registered the reply wait itself) untouched.
func (ex *rpcExchange) taken(th *Thread) {
	ex.request.rec.Stamp(cpu.PhasePicked, th.task.name, uint64(ex.request.ID))
	ex.caller.wait.CompareAndSwap(&ex.waits[0], &ex.waits[1])
}

// WaitEdges materializes the wait-for graph: one edge per blocked thread,
// thread → port → owning task, resolved at snapshot time so an edge
// always names the port's *current* receiver.  Edges are sorted for
// deterministic dumps.
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
			switch port := w.port.Load(); {
			case port != nil:
				e.PortID = port.id
				if rt := port.receiverTask(); rt != nil {
					e.OwnerTask, e.OwnerTaskID = rt.name, uint32(rt.id)
				}
			case w.set != nil:
				e.PortID = w.set.id
				e.OwnerTask, e.OwnerTaskID = w.set.task.name, uint32(w.set.task.id)
			}
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b kflight.WaitEdge) int {
		return cmp.Or(cmp.Compare(a.TaskID, b.TaskID), cmp.Compare(a.ThreadID, b.ThreadID))
	})
	return out
}

// FlightDump assembles the postmortem dump for this kernel: the flight
// rings, the wait-for graph with cycles named, scheduler state, and the
// kstat fabric.  Returns nil when no recorder is attached (the monitor
// maps that to ErrDetached).
func (k *Kernel) FlightDump(reason string) *kflight.Dump {
	rec := kflight.For(k.CPU)
	if rec == nil {
		return nil
	}
	var stats kstat.Snapshot
	if st := kstat.For(k.CPU); st != nil {
		stats = st.Snapshot()
	}
	return kflight.Collect(reason, rec, k.WaitEdges(), k.SchedStats(), stats)
}
