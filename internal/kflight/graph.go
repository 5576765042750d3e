package kflight

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// The wait-for graph.  internal/mach registers a WaitEdge for every
// blocked thread (the *registration* lives in mach, which owns the port
// and thread structures; the *types and analysis* live here so the
// monitor, the chaos harness and the CLI can consume dumps without
// importing the kernel).  An edge reads "thread T of task A is blocked in
// <kind> on port P, whose receive right task B holds" — thread → port →
// owning task, the chain the paper's multi-server debugging stories walk
// by hand — or, for a kernel lock, "thread T of task A waits for lock L,
// which thread H of task B holds".

// WaitKind classifies what a blocked thread is waiting for.
type WaitKind string

// Wait kinds.  The send-side kinds are *dependency* edges (the waiter
// needs the port's owner to act); the receive-side kind is a classic
// receiver parked waiting for work — shown in dumps as a worker state,
// but never part of a deadlock cycle.  Reworked-RPC servers are passive
// (a caller runs the handler), so no server thread parks for work.
const (
	// WaitRendezvous: an RPC client blocked waiting for a free slot of
	// the port's server.
	WaitRendezvous WaitKind = "rendezvous"
	// WaitReply: an RPC client whose call holds a slot, waiting for its
	// handler's reply.
	WaitReply WaitKind = "reply"
	// WaitQueueSend: a classic mach_msg sender blocked on a full queue.
	WaitQueueSend WaitKind = "queue-send"
	// WaitQueueRecv: a classic mach_msg receiver blocked on an empty
	// queue.
	WaitQueueRecv WaitKind = "queue-recv"
	// WaitKernelLock: a server thread waiting for a kernel lock (a
	// file-server volume) another thread holds.
	WaitKernelLock WaitKind = "lock"
)

// Blocking reports whether the kind is a dependency on the port's owner
// (true) or an idle server waiting for work (false).
func (k WaitKind) Blocking() bool {
	switch k {
	case WaitRendezvous, WaitReply, WaitQueueSend, WaitKernelLock:
		return true
	}
	return false
}

// WaitEdge is one blocked thread's registration: thread → port → owning
// task, or thread → lock → holding thread and its task.  Owner fields are
// zero when the port is dead or ownerless, or the lock between holders.
type WaitEdge struct {
	Task     string   `json:"task"`
	TaskID   uint32   `json:"task_id"`
	Thread   string   `json:"thread"`
	ThreadID uint32   `json:"thread_id"`
	Kind     WaitKind `json:"kind"`
	// PortID is the kernel port identity (a port-set id for set waits).
	PortID      uint64 `json:"port"`
	OwnerTask   string `json:"owner_task,omitempty"`
	OwnerTaskID uint32 `json:"owner_task_id,omitempty"`
	// Op is the message ID in flight, when the wait carries one.
	Op uint32 `json:"op,omitempty"`
	// Lock names the kernel lock a WaitKernelLock edge waits for, and
	// Holder the thread of OwnerTask holding it.
	Lock     string `json:"lock,omitempty"`
	Holder   string `json:"holder,omitempty"`
	HolderID uint32 `json:"holder_id,omitempty"`
}

func (e WaitEdge) String() string {
	var s string
	switch {
	case e.Lock == "":
		s = fmt.Sprintf("%s/%s --%s--> port %d", e.Task, e.Thread, e.Kind, e.PortID)
		if e.OwnerTask != "" {
			s += " [" + e.OwnerTask + "]"
		}
	case e.Holder != "":
		s = fmt.Sprintf("%s/%s --%s--> %s held by %s/%s", e.Task, e.Thread, e.Kind, e.Lock, e.OwnerTask, e.Holder)
	default:
		s = fmt.Sprintf("%s/%s --%s--> %s", e.Task, e.Thread, e.Kind, e.Lock)
	}
	if e.Op != 0 {
		s += fmt.Sprintf(" op=%#04x", e.Op)
	}
	return s
}

// FindCycles runs cycle detection over the blocking edges of the graph at
// task granularity: task A depends on task B when any of A's threads is
// blocked sending to a port whose receive right B holds.  Task
// granularity is the useful diagnosis plane — "the file server is waiting
// on the registry which is waiting on the file server" — and
// deliberately over-approximates thread-level liveness (two threads of
// one pool can wait on each other's ports without deadlock); a stall
// detector dumps only when nothing progresses, so a reported cycle under
// a real stall is the culprit.  Each cycle is returned as its edge chain:
// thread → port → owner-task(= next edge's task) → ... back to the first.
func FindCycles(edges []WaitEdge) [][]WaitEdge {
	// Adjacency over blocking edges with a live owner.  Self-edges
	// (a task's thread calling another port of its own task) are kept:
	// a single-threaded server calling itself is the simplest deadlock.
	// A lock edge inside one task is not: a pool slot waiting for a lock
	// its sibling holds is ordinary queueing, and whatever the holder
	// waits on carries the dependency onward in an edge of its own.
	adj := make(map[uint32][]WaitEdge)
	var nodes []uint32
	for _, e := range edges {
		if !e.Kind.Blocking() || e.OwnerTaskID == 0 ||
			(e.Kind == WaitKernelLock && e.OwnerTaskID == e.TaskID) {
			continue
		}
		if _, ok := adj[e.TaskID]; !ok {
			nodes = append(nodes, e.TaskID)
		}
		adj[e.TaskID] = append(adj[e.TaskID], e)
	}
	slices.Sort(nodes)
	for _, es := range adj {
		slices.SortFunc(es, func(a, b WaitEdge) int {
			return cmp.Or(cmp.Compare(a.OwnerTaskID, b.OwnerTaskID), cmp.Compare(a.ThreadID, b.ThreadID))
		})
	}

	var cycles [][]WaitEdge
	seen := make(map[string]bool) // canonical cycle keys, deduped across DFS roots
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := make(map[uint32]int)
	var stack []WaitEdge // edge chain of the current DFS path

	var dfs func(u uint32)
	dfs = func(u uint32) {
		state[u] = grey
		for _, e := range adj[u] {
			v := e.OwnerTaskID
			switch state[v] {
			case grey:
				// Back edge: the cycle is the stack suffix from v plus e.
				start := 0
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i].TaskID == v {
						start = i
						break
					}
				}
				cyc := append(append([]WaitEdge(nil), stack[start:]...), e)
				if key := cycleKey(cyc); !seen[key] {
					seen[key] = true
					cycles = append(cycles, cyc)
				}
			case white:
				stack = append(stack, e)
				dfs(v)
				stack = stack[:len(stack)-1]
			}
		}
		state[u] = black
	}
	for _, n := range nodes {
		if state[n] == white {
			dfs(n)
		}
	}
	return cycles
}

// cycleKey canonicalizes a cycle (rotation-invariant) so the same loop
// found from two DFS roots dedupes.
func cycleKey(cyc []WaitEdge) string {
	ids := make([]string, len(cyc))
	for i, e := range cyc {
		ids[i] = fmt.Sprintf("%d>%d", e.TaskID, e.OwnerTaskID)
	}
	best := 0
	for i := 1; i < len(ids); i++ {
		if rotLess(ids, i, best) {
			best = i
		}
	}
	rot := append(append([]string(nil), ids[best:]...), ids[:best]...)
	return strings.Join(rot, ";")
}

func rotLess(ids []string, a, b int) bool {
	n := len(ids)
	for i := 0; i < n; i++ {
		x, y := ids[(a+i)%n], ids[(b+i)%n]
		if x != y {
			return x < y
		}
	}
	return false
}

// RenderCycle formats one cycle as the thread→port→thread chain a human
// reads off a dump: "ping/server --reply--> port 7 [pong]; pong/worker
// --rendezvous--> port 5 [ping]".
func RenderCycle(cyc []WaitEdge) string {
	parts := make([]string, len(cyc))
	for i, e := range cyc {
		parts[i] = e.String()
	}
	return strings.Join(parts, "; ")
}
