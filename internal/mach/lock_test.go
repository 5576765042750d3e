package mach

import (
	"testing"
	"time"

	"repro/internal/kflight"
	"repro/internal/klat"
)

// lockEdges returns the wait-for graph's kernel-lock edges.
func lockEdges(k *Kernel) []kflight.WaitEdge {
	var out []kflight.WaitEdge
	for _, e := range k.WaitEdges() {
		if e.Kind == kflight.WaitKernelLock {
			out = append(out, e)
		}
	}
	return out
}

// awaitLockEdge polls the wait-for graph until it shows exactly one lock
// edge, and returns it; false if none shows within ten seconds.
func awaitLockEdge(k *Kernel) (kflight.WaitEdge, bool) {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		if es := lockEdges(k); len(es) == 1 {
			return es[0], true
		}
	}
	return kflight.WaitEdge{}, false
}

// TestLockFIFOHandoff: two requests served on a pool of two take one
// kernel lock.  The holder lets go and asks again at once, while the
// other request is already waiting: the waiter gets the lock first, and
// the holder queues behind it.  A host mutex lets the releaser barge
// past the woken waiter and fails this.  On the way, the wait-for graph
// shows each blocked acquirer — waiter → lock → holder, with the
// request's operation — until its handoff, and the latency ledger marks
// the wait under the lock's name.
func TestLockFIFOHandoff(t *testing.T) {
	k := newTestKernel()
	lt := klat.Attach(k.CPU)
	defer klat.Detach(k.CPU)
	srv := k.NewTask("server")
	defer srv.Terminate()
	recv, err := srv.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	const (
		holdOp = MsgID(0x11)
		waitOp = MsgID(0x22)
		stall  = 5000
	)
	l := NewLock("volume:/test")
	held, release := make(chan struct{}), make(chan struct{})
	var order []MsgID // appended holding l
	var handoff []kflight.WaitEdge
	if _, err := srv.ServePool("pool", recv, 2, func(m *Message) *Message {
		l.Acquire(m)
		if m.ID == holdOp {
			held <- struct{}{}
			<-release
			l.Release()
			l.Acquire(m) // at once, behind the waiter
		} else {
			// The waiter holds l now: its own wait is gone, and the
			// holder's second acquire queues behind it.
			if e, ok := awaitLockEdge(k); ok {
				handoff = append(handoff, e)
			}
		}
		order = append(order, m.ID)
		l.Release()
		return &Message{}
	}); err != nil {
		t.Fatal(err)
	}

	cli := k.NewTask("client")
	defer cli.Terminate()
	send, err := cli.InsertRight(srv, recv, DispMakeSend)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	call := func(id MsgID) {
		th, _ := cli.NewBoundThread("main")
		if _, err := th.Call(send, &Message{ID: id}, CallOpts{}); err != nil {
			t.Errorf("call %#x: %v", id, err)
		}
		done <- struct{}{}
	}
	go call(holdOp)
	<-held
	go call(waitOp)
	waiting, ok := awaitLockEdge(k)
	if !ok {
		t.Fatalf("no lock wait in the wait-for graph: %v", k.WaitEdges())
	}
	k.CPU.Stall(stall)
	close(release)
	<-done
	<-done

	if len(order) != 2 || order[0] != waitOp || order[1] != holdOp {
		t.Fatalf("lock taken in order %#x, want the waiter %#x before the releaser %#x", order, waitOp, holdOp)
	}
	if waiting.Task != "server" || waiting.OwnerTask != "server" || waiting.Lock != "volume:/test" ||
		waiting.Op != uint32(waitOp) || waiting.Holder == "" || waiting.HolderID == waiting.ThreadID {
		t.Fatalf("waiter's edge = %+v, want a server slot waiting for volume:/test held by the other slot", waiting)
	}
	if len(handoff) != 1 {
		t.Fatalf("the waiter saw %d lock edges after its handoff", len(handoff))
	}
	if requeued := handoff[0]; requeued.ThreadID != waiting.HolderID || requeued.HolderID != waiting.ThreadID ||
		requeued.Op != uint32(holdOp) {
		t.Fatalf("after the handoff the graph shows %+v, want the first holder waiting for the waiter (%+v)", requeued, waiting)
	}
	if es := lockEdges(k); len(es) != 0 {
		t.Fatalf("lock edges outlive the handoffs: %v", es)
	}
	for _, f := range lt.Dump().Families {
		if f.Server == "server" && f.Op == uint32(waitOp) {
			if got := f.Exemplars[0].Marks["volume:/test"]; got < stall {
				t.Fatalf("waiter's ledger marks %d cycles on the lock, want >= %d", got, stall)
			}
			return
		}
	}
	t.Fatal("the waiter's request left no ledger")
}

// TestLockUncontendedAllocatesNothing: a free lock is taken and given
// back without an allocation and registers no wait.
func TestLockUncontendedAllocatesNothing(t *testing.T) {
	k := newTestKernel()
	l := NewLock("volume:/")
	req := &Message{ID: 1}
	if n := testing.AllocsPerRun(100, func() {
		l.Acquire(req)
		l.Release()
	}); n != 0 {
		t.Fatalf("uncontended acquire/release allocates %.1f times", n)
	}
	if es := k.WaitEdges(); len(es) != 0 {
		t.Fatalf("uncontended lock registered waits: %v", es)
	}
}

// TestLockWaitFromCarrierSub: a sub-request of a CallV carrier that
// waits on a kernel lock shows in the wait-for graph as its serving
// slot's wait, like a plain request's, and a sub header the handler
// echoes back reaches the caller intact.
func TestLockWaitFromCarrierSub(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	defer srv.Terminate()
	recv, err := srv.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	const holdOp, subOp = MsgID(0x11), MsgID(0x22)
	l := NewLock("volume:/test")
	held, release := make(chan struct{}), make(chan struct{})
	if _, err := srv.ServePool("pool", recv, 2, func(m *Message) *Message {
		l.Acquire(m)
		defer l.Release()
		if m.ID == holdOp {
			held <- struct{}{}
			<-release
			return &Message{}
		}
		return m
	}); err != nil {
		t.Fatal(err)
	}
	cli := k.NewTask("client")
	defer cli.Terminate()
	send, err := cli.InsertRight(srv, recv, DispMakeSend)
	if err != nil {
		t.Fatal(err)
	}
	holder, _ := cli.NewBoundThread("holder")
	batcher, _ := cli.NewBoundThread("batcher")
	done := make(chan []*Message, 1)
	go func() {
		if _, err := holder.Call(send, &Message{ID: holdOp}, CallOpts{}); err != nil {
			t.Errorf("hold call: %v", err)
		}
	}()
	<-held
	go func() {
		replies, err := batcher.CallV(send, []*Message{{ID: subOp, Body: []byte("a")}, {ID: subOp, Body: []byte("b")}}, CallOpts{})
		if err != nil {
			t.Errorf("CallV: %v", err)
		}
		done <- replies
	}()
	e, ok := awaitLockEdge(k)
	close(release)
	replies := <-done
	if !ok {
		t.Fatalf("a carrier sub's lock wait is missing from the wait-for graph: %v", k.WaitEdges())
	}
	if e.Task != "server" || e.Lock != "volume:/test" || e.Op != uint32(subOp) || e.Holder == "" || e.HolderID == e.ThreadID {
		t.Fatalf("sub's edge = %+v, want a server slot waiting for volume:/test held by the other slot", e)
	}
	if len(replies) != 2 || replies[0].ID != subOp || string(replies[0].Body) != "a" || string(replies[1].Body) != "b" {
		t.Fatalf("echoed sub-replies = %+v", replies)
	}
}
