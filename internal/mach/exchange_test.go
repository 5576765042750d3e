package mach

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/ktrace"
)

// The call lifecycle around a passive server's slots: the deadline bounds
// only the wait for a slot, a call that has a slot always completes, and
// nothing a caller keeps changes under its later calls.
// scripts/check.sh runs these under -race -count=50.

// exchangeClient returns a client thread with a send right to recv.
func exchangeClient(t *testing.T, k *Kernel, srv *Task, recv PortName) (*Thread, PortName) {
	t.Helper()
	cli := k.NewTask("client")
	t.Cleanup(cli.Terminate)
	send, err := cli.InsertRight(srv, recv, DispMakeSend)
	if err != nil {
		t.Fatal(err)
	}
	th, err := cli.NewBoundThread("main")
	if err != nil {
		t.Fatal(err)
	}
	return th, send
}

// A reply kept across 100 later calls is unchanged, and so is the request
// it answered — even when the handler answers with the request header it
// was given, which lives in the server's slot.
func TestExchangeReplyKeptAcrossCalls(t *testing.T) {
	k := newTestKernel()
	srv, recv := startServer(t, k, func(m *Message) *Message {
		m.ID += 1000
		return m
	})
	t.Cleanup(srv.Terminate)
	th, send := exchangeClient(t, k, srv, recv)

	req := &Message{ID: 1, Body: []byte("first")}
	kept, err := th.Call(send, req, CallOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := *kept
	for i := 0; i < 100; i++ {
		if _, err := th.Call(send, &Message{ID: MsgID(2 + i), Body: []byte{byte(i)}}, CallOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if kept.ID != 1001 || string(kept.Body) != "first" || kept.Seq != want.Seq || kept.Seq == 0 {
		t.Fatalf("kept reply changed under later calls: %+v, was %+v", *kept, want)
	}
	if req.ID != 1 || req.Seq != 0 || req.rec != nil {
		t.Fatalf("the kernel wrote into the caller's request: %+v", *req)
	}
}

// slotTimeout is the deadline of a call that finds every slot busy.
const slotTimeout = 20 * time.Millisecond

// holdAbove is a handler that holds every request with an ID of at least
// 1000, signalling entered as it takes one, until hold is closed.
func holdAbove(entered chan<- struct{}, hold <-chan struct{}) func(PortName, *Message) *Message {
	return func(_ PortName, m *Message) *Message {
		if m.ID >= 1000 {
			entered <- struct{}{}
			<-hold
		}
		return &Message{ID: m.ID + 1}
	}
}

// timeoutWhileBusy fills all n slots of the server on recv with held
// calls, each from a thread of its own, then times out one call on th
// while they hold: the deadline fires in the wait for a slot and the
// handler never sees that call.  Released, each held call gets its own
// reply, and th's next calls get theirs.
func timeoutWhileBusy(t *testing.T, k *Kernel, srv *Task, recv PortName, n int, entered chan struct{}, hold chan struct{}) {
	t.Helper()
	th, send := exchangeClient(t, k, srv, recv)
	if _, err := th.Call(send, &Message{ID: 100}, CallOpts{}); err != nil {
		t.Fatal(err)
	}
	held := make(chan error, n)
	for i := 0; i < n; i++ {
		hth, hsend := exchangeClient(t, k, srv, recv)
		id := MsgID(1000 + i)
		go func() {
			reply, err := hth.Call(hsend, &Message{ID: id}, CallOpts{})
			if err == nil && reply.ID != id+1 {
				err = fmt.Errorf("held call %d got reply %d", id, reply.ID)
			}
			held <- err
		}()
	}
	for i := 0; i < n; i++ {
		<-entered
	}
	if _, err := th.Call(send, &Message{ID: 1}, CallOpts{Timeout: slotTimeout}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	close(hold)
	for i := 0; i < n; i++ {
		if err := <-held; err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []MsgID{40, 50} {
		reply, err := th.Call(send, &Message{ID: id}, CallOpts{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("call %d after the timeout: %v", id, err)
		}
		if reply.ID != id+1 {
			t.Fatalf("call %d got reply %d: another call's", id, reply.ID)
		}
	}
}

func TestExchangeTimeoutThenReuse(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	t.Cleanup(srv.Terminate)
	recv, _ := srv.AllocatePort()
	entered, hold := make(chan struct{}), make(chan struct{})
	h := holdAbove(entered, hold)
	if _, err := srv.ServePool("pool", recv, 2, func(m *Message) *Message { return h(recv, m) }); err != nil {
		t.Fatal(err)
	}
	timeoutWhileBusy(t, k, srv, recv, 2, entered, hold)
}

// The same through a port set, whose member ports share the set's slots.
func TestExchangeTimeoutThenReuseThroughSet(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	t.Cleanup(srv.Terminate)
	recv, _ := srv.AllocatePort()
	ps, err := srv.AllocatePortSet()
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.AddMember(recv); err != nil {
		t.Fatal(err)
	}
	entered, hold := make(chan struct{}), make(chan struct{})
	if _, err := srv.ServeSetPool("set", ps, 2, holdAbove(entered, hold)); err != nil {
		t.Fatal(err)
	}
	timeoutWhileBusy(t, k, srv, recv, 2, entered, hold)
}

// A pool slot killed mid-handler leaves no caller hung: its handler runs
// on and its caller gets the reply, but the slot is not freed again, so a
// second caller times out waiting for one — until RespawnWorker makes a
// fresh slot, which serves the next call while the killed slot's handler
// is still running.
func TestExchangeKilledWorkerThenReuse(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	t.Cleanup(srv.Terminate)
	recv, _ := srv.AllocatePort()
	entered, hold := make(chan struct{}), make(chan struct{})
	h := holdAbove(entered, hold)
	pool, err := srv.ServePool("pool", recv, 1, func(m *Message) *Message { return h(recv, m) })
	if err != nil {
		t.Fatal(err)
	}
	hth, hsend := exchangeClient(t, k, srv, recv)
	held := make(chan error, 1)
	go func() {
		reply, err := hth.Call(hsend, &Message{ID: 1000}, CallOpts{})
		if err == nil && reply.ID != 1001 {
			err = fmt.Errorf("killed slot's call got reply %d", reply.ID)
		}
		held <- err
	}()
	<-entered
	if !pool.KillWorker(0) {
		t.Fatal("the slot was not killed mid-handler")
	}

	th, send := exchangeClient(t, k, srv, recv)
	if _, err := th.Call(send, &Message{ID: 1}, CallOpts{Timeout: slotTimeout}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if err := pool.RespawnWorker(0); err != nil {
		t.Fatal(err)
	}
	reply, err := th.Call(send, &Message{ID: 40}, CallOpts{Timeout: 5 * time.Second})
	if err != nil || reply.ID != 41 {
		t.Fatalf("call after the respawn: reply %v, err %v", reply, err)
	}
	close(hold)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if reply, err := th.Call(send, &Message{ID: 50}, CallOpts{Timeout: 5 * time.Second}); err != nil || reply.ID != 51 {
		t.Fatalf("call after the killed slot's reply: reply %v, err %v", reply, err)
	}
	if n := pool.LiveWorkers(); n != 1 {
		t.Fatalf("LiveWorkers = %d, want 1", n)
	}
}

// TestReusedRequestIsRoot: a message sent twice makes two root calls.
// The call's record rides on the delivered header, not on the caller's
// message, so the second call is not parented to the first, closed one.
func TestReusedRequestIsRoot(t *testing.T) {
	k := newTestKernel()
	tr := ktrace.Attach(k.CPU)
	t.Cleanup(func() { ktrace.Detach(k.CPU) })
	srv, recv := startServer(t, k, func(*Message) *Message { return &Message{} })
	t.Cleanup(srv.Terminate)
	th, send := exchangeClient(t, k, srv, recv)

	req := &Message{ID: 7}
	for i := 0; i < 2; i++ {
		if _, err := th.Call(send, req, CallOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	var calls []cpu.Event
	for _, e := range tr.Events() {
		if e.Type == cpu.EvRPC && e.Phase == cpu.PhaseBegin {
			calls = append(calls, e)
		}
	}
	if len(calls) != 2 {
		t.Fatalf("%d call records, want 2", len(calls))
	}
	for i, c := range calls {
		if c.ParentID != 0 {
			t.Errorf("call %d: span %d of trace %d, parent %d: want a root", i, c.SpanID, c.TraceID, c.ParentID)
		}
	}
	if calls[0].TraceID == calls[1].TraceID {
		t.Errorf("both calls in trace %d", calls[0].TraceID)
	}
}
