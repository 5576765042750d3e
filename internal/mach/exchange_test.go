package mach

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/ktrace"
)

// The exchange-reuse lifecycle: a thread's calls share one exchange, an
// abandoned one is never reused, and nothing a caller keeps changes under
// its later calls.  scripts/check.sh runs these under -race -count=50.

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
// was given, which lives in the caller's exchange.
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

// heldTimeout is the deadline of a call whose handler holds it: long
// enough that an idle server takes the request well before it fires, so
// the deadline expires after the hand-off.  Each test checks that it did.
const heldTimeout = 100 * time.Millisecond

// timeoutThenReuse drives one call past its deadline while the handler
// still holds it, then calls again on the same thread at once while the
// late reply is released: the new call gets only its own reply, on an
// exchange other than the abandoned one, and so does the call after it.
func timeoutThenReuse(t *testing.T, th *Thread, send PortName, entered, hold chan struct{}) {
	t.Helper()
	if _, err := th.Call(send, &Message{ID: 100}, CallOpts{}); err != nil {
		t.Fatal(err)
	}
	abandoned := th.ex.Load()
	if _, err := th.Call(send, &Message{ID: 1}, CallOpts{Timeout: heldTimeout}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	select {
	case <-entered:
	default:
		// The call never reached the handler: only the rendezvous timeout
		// ran, and there is no late reply to race.
		t.Fatal("the call timed out before the handler took it")
	}
	close(hold) // the late reply races the next call
	for _, id := range []MsgID{40, 50} {
		reply, err := th.Call(send, &Message{ID: id}, CallOpts{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("call %d after the timeout: %v", id, err)
		}
		if reply.ID != id+1 {
			t.Fatalf("call %d got reply %d: another call's", id, reply.ID)
		}
		if th.ex.Load() == abandoned {
			t.Fatal("the abandoned exchange was reused")
		}
	}
}

// holdFirst is a handler that closes entered when it takes request 1 and
// holds it until hold is closed.
func holdFirst(entered, hold chan struct{}) Handler {
	return func(m *Message) *Message {
		if m.ID == 1 {
			close(entered)
			<-hold
		}
		return &Message{ID: m.ID + 1}
	}
}

func TestExchangeTimeoutThenReuse(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	t.Cleanup(srv.Terminate)
	recv, _ := srv.AllocatePort()
	entered, hold := make(chan struct{}), make(chan struct{})
	if _, err := srv.ServePool("pool", recv, 2, holdFirst(entered, hold)); err != nil {
		t.Fatal(err)
	}
	th, send := exchangeClient(t, k, srv, recv)
	timeoutThenReuse(t, th, send, entered, hold)
}

// The same through a port set, where a forwarder relays the exchange.
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
	h := holdFirst(entered, hold)
	if _, err := srv.ServeSetPool("set", ps, 2, func(_ PortName, m *Message) *Message { return h(m) }); err != nil {
		t.Fatal(err)
	}
	th, send := exchangeClient(t, k, srv, recv)
	timeoutThenReuse(t, th, send, entered, hold)
}

// A pool worker killed mid-handler, while its caller waits for the reply,
// leaves no caller hung, and the caller's next call, served by the
// respawned worker, succeeds on a fresh exchange while the killed worker's
// handler is still running.
//
// The error path is the caller's own deadline.  KillWorker does not
// resolve the exchange its worker holds: the handler runs on and its reply
// stays deliverable (see KillWorker), so what unblocks the caller is
// ErrTimeout from the reply wait, and the late reply is later discarded.
func TestExchangeKilledWorkerThenReuse(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	t.Cleanup(srv.Terminate)
	recv, _ := srv.AllocatePort()
	entered, hold := make(chan struct{}), make(chan struct{})
	pool, err := srv.ServePool("pool", recv, 1, func(m *Message) *Message {
		if m.ID == 1 {
			close(entered)
			<-hold
		}
		return &Message{ID: m.ID + 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	th, send := exchangeClient(t, k, srv, recv)
	if _, err := th.Call(send, &Message{ID: 100}, CallOpts{}); err != nil {
		t.Fatal(err)
	}
	abandoned := th.ex.Load()

	// The killer reports whether it killed the worker before the call
	// returned: returned is set only once the call is back.
	var returned atomic.Bool
	killed := make(chan bool, 1)
	go func() {
		<-entered
		ok := pool.KillWorker(0)
		killed <- ok && !returned.Load()
	}()
	_, err = th.Call(send, &Message{ID: 1}, CallOpts{Timeout: heldTimeout})
	returned.Store(true)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	select {
	case <-entered:
	default:
		t.Fatal("the call timed out before the handler took it")
	}
	if !<-killed {
		t.Fatal("the worker was not killed mid-handler while its caller waited")
	}
	if err := pool.RespawnWorker(0); err != nil {
		t.Fatal(err)
	}
	reply, err := th.Call(send, &Message{ID: 40}, CallOpts{Timeout: 5 * time.Second})
	if err != nil || reply.ID != 41 {
		t.Fatalf("call after the kill: reply %v, err %v", reply, err)
	}
	if th.ex.Load() == abandoned {
		t.Fatal("the abandoned exchange was reused")
	}
	close(hold) // the killed worker's late reply is discarded
	if reply, err := th.Call(send, &Message{ID: 50}, CallOpts{Timeout: 5 * time.Second}); err != nil || reply.ID != 51 {
		t.Fatalf("call after the late reply: reply %v, err %v", reply, err)
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
