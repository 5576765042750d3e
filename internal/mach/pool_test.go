package mach

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// --- RPC lifecycle edges -----------------------------------------------------

// A timeout that fires while the server is still running the handler must
// abandon the exchange: the client returns ErrTimeout, the late reply is
// discarded rather than resurrecting the call, and — the bug this guards
// against — no leaked goroutine keeps charging the cost model.  The next
// RPC on the same port must get its own fresh reply, not the stale one.
func TestTimeoutDuringServerProcessing(t *testing.T) {
	k := newTestKernel()
	release := make(chan struct{})
	var calls int
	var mu sync.Mutex
	srv, recv := startServer(t, k, func(m *Message) *Message {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			<-release // hold the first request past the client's deadline
		}
		return &Message{ID: m.ID + 1}
	})
	defer srv.Terminate()

	client := k.NewTask("client")
	defer client.Terminate()
	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	th, _ := client.NewBoundThread("main")

	if _, err := th.Call(sendName, &Message{ID: 1}, CallOpts{Timeout: 20 * time.Millisecond}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	close(release) // server finishes; its reply must be discarded

	reply, err := th.Call(sendName, &Message{ID: 40}, CallOpts{})
	if err != nil {
		t.Fatalf("follow-up RPC: %v", err)
	}
	if reply.ID != 41 {
		t.Fatalf("follow-up got stale reply: ID=%d, want 41", reply.ID)
	}
}

// Destroying a port must unblock a client parked in the rendezvous with
// ErrDeadPort, not strand it forever (no server thread will ever take the
// exchange from a dead port).
func TestPortDestroyUnblocksRendezvous(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	recv, _ := srv.AllocatePort() // never served
	client := k.NewTask("client")
	defer client.Terminate()
	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	th, _ := client.NewBoundThread("main")

	done := make(chan error, 1)
	go func() {
		_, err := th.Call(sendName, &Message{ID: 7}, CallOpts{})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the client reach the rendezvous
	if err := srv.DeallocatePort(recv); err != nil {
		t.Fatalf("DeallocatePort: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrDeadPort) {
			t.Fatalf("err = %v, want ErrDeadPort", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("client still blocked after port destruction")
	}
}

// A reply the server cannot deliver must still resolve the exchange: the
// client unblocks with ErrReplyFailed (not a hang), the server sees the
// underlying error, and the server loop keeps serving.
func TestReplyRightsFailureUnblocksClient(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	defer srv.Terminate()
	recv, _ := srv.AllocatePort()

	replyErrs := make(chan error, 4)
	_, err := srv.Spawn("loop", func(th *Thread) {
		for {
			req, resp, err := th.RPCReceive(recv)
			if err != nil {
				return
			}
			var reply *Message
			switch req.ID {
			case 1: // carry a right under a name the server never held
				reply = &Message{Rights: []PortRight{{Name: PortName(99999), Disposition: DispCopySend}}}
			case 2: // oversized inline body
				reply = &Message{Body: make([]byte, InlineMax+1)}
			default:
				reply = &Message{ID: req.ID + 1}
			}
			replyErrs <- resp.Reply(reply)
		}
	})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}

	client := k.NewTask("client")
	defer client.Terminate()
	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	th, _ := client.NewBoundThread("main")

	for id, wantSrv := range map[MsgID]error{1: ErrInvalidName, 2: ErrMsgTooLarge} {
		callDone := make(chan error, 1)
		go func() {
			_, err := th.Call(sendName, &Message{ID: id}, CallOpts{})
			callDone <- err
		}()
		select {
		case err := <-callDone:
			if !errors.Is(err, ErrReplyFailed) {
				t.Fatalf("ID %d: client err = %v, want ErrReplyFailed", id, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("ID %d: client deadlocked on failed reply", id)
		}
		if err := <-replyErrs; !errors.Is(err, wantSrv) {
			t.Fatalf("ID %d: server Reply err = %v, want %v", id, err, wantSrv)
		}
	}

	// The same server loop must still answer a well-formed request.
	reply, err := th.Call(sendName, &Message{ID: 10}, CallOpts{})
	if err != nil || reply.ID != 11 {
		t.Fatalf("server loop dead after failed replies: reply=%v err=%v", reply, err)
	}
}

// --- server pools ------------------------------------------------------------

// A pool of N threads on one receive right must drain concurrent clients,
// spread work across more than one worker, and answer every request
// correctly (run under -race via scripts/check.sh).
func TestServePoolConcurrentClients(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	defer srv.Terminate()
	recv, _ := srv.AllocatePort()

	var mu sync.Mutex
	handled := make(map[MsgID]int) // shared server state, per the contract
	pool, err := srv.ServePool("workers", recv, 4, func(m *Message) *Message {
		mu.Lock()
		handled[m.ID]++
		mu.Unlock()
		return &Message{ID: m.ID + 1000, Body: m.Body}
	})
	if err != nil {
		t.Fatalf("ServePool: %v", err)
	}
	if pool.Size() != 4 {
		t.Fatalf("Size = %d, want 4", pool.Size())
	}

	const clients, opsEach = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := k.NewTask(fmt.Sprintf("client%d", c))
			defer task.Terminate()
			sendName, err := task.InsertRight(srv, recv, DispMakeSend)
			if err != nil {
				errs <- err
				return
			}
			th, _ := task.NewBoundThread("main")
			for i := 0; i < opsEach; i++ {
				id := MsgID(c*opsEach + i)
				reply, err := th.Call(sendName, &Message{ID: id}, CallOpts{})
				if err != nil {
					errs <- fmt.Errorf("client %d op %d: %w", c, i, err)
					return
				}
				if reply.ID != id+1000 {
					errs <- fmt.Errorf("client %d op %d: reply ID %d", c, i, reply.ID)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := settledOps(pool, clients*opsEach); got != clients*opsEach {
		t.Fatalf("pool.Ops = %d, want %d", got, clients*opsEach)
	}
	mu.Lock()
	unique := len(handled)
	mu.Unlock()
	if unique != clients*opsEach {
		t.Fatalf("handled %d unique requests, want %d", unique, clients*opsEach)
	}
	busy := 0
	for _, n := range pool.WorkerOps() {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d of 4 workers did any work; pool is not spreading load", busy)
	}

	// Destroying the port retires the whole pool.
	if err := srv.DeallocatePort(recv); err != nil {
		t.Fatalf("DeallocatePort: %v", err)
	}
	waited := make(chan struct{})
	go func() { pool.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(2 * time.Second):
		t.Fatal("pool workers did not exit after port destruction")
	}
}

// A pool over a port set: many object ports, a fixed pool, no thread per
// port — the handler sees which member port each request arrived on.
func TestServeSetPool(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	defer srv.Terminate()
	ps, err := srv.AllocatePortSet()
	if err != nil {
		t.Fatalf("AllocatePortSet: %v", err)
	}

	const members = 6
	names := make([]PortName, members)
	for i := range names {
		n, err := srv.AllocatePort()
		if err != nil {
			t.Fatalf("AllocatePort: %v", err)
		}
		if err := ps.AddMember(n); err != nil {
			t.Fatalf("AddMember: %v", err)
		}
		names[i] = n
	}

	pool, err := srv.ServeSetPool("objects", ps, 3, func(port PortName, m *Message) *Message {
		return &Message{ID: MsgID(port), Body: m.Body}
	})
	if err != nil {
		t.Fatalf("ServeSetPool: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, members)
	for i, n := range names {
		i, n := i, n
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := k.NewTask(fmt.Sprintf("user%d", i))
			defer task.Terminate()
			sendName, err := task.InsertRight(srv, n, DispMakeSend)
			if err != nil {
				errs <- err
				return
			}
			th, _ := task.NewBoundThread("main")
			for j := 0; j < 10; j++ {
				reply, err := th.Call(sendName, &Message{ID: 1}, CallOpts{})
				if err != nil {
					errs <- fmt.Errorf("member %d: %w", i, err)
					return
				}
				if reply.ID != MsgID(n) {
					errs <- fmt.Errorf("member %d: routed to port %d, want %d", i, reply.ID, n)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := settledOps(pool, members*10); got != members*10 {
		t.Fatalf("pool.Ops = %d, want %d", got, members*10)
	}
}

// settledOps reads pool.Ops once the workers have caught up to want: a
// worker counts an op after its reply has already woken the client, so
// the last few may still be in flight when the clients are done.
func settledOps(pool *ServerPool, want uint64) uint64 {
	for deadline := time.Now().Add(time.Second); pool.Ops() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return pool.Ops()
}
