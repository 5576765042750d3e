package mach

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// --- RPC lifecycle edges -----------------------------------------------------

// A deadline bounds only the wait for a slot.  With the one slot of a
// Serve server held by another thread's call, a timed call fails with
// ErrTimeout and never reaches the handler; the held call, whose handler
// had started, still completes with its own reply, and the next call on
// the timed-out thread gets its own fresh one.
func TestTimeoutDuringServerProcessing(t *testing.T) {
	k := newTestKernel()
	entered, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var seen []MsgID
	srv, recv := startServer(t, k, func(m *Message) *Message {
		mu.Lock()
		seen = append(seen, m.ID)
		mu.Unlock()
		if m.ID == 1 {
			close(entered)
			<-release // hold the slot past the other client's deadline
		}
		return &Message{ID: m.ID + 1}
	})
	defer srv.Terminate()

	client := k.NewTask("client")
	defer client.Terminate()
	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	holder, _ := client.NewBoundThread("holder")
	th, _ := client.NewBoundThread("main")

	held := make(chan *Message, 1)
	go func() {
		reply, err := holder.Call(sendName, &Message{ID: 1}, CallOpts{})
		if err != nil {
			t.Error(err)
		}
		held <- reply
	}()
	<-entered
	if _, err := th.Call(sendName, &Message{ID: 20}, CallOpts{Timeout: 20 * time.Millisecond}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	close(release)
	if reply := <-held; reply == nil || reply.ID != 2 {
		t.Fatalf("held call got %v, want reply 2", reply)
	}

	reply, err := th.Call(sendName, &Message{ID: 40}, CallOpts{})
	if err != nil {
		t.Fatalf("follow-up RPC: %v", err)
	}
	if reply.ID != 41 {
		t.Fatalf("follow-up got stale reply: ID=%d, want 41", reply.ID)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 40 {
		t.Fatalf("handler saw %v, want [1 40]: the timed-out call must not run", seen)
	}
}

// Destroying a port must unblock a client waiting for a slot with
// ErrDeadPort, not strand it forever (nothing will ever serve a dead
// port).
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
	time.Sleep(10 * time.Millisecond) // let the client reach the slot wait
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

// A reply the kernel cannot deliver fails the call, not the server: the
// client gets ErrReplyFailed wrapping the cause (a right the server never
// held, an oversized body), and the same server answers the next
// well-formed request.
func TestReplyRightsFailureUnblocksClient(t *testing.T) {
	k := newTestKernel()
	srv, recv := startServer(t, k, func(req *Message) *Message {
		switch req.ID {
		case 1: // carry a right under a name the server never held
			return &Message{Rights: []PortRight{{Name: PortName(99999), Disposition: DispCopySend}}}
		case 2: // oversized inline body
			return &Message{Body: make([]byte, InlineMax+1)}
		}
		return &Message{ID: req.ID + 1}
	})
	defer srv.Terminate()

	client := k.NewTask("client")
	defer client.Terminate()
	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	th, _ := client.NewBoundThread("main")

	for id, cause := range map[MsgID]error{1: ErrInvalidName, 2: ErrMsgTooLarge} {
		_, err := th.Call(sendName, &Message{ID: id}, CallOpts{})
		if !errors.Is(err, ErrReplyFailed) || !errors.Is(err, cause) {
			t.Fatalf("ID %d: client err = %v, want ErrReplyFailed from %v", id, err, cause)
		}
	}

	// The same server must still answer a well-formed request.
	reply, err := th.Call(sendName, &Message{ID: 10}, CallOpts{})
	if err != nil || reply.ID != 11 {
		t.Fatalf("server dead after failed replies: reply=%v err=%v", reply, err)
	}
}

// --- server pools ------------------------------------------------------------

// Concurrent CallV carriers on a pooled echo server: each carrier mixes a
// region-placed page, an out-of-line buffer and a body-only sub, every
// client refills its buffers with its own bytes each round, and every
// sub-reply must echo its request byte for byte.  A region is shared by
// reference, so a sub whose payload outlived its slot, or a reply
// aliasing another carrier's request, is a data race under -race and a
// wrong byte without it.
func TestConcurrentCarriers(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	defer srv.Terminate()
	recv, _ := srv.AllocatePort()
	xf := Transfer{ZeroCopy: true}
	if _, err := srv.ServePool("echo", recv, 4, func(m *Message) *Message {
		return xf.Place(m.ID, append([]byte(nil), m.Body...), append([]byte(nil), m.Payload()...))
	}); err != nil {
		t.Fatalf("ServePool: %v", err)
	}

	const clients, rounds = 4, 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		task := k.NewTask(fmt.Sprintf("client%d", c))
		defer task.Terminate()
		send, err := task.InsertRight(srv, recv, DispMakeSend)
		if err != nil {
			t.Fatal(err)
		}
		th, _ := task.NewBoundThread("main")
		page, ool, body := make([]byte, PageSize), make([]byte, 100), make([]byte, 8)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, b := range [][]byte{page, ool, body} {
					for j := range b {
						b[j] = byte(c*rounds + r + i + j)
					}
				}
				reqs := []*Message{xf.Place(1, body, page), xf.Place(2, body, ool), {ID: 3, Body: body}}
				if len(reqs[0].Regions) != 1 || reqs[1].OOL == nil {
					errs <- fmt.Errorf("client %d: page not placed by region or buffer not out of line", c)
					return
				}
				replies, err := th.CallV(send, reqs, CallOpts{})
				if err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", c, r, err)
					return
				}
				for i, rep := range replies {
					if rep.ID != reqs[i].ID || !bytes.Equal(rep.Body, body) || !bytes.Equal(rep.Payload(), reqs[i].Payload()) {
						errs <- fmt.Errorf("client %d round %d: sub %d echoed wrong bytes", c, r, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A pool of N slots on one receive right must serve concurrent clients,
// spread work across more than one slot, and answer every request
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

	if got := pool.Ops(); got != clients*opsEach {
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
		t.Errorf("only %d of 4 slots did any work; pool is not spreading load", busy)
	}

	// Destroying the port retires the whole pool, before it returns.
	if err := srv.DeallocatePort(recv); err != nil {
		t.Fatalf("DeallocatePort: %v", err)
	}
	if n := pool.LiveWorkers(); n != 0 {
		t.Fatalf("%d slots alive after the port died", n)
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
	if got := pool.Ops(); got != members*10 {
		t.Fatalf("pool.Ops = %d, want %d", got, members*10)
	}
}
