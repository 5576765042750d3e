package mach

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cpu"
)

func newTestKernel() *Kernel {
	return New(cpu.Pentium133())
}

// startServer spawns a server task with one thread serving h on a fresh
// port, and returns the task plus the server-side receive name.
func startServer(t *testing.T, k *Kernel, h Handler) (*Task, PortName) {
	t.Helper()
	srv := k.NewTask("server")
	recv, err := srv.AllocatePort()
	if err != nil {
		t.Fatalf("AllocatePort: %v", err)
	}
	_, err = srv.Spawn("loop", func(th *Thread) {
		th.Serve(recv, h)
	})
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	return srv, recv
}

func TestRPCRoundTrip(t *testing.T) {
	k := newTestKernel()
	echo := func(m *Message) *Message {
		return &Message{ID: m.ID + 1, Body: m.Body}
	}
	srv, recv := startServer(t, k, echo)
	defer srv.Terminate()

	client := k.NewTask("client")
	defer client.Terminate()
	sendName, err := client.InsertRight(srv, recv, DispMakeSend)
	if err != nil {
		t.Fatalf("InsertRight: %v", err)
	}
	th, _ := client.NewBoundThread("main")
	reply, err := th.Call(sendName, &Message{ID: 100, Body: []byte("hello")}, CallOpts{})
	if err != nil {
		t.Fatalf("RPC: %v", err)
	}
	if reply.ID != 101 || string(reply.Body) != "hello" {
		t.Fatalf("bad reply: %+v", reply)
	}
}

func TestRPCToDeadPort(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	recv, _ := srv.AllocatePort()
	client := k.NewTask("client")
	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	th, _ := client.NewBoundThread("main")
	srv.DeallocatePort(recv) // destroys the port
	if _, err := th.Call(sendName, &Message{}, CallOpts{}); err != ErrDeadPort {
		t.Fatalf("err = %v, want ErrDeadPort", err)
	}
}

func TestRPCInvalidName(t *testing.T) {
	k := newTestKernel()
	client := k.NewTask("client")
	th, _ := client.NewBoundThread("main")
	if _, err := th.Call(PortName(9999), &Message{}, CallOpts{}); err != ErrInvalidName {
		t.Fatalf("err = %v, want ErrInvalidName", err)
	}
}

func TestRPCBodyTooLarge(t *testing.T) {
	k := newTestKernel()
	client := k.NewTask("client")
	th, _ := client.NewBoundThread("main")
	big := make([]byte, InlineMax+1)
	if _, err := th.Call(PortName(1), &Message{Body: big}, CallOpts{}); err != ErrMsgTooLarge {
		t.Fatalf("err = %v, want ErrMsgTooLarge", err)
	}
}

func TestRPCOOLDelivered(t *testing.T) {
	k := newTestKernel()
	var got []byte
	var mu sync.Mutex
	srv, recv := startServer(t, k, func(m *Message) *Message {
		mu.Lock()
		got = m.OOL
		mu.Unlock()
		return &Message{OOL: make([]byte, 8192)}
	})
	defer srv.Terminate()
	client := k.NewTask("client")
	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	th, _ := client.NewBoundThread("main")
	reply, err := th.Call(sendName, &Message{OOL: make([]byte, 100000)}, CallOpts{})
	if err != nil {
		t.Fatalf("RPC: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 100000 {
		t.Fatalf("server saw %d OOL bytes, want 100000", len(got))
	}
	if len(reply.OOL) != 8192 {
		t.Fatalf("client got %d OOL bytes back, want 8192", len(reply.OOL))
	}
}

// TestRPCCarriesSendRight: a right carried in a request lands in the
// server's space under a name of its own, and the handler can call
// through it — here back into a port the client serves, a call nested in
// the handler that runs on the client's own goroutine.
func TestRPCCarriesSendRight(t *testing.T) {
	k := newTestKernel()
	client := k.NewTask("client")
	defer client.Terminate()
	clientRecv, _ := client.AllocatePort()
	if _, err := client.Spawn("backserver", func(th *Thread) {
		th.Serve(clientRecv, func(m *Message) *Message { return &Message{Body: []byte("pong")} })
	}); err != nil {
		t.Fatal(err)
	}

	var srvTh *Thread
	srv, recv := startServer(t, k, func(m *Message) *Message {
		if len(m.Rights) != 1 || m.Rights[0].Name == NullName {
			return &Message{Body: []byte("no right")}
		}
		// Use the carried right from the server task's own thread.
		back, err := srvTh.Call(m.Rights[0].Name, &Message{Body: []byte("ping")}, CallOpts{})
		if err != nil {
			return &Message{Body: []byte(err.Error())}
		}
		return &Message{Body: []byte("ok:" + m.Rights[0].Disposition.str() + ":" + string(back.Body))}
	})
	defer srv.Terminate()
	srvTh, _ = srv.NewBoundThread("caller")

	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	th, _ := client.NewBoundThread("main")
	reply, err := th.Call(sendName, &Message{
		Rights: []PortRight{{Name: clientRecv, Disposition: DispMakeSend}},
	}, CallOpts{})
	if err != nil {
		t.Fatalf("RPC: %v", err)
	}
	if string(reply.Body) != "ok:make-send:pong" {
		t.Fatalf("reply = %q", reply.Body)
	}
	if srv.PortCount() < 2 {
		t.Fatal("server should have gained a right")
	}
}

func (d PortDisposition) str() string {
	switch d {
	case DispMakeSend:
		return "make-send"
	default:
		return "other"
	}
}

func TestSendOnceRightConsumed(t *testing.T) {
	k := newTestKernel()
	srv, recv := startServer(t, k, func(m *Message) *Message { return &Message{} })
	defer srv.Terminate()
	client := k.NewTask("client")
	once, err := client.InsertRight(srv, recv, DispMakeSendOnce)
	if err != nil {
		t.Fatalf("InsertRight: %v", err)
	}
	th, _ := client.NewBoundThread("main")
	if _, err := th.Call(once, &Message{}, CallOpts{}); err != nil {
		t.Fatalf("first send: %v", err)
	}
	if _, err := th.Call(once, &Message{}, CallOpts{}); err != ErrInvalidName {
		t.Fatalf("second send err = %v, want ErrInvalidName", err)
	}
}

func TestMachMsgQueueing(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	recv, _ := srv.AllocatePort()
	client := k.NewTask("client")
	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	cth, _ := client.NewBoundThread("main")
	sth, _ := srv.NewBoundThread("main")

	for i := 0; i < 3; i++ {
		if err := cth.MachMsgSend(sendName, &Message{ID: MsgID(i)}, MsgSend); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		m, err := sth.MachMsgReceive(recv, MsgRcv)
		if err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		if m.ID != MsgID(i) {
			t.Fatalf("out of order: got %d want %d", m.ID, i)
		}
		if m.Seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", m.Seq, i+1)
		}
	}
}

func TestMachMsgQueueFullTimeout(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	recv, _ := srv.AllocatePort()
	client := k.NewTask("client")
	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	th, _ := client.NewBoundThread("main")
	for i := 0; i < DefaultQueueLimit; i++ {
		if err := th.MachMsgSend(sendName, &Message{}, MsgSend|MsgSendTimeout); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if err := th.MachMsgSend(sendName, &Message{}, MsgSend|MsgSendTimeout); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestMachMsgReceiveTimeout(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	recv, _ := srv.AllocatePort()
	th, _ := srv.NewBoundThread("main")
	if _, err := th.MachMsgReceive(recv, MsgRcv|MsgRcvTimeout); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestMachRPCWithReplyPort(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	recv, _ := srv.AllocatePort()
	srv.Spawn("loop", func(th *Thread) {
		th.MachServe(recv, func(m *Message) *Message {
			return &Message{ID: m.ID * 2, Body: m.Body}
		})
	})
	client := k.NewTask("client")
	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	replyName, _ := client.AllocatePort()
	th, _ := client.NewBoundThread("main")
	reply, err := th.MachRPC(sendName, &Message{ID: 21, Body: []byte("x")}, replyName)
	if err != nil {
		t.Fatalf("MachRPC: %v", err)
	}
	if reply.ID != 42 {
		t.Fatalf("reply.ID = %d, want 42", reply.ID)
	}
	srv.Terminate()
}

func TestNotReceiver(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	recv, _ := srv.AllocatePort()
	other := k.NewTask("other")
	// other holds only a send right under a different name; receiving on
	// its own names must fail with ErrInvalidName, and receiving with a
	// stolen name from srv's space is impossible by construction.  Move
	// the receive right and verify the original holder loses it.
	moved, err := other.InsertRight(srv, recv, DispMoveReceive)
	if err != nil {
		t.Fatalf("move receive: %v", err)
	}
	oth, _ := other.NewBoundThread("main")
	if _, err := oth.MachMsgReceive(moved, MsgRcv|MsgRcvTimeout); err != ErrTimeout {
		t.Fatalf("new receiver should own the queue, got %v", err)
	}
	sth, _ := srv.NewBoundThread("main")
	if _, err := sth.MachMsgReceive(recv, MsgRcv|MsgRcvTimeout); err == nil {
		t.Fatal("old receiver should have lost the right")
	}
}

func TestThreadSelfReturnsName(t *testing.T) {
	k := newTestKernel()
	task := k.NewTask("t")
	th, _ := task.NewBoundThread("main")
	if th.Self() == NullName {
		t.Fatal("thread_self returned the null name")
	}
}

func TestTaskTerminateKillsServerLoops(t *testing.T) {
	k := newTestKernel()
	srv, recv := startServer(t, k, func(m *Message) *Message { return &Message{} })
	client := k.NewTask("client")
	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	th, _ := client.NewBoundThread("main")
	if _, err := th.Call(sendName, &Message{}, CallOpts{}); err != nil {
		t.Fatalf("warm-up RPC: %v", err)
	}
	srv.Terminate()
	if _, err := th.Call(sendName, &Message{}, CallOpts{}); err != ErrDeadPort {
		t.Fatalf("post-terminate err = %v, want ErrDeadPort", err)
	}
	if !srv.Dead() {
		t.Fatal("task should be dead")
	}
}

func TestSendRightCoalescing(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	recv, _ := srv.AllocatePort()
	client := k.NewTask("client")
	n1, _ := client.InsertRight(srv, recv, DispMakeSend)
	n2, _ := client.InsertRight(srv, recv, DispMakeSend)
	if n1 != n2 {
		t.Fatalf("send rights to the same port should coalesce: %d != %d", n1, n2)
	}
	// Two references: first dealloc keeps the name alive.
	if err := client.DeallocatePort(n1); err != nil {
		t.Fatalf("dealloc 1: %v", err)
	}
	if _, err := client.ports.lookup(n1, RightSend); err != nil {
		t.Fatalf("name should still be live: %v", err)
	}
	if err := client.DeallocatePort(n1); err != nil {
		t.Fatalf("dealloc 2: %v", err)
	}
	if _, err := client.ports.lookup(n1, RightSend); err == nil {
		t.Fatal("name should be gone after final dealloc")
	}
}

func TestHostInfoAndProcessorSets(t *testing.T) {
	k := newTestKernel()
	info := k.Host().Info()
	if info.Processors != 1 || info.ProcessorSets != 1 {
		t.Fatalf("unexpected host info: %+v", info)
	}
	ps, err := k.Host().CreateSet("realtime")
	if err != nil {
		t.Fatalf("CreateSet: %v", err)
	}
	if _, err := k.Host().CreateSet("realtime"); err == nil {
		t.Fatal("duplicate set must fail")
	}
	task := k.NewTask("rt")
	ps.AssignTask(task)
	if ps.TaskCount() != 1 {
		t.Fatal("task not assigned")
	}
	ps.SetMaxPriority(99)
	if ps.MaxPriority() != 31 {
		t.Fatalf("priority should clamp to 31, got %d", ps.MaxPriority())
	}
	ps.RemoveTask(task)
	if ps.TaskCount() != 0 {
		t.Fatal("task not removed")
	}
	if len(k.Host().Sets()) != 2 {
		t.Fatal("expected two sets")
	}
}

func TestFindTask(t *testing.T) {
	k := newTestKernel()
	task := k.NewTask("findme")
	got, err := k.FindTask(task.ID())
	if err != nil || got != task {
		t.Fatalf("FindTask: %v %v", got, err)
	}
	if _, err := k.FindTask(TaskID(4242)); err != ErrInvalidTask {
		t.Fatalf("missing task err = %v", err)
	}
}

// TestTable2Calibration verifies the Table 2 shape: instructions,
// cycles, bus cycles and CPI ratios between a 32-byte RPC and the
// thread_self trap fall in the paper's neighborhood.
func TestTable2Calibration(t *testing.T) {
	k := newTestKernel()
	srv, recv := startServer(t, k, func(m *Message) *Message {
		return &Message{Body: m.Body}
	})
	defer srv.Terminate()
	client := k.NewTask("client")
	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	th, _ := client.NewBoundThread("main")

	body := make([]byte, 32)
	// Warm up.
	for i := 0; i < 50; i++ {
		if _, err := th.Call(sendName, &Message{Body: body}, CallOpts{}); err != nil {
			t.Fatalf("warmup rpc: %v", err)
		}
	}
	const N = 200
	base := k.CPU.Counters()
	for i := 0; i < N; i++ {
		th.Call(sendName, &Message{Body: body}, CallOpts{})
	}
	rpc := k.CPU.Counters().Sub(base)

	for i := 0; i < 50; i++ {
		th.Self()
	}
	base = k.CPU.Counters()
	for i := 0; i < N; i++ {
		th.Self()
	}
	trap := k.CPU.Counters().Sub(base)

	trapI := float64(trap.Instructions) / N
	rpcI := float64(rpc.Instructions) / N
	trapC := float64(trap.Cycles) / N
	rpcC := float64(rpc.Cycles) / N
	trapB := float64(trap.BusCycles) / N
	rpcB := float64(rpc.BusCycles) / N

	t.Logf("trap: instr=%.0f cycles=%.0f bus=%.0f cpi=%.2f", trapI, trapC, trapB, trapC/trapI)
	t.Logf("rpc:  instr=%.0f cycles=%.0f bus=%.0f cpi=%.2f", rpcI, rpcC, rpcB, rpcC/rpcI)
	t.Logf("ratios: instr=%.2f cycles=%.2f bus=%.2f cpi=%.2f",
		rpcI/trapI, rpcC/trapC, rpcB/trapB, (rpcC/rpcI)/(trapC/trapI))

	check := func(name string, got, lo, hi float64) {
		if got < lo || got > hi {
			t.Errorf("%s ratio = %.2f, want in [%.2f, %.2f]", name, got, lo, hi)
		}
	}
	// Paper: 2.83 / 5.32 / 8.48 / 1.95.
	check("instructions", rpcI/trapI, 2.2, 3.8)
	check("cycles", rpcC/trapC, 3.5, 8.0)
	check("bus cycles", rpcB/trapB, 4.5, 14.0)
	check("CPI", (rpcC/rpcI)/(trapC/trapI), 1.4, 2.9)
	if rpcC/rpcI < trapC/trapI {
		t.Error("RPC CPI must exceed trap CPI (I-cache misses)")
	}
}

// TestIPCImprovementBand checks the "two to ten times improvement"
// claim of the rework across message sizes.
func TestIPCImprovementBand(t *testing.T) {
	for _, size := range []int{0, 32, 1024, 4096, 16384, 65536} {
		ratio := ipcImprovementAt(t, size)
		t.Logf("size %6d: old/new cycle ratio = %.2f", size, ratio)
		if ratio < 1.6 || ratio > 12 {
			t.Errorf("size %d: improvement %.2fx outside the 2x-10x neighborhood", size, ratio)
		}
	}
}

func ipcImprovementAt(t *testing.T, size int) float64 {
	t.Helper()
	k := newTestKernel()
	echo := func(m *Message) *Message { return &Message{} }

	// New path.
	srv, recv := startServer(t, k, echo)
	client := k.NewTask("client")
	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	th, _ := client.NewBoundThread("main")
	mk := func() *Message {
		if size <= InlineMax {
			return &Message{Body: make([]byte, size)}
		}
		return &Message{OOL: make([]byte, size)}
	}
	for i := 0; i < 30; i++ {
		th.Call(sendName, mk(), CallOpts{})
	}
	const N = 100
	base := k.CPU.Counters()
	for i := 0; i < N; i++ {
		th.Call(sendName, mk(), CallOpts{})
	}
	newCycles := k.CPU.Counters().Sub(base).Cycles

	// Old path, fresh kernel for comparable cache state.
	k2 := New(cpu.Pentium133())
	srv2 := k2.NewTask("server")
	recv2, _ := srv2.AllocatePort()
	srv2.Spawn("loop", func(th *Thread) {
		th.MachServe(recv2, func(m *Message) *Message { return &Message{} })
	})
	client2 := k2.NewTask("client")
	sendName2, _ := client2.InsertRight(srv2, recv2, DispMakeSend)
	th2, _ := client2.NewBoundThread("main")
	replyName, _ := client2.AllocatePort()
	mk2 := func() *Message {
		if size <= InlineMax {
			return &Message{Body: make([]byte, size)}
		}
		return &Message{OOL: make([]byte, size)}
	}
	for i := 0; i < 30; i++ {
		if _, err := th2.MachRPC(sendName2, mk2(), replyName); err != nil {
			t.Fatalf("old-path warmup: %v", err)
		}
	}
	base = k2.CPU.Counters()
	for i := 0; i < N; i++ {
		th2.MachRPC(sendName2, mk2(), replyName)
	}
	oldCycles := k2.CPU.Counters().Sub(base).Cycles
	srv.Terminate()
	srv2.Terminate()
	return float64(oldCycles) / float64(newCycles)
}

// Property: names handed out by a port space are unique until removed.
func TestPropertyPortNamesUnique(t *testing.T) {
	f := func(n uint8) bool {
		k := newTestKernel()
		task := k.NewTask("t")
		seen := make(map[PortName]bool)
		for i := 0; i < int(n%50)+1; i++ {
			name, err := task.AllocatePort()
			if err != nil || seen[name] {
				return false
			}
			seen[name] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: queued IPC preserves FIFO order for any burst under the limit.
func TestPropertyQueuedFIFO(t *testing.T) {
	f := func(ids []uint16) bool {
		if len(ids) > DefaultQueueLimit {
			ids = ids[:DefaultQueueLimit]
		}
		k := newTestKernel()
		srv := k.NewTask("server")
		recv, _ := srv.AllocatePort()
		client := k.NewTask("client")
		sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
		cth, _ := client.NewBoundThread("c")
		sth, _ := srv.NewBoundThread("s")
		for _, id := range ids {
			if err := cth.MachMsgSend(sendName, &Message{ID: MsgID(id)}, MsgSend); err != nil {
				return false
			}
		}
		for _, id := range ids {
			m, err := sth.MachMsgReceive(recv, MsgRcv)
			if err != nil || m.ID != MsgID(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentRPCClients(t *testing.T) {
	k := newTestKernel()
	srv, recv := startServer(t, k, func(m *Message) *Message {
		return &Message{ID: m.ID}
	})
	defer srv.Terminate()
	// A port has one server: extra Serve loops on it are refused
	// (ErrRightExists), and the clients share its one slot.
	for i := 0; i < 3; i++ {
		srv.Spawn("loop", func(th *Thread) {
			th.Serve(recv, func(m *Message) *Message { return &Message{ID: m.ID} })
		})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := k.NewTask("client")
			defer client.Terminate()
			sendName, err := client.InsertRight(srv, recv, DispMakeSend)
			if err != nil {
				errs <- err
				return
			}
			th, _ := client.NewBoundThread("main")
			for i := 0; i < 50; i++ {
				reply, err := th.Call(sendName, &Message{ID: MsgID(c*1000 + i)}, CallOpts{})
				if err != nil {
					errs <- err
					return
				}
				if reply.ID != MsgID(c*1000+i) {
					errs <- ErrInvalidName
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent client: %v", err)
	}
}
