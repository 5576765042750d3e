package mach

import (
	"testing"
	"time"
)

func TestRPCWithTimeoutExpires(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	recv, _ := srv.AllocatePort() // no server thread ever receives
	client := k.NewTask("client")
	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	th, _ := client.NewBoundThread("main")
	if _, err := th.Call(sendName, &Message{}, CallOpts{Timeout: 20 * time.Millisecond}); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestRPCWithTimeoutSucceeds(t *testing.T) {
	k := newTestKernel()
	srv, recv := startServer(t, k, func(m *Message) *Message { return &Message{ID: 9} })
	defer srv.Terminate()
	client := k.NewTask("client")
	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	th, _ := client.NewBoundThread("main")
	reply, err := th.Call(sendName, &Message{}, CallOpts{Timeout: time.Second})
	if err != nil || reply.ID != 9 {
		t.Fatalf("reply %v err %v", reply, err)
	}
}

func TestQueueLimitAdjustment(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	recv, _ := srv.AllocatePort()
	e, _ := srv.ports.lookup(recv, RightReceive)
	e.port.SetQueueLimit(2)
	client := k.NewTask("client")
	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	th, _ := client.NewBoundThread("main")
	for i := 0; i < 2; i++ {
		if err := th.MachMsgSend(sendName, &Message{}, MsgSend|MsgSendTimeout); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if err := th.MachMsgSend(sendName, &Message{}, MsgSend|MsgSendTimeout); err != ErrQueueFull {
		t.Fatalf("err = %v", err)
	}
	if e.port.QueueLen() != 2 {
		t.Fatalf("queue len = %d", e.port.QueueLen())
	}
	// Raising the limit admits more; clamping below 1 is rejected.
	e.port.SetQueueLimit(3)
	if err := th.MachMsgSend(sendName, &Message{}, MsgSend|MsgSendTimeout); err != nil {
		t.Fatalf("post-raise send: %v", err)
	}
	e.port.SetQueueLimit(0)
	sth, _ := srv.NewBoundThread("drain")
	for i := 0; i < 3; i++ {
		if _, err := sth.MachMsgReceive(recv, MsgRcv); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	// Limit clamped to 1, not 0: one message still fits.
	if err := th.MachMsgSend(sendName, &Message{}, MsgSend|MsgSendTimeout); err != nil {
		t.Fatalf("clamped limit rejects everything: %v", err)
	}
}

func TestClassicIPCCarriesRights(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	recv, _ := srv.AllocatePort()
	client := k.NewTask("client")
	clientPort, _ := client.AllocatePort()
	sendName, _ := client.InsertRight(srv, recv, DispMakeSend)
	cth, _ := client.NewBoundThread("c")
	sth, _ := srv.NewBoundThread("s")
	err := cth.MachMsgSend(sendName, &Message{
		Rights: []PortRight{{Name: clientPort, Disposition: DispMakeSend}},
	}, MsgSend)
	if err != nil {
		t.Fatalf("send: %v", err)
	}
	m, err := sth.MachMsgReceive(recv, MsgRcv)
	if err != nil {
		t.Fatalf("receive: %v", err)
	}
	if len(m.Rights) != 1 || m.Rights[0].Name == NullName {
		t.Fatalf("right not translated: %+v", m.Rights)
	}
	// The received name is usable for a send from the server task.
	if err := sth.MachMsgSend(m.Rights[0].Name, &Message{ID: 0xCAFE}, MsgSend); err != nil {
		t.Fatalf("use carried right: %v", err)
	}
	back, err := cth.MachMsgReceive(clientPort, MsgRcv)
	if err != nil || back.ID != 0xCAFE {
		t.Fatalf("reply via carried right: %v %v", back, err)
	}
}

func TestHostInfoKernelVersion(t *testing.T) {
	k := newTestKernel()
	info := k.Host().Info()
	if info.KernelVersion == "" || info.Tasks < 1 {
		t.Fatalf("info = %+v", info)
	}
	if k.Host().DefaultSet().Name != DefaultPSet {
		t.Fatal("default set misnamed")
	}
	if k.String() == "" {
		t.Fatal("kernel String empty")
	}
}

func TestThreadSelfStable(t *testing.T) {
	k := newTestKernel()
	task := k.NewTask("t")
	th, _ := task.NewBoundThread("main")
	if th.Self() != th.Self() {
		t.Fatal("thread_self must be stable")
	}
	if th.String() == "" || task.String() == "" {
		t.Fatal("String methods")
	}
}

func TestSpawnOnDeadTask(t *testing.T) {
	k := newTestKernel()
	task := k.NewTask("t")
	task.Terminate()
	if _, err := task.Spawn("x", func(*Thread) {}); err != ErrInvalidTask {
		t.Fatalf("spawn on dead task: %v", err)
	}
	if _, err := task.NewBoundThread("x"); err != ErrInvalidTask {
		t.Fatalf("bound thread on dead task: %v", err)
	}
	if _, err := task.AllocatePort(); err != ErrInvalidTask {
		t.Fatalf("port on dead task: %v", err)
	}
}

func TestInsertRightValidation(t *testing.T) {
	k := newTestKernel()
	a := k.NewTask("a")
	b := k.NewTask("b")
	recv, _ := a.AllocatePort()
	send, _ := b.InsertRight(a, recv, DispMakeSend)
	// A send right cannot source a make-send or move-receive.
	if _, err := a.InsertRight(b, send, DispMakeSend); err != ErrInvalidRight {
		t.Fatalf("make-send from send right: %v", err)
	}
	if _, err := a.InsertRight(b, send, DispMoveReceive); err != ErrInvalidRight {
		t.Fatalf("move-receive from send right: %v", err)
	}
	if _, err := a.InsertRight(b, PortName(999), DispCopySend); err != ErrInvalidName {
		t.Fatalf("bogus name: %v", err)
	}
	if _, err := a.InsertRight(b, send, PortDisposition(99)); err != ErrInvalidRight {
		t.Fatalf("bogus disposition: %v", err)
	}
	// Copy-send of a send right works.
	if _, err := a.InsertRight(b, send, DispCopySend); err != nil {
		t.Fatalf("copy-send: %v", err)
	}
}

func TestMessageSize(t *testing.T) {
	m := &Message{Body: make([]byte, 10), OOL: make([]byte, 100)}
	if m.Size() != 110 {
		t.Fatalf("size = %d", m.Size())
	}
}

func TestRightTypeStrings(t *testing.T) {
	for r, want := range map[RightType]string{
		RightReceive: "receive", RightSend: "send",
		RightSendOnce: "send-once", RightNone: "none",
	} {
		if r.String() != want {
			t.Fatalf("%v", r)
		}
	}
}
