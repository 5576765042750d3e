package mach

import (
	"sync"
	"testing"
)

func TestPortSetSingleThreadManyPorts(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	ps, err := srv.AllocatePortSet()
	if err != nil {
		t.Fatalf("AllocatePortSet: %v", err)
	}
	var ports []PortName
	for i := 0; i < 4; i++ {
		n, err := srv.AllocatePort()
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.AddMember(n); err != nil {
			t.Fatalf("AddMember: %v", err)
		}
		ports = append(ports, n)
	}
	if ps.Members() != 4 {
		t.Fatalf("members = %d", ps.Members())
	}
	// ONE server slot serves all four ports, echoing the member name.
	if _, err := srv.ServeSetPool("combined", ps, 1, func(port PortName, req *Message) *Message {
		return &Message{ID: MsgID(port), Body: req.Body}
	}); err != nil {
		t.Fatalf("ServeSetPool: %v", err)
	}

	client := k.NewTask("client")
	th, _ := client.NewBoundThread("main")
	for i, recv := range ports {
		send, err := client.InsertRight(srv, recv, DispMakeSend)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := th.Call(send, &Message{Body: []byte{byte(i)}}, CallOpts{})
		if err != nil {
			t.Fatalf("RPC to member %d: %v", i, err)
		}
		if reply.ID != MsgID(recv) {
			t.Fatalf("served by wrong port: got %d want %d", reply.ID, recv)
		}
		if reply.Body[0] != byte(i) {
			t.Fatalf("body lost")
		}
	}
}

func TestPortSetConcurrentClients(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	ps, _ := srv.AllocatePortSet()
	var recvs []PortName
	for i := 0; i < 3; i++ {
		n, _ := srv.AllocatePort()
		ps.AddMember(n)
		recvs = append(recvs, n)
	}
	// Two server slots on one set.
	if _, err := srv.ServeSetPool("loop", ps, 2, func(_ PortName, req *Message) *Message {
		return &Message{ID: req.ID}
	}); err != nil {
		t.Fatalf("ServeSetPool: %v", err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := k.NewTask("client")
			th, _ := client.NewBoundThread("main")
			send, err := client.InsertRight(srv, recvs[c%3], DispMakeSend)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 30; i++ {
				reply, err := th.Call(send, &Message{ID: MsgID(c*100 + i)}, CallOpts{})
				if err != nil {
					errs <- err
					return
				}
				if reply.ID != MsgID(c*100+i) {
					errs <- ErrInvalidName
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent set client: %v", err)
	}
}

func TestPortSetMembershipErrors(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	other := k.NewTask("other")
	ps, _ := srv.AllocatePortSet()
	n, _ := srv.AllocatePort()
	if err := ps.AddMember(n); err != nil {
		t.Fatal(err)
	}
	if err := ps.AddMember(n); err != ErrRightExists {
		t.Fatalf("double add err = %v", err)
	}
	if err := ps.AddMember(PortName(9999)); err != ErrInvalidName {
		t.Fatalf("bogus name err = %v", err)
	}
	// A send right is not addable.
	sn, _ := other.InsertRight(srv, n, DispMakeSend)
	ops, _ := other.AllocatePortSet()
	if err := ops.AddMember(sn); err != ErrInvalidRight {
		t.Fatalf("send right err = %v", err)
	}
	if err := ps.RemoveMember(n); err != nil {
		t.Fatalf("RemoveMember: %v", err)
	}
	if err := ps.RemoveMember(n); err != ErrInvalidName {
		t.Fatalf("double remove err = %v", err)
	}
	// Serving a set from another task is refused.
	if _, err := other.ServeSetPool("steal", ps, 1, func(PortName, *Message) *Message { return nil }); err != ErrNotReceiver {
		t.Fatalf("cross-task serve err = %v", err)
	}
}

func TestPortSetDestroyAndDeadPorts(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("server")
	ps, _ := srv.AllocatePortSet()
	n, _ := srv.AllocatePort()
	ps.AddMember(n)
	if _, err := srv.ServeSetPool("loop", ps, 1, func(_ PortName, req *Message) *Message { return &Message{} }); err != nil {
		t.Fatalf("ServeSetPool: %v", err)
	}
	client := k.NewTask("client")
	th, _ := client.NewBoundThread("main")
	send, _ := client.InsertRight(srv, n, DispMakeSend)
	if _, err := th.Call(send, &Message{}, CallOpts{}); err != nil {
		t.Fatalf("warm RPC: %v", err)
	}
	// Destroying the member port fails subsequent sends cleanly.
	srv.DeallocatePort(n)
	if _, err := th.Call(send, &Message{}, CallOpts{}); err != ErrDeadPort {
		t.Fatalf("post-destroy err = %v", err)
	}
	ps.Destroy()
	if ps.Members() != 0 {
		t.Fatal("destroy should clear members")
	}
	if err := ps.AddMember(n); err != ErrInvalidName && err != ErrDeadPort {
		t.Fatalf("add to dead set err = %v", err)
	}
}
