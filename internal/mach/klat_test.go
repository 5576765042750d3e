package mach

import (
	"sync"
	"testing"

	"repro/internal/klat"
)

// TestLedgerParentsUnderPools gates the exactness of the latency plane's
// parent links where it is hardest: four pooled front-end workers each
// making a nested call through whichever bound proxy thread of a shared
// set is free, all at once (a proxy cannot name the parent and neither
// can the task — only the handler holding the request message can, so
// each call carries it; a thread is driven by one goroutine at a time,
// so the proxies are lent, not shared), while four clients call the same
// back end directly and a fifth front-end worker nests calls through the
// same proxies naming nothing.  Every request carries a unique operation selector, so every
// family retains its one request in full and the dump can be checked hop
// by hop: each nested hop hangs under its own server's hop, no client
// call is linked under someone else's request, and what the fifth worker
// did is childless roots only — unlinked, never mislinked.  Run under
// -race in tier 2.
func TestLedgerParentsUnderPools(t *testing.T) {
	const (
		clients  = 4
		perCli   = 60
		nestedOp = 0x80000
		directOp = 0x40000
		looseOp  = 0x20000
	)
	k := newTestKernel()
	lt := klat.Attach(k.CPU)
	defer klat.Detach(k.CPU)

	back := k.NewTask("back")
	defer back.Terminate()
	backPort, _ := back.AllocatePort()
	if _, err := back.ServePool("svc", backPort, clients, func(m *Message) *Message {
		return &Message{ID: m.ID}
	}); err != nil {
		t.Fatal(err)
	}

	front := k.NewTask("front")
	defer front.Terminate()
	toBack, _ := front.InsertRight(back, backPort, DispMakeSend)
	proxies := make(chan *Thread, clients+1)
	for range clients + 1 {
		th, _ := front.NewBoundThread("diskio")
		proxies <- th
	}
	nested := func(m *Message, opts CallOpts) error {
		th := <-proxies
		defer func() { proxies <- th }()
		_, err := th.Call(toBack, &Message{ID: nestedOp | m.ID}, opts)
		return err
	}
	frontPort, _ := front.AllocatePort()
	if _, err := front.ServePool("svc", frontPort, clients, func(m *Message) *Message {
		if err := nested(m, CallOpts{Parent: m}); err != nil {
			t.Errorf("nested call: %v", err)
		}
		return &Message{ID: m.ID}
	}); err != nil {
		t.Fatal(err)
	}
	loosePort, _ := front.AllocatePort()
	if _, err := front.ServePool("loose", loosePort, 1, func(m *Message) *Message {
		if err := nested(m, CallOpts{}); err != nil {
			t.Errorf("unnamed nested call: %v", err)
		}
		return &Message{ID: m.ID}
	}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for c := 0; c <= 2*clients; c++ {
		task := k.NewTask("client")
		defer task.Terminate()
		th, _ := task.NewBoundThread("main")
		// Even clients go through the front end, odd ones straight to the
		// back end while its workers are busy with nested calls.
		dest, _ := task.InsertRight(front, frontPort, DispMakeSend)
		op := MsgID(0)
		if c%2 == 1 {
			dest, _ = task.InsertRight(back, backPort, DispMakeSend)
			op = directOp
		}
		if c == 2*clients {
			dest, _ = task.InsertRight(front, loosePort, DispMakeSend)
			op = looseOp
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perCli; i++ {
				if _, err := th.Call(dest, &Message{ID: op | MsgID(c*1000+i)}, CallOpts{}); err != nil {
					t.Errorf("client %d call %d: %v", c, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	var fronts, directs, nesteds, looses int
	for _, f := range lt.Dump().Families {
		if f.E2E.Count != 1 {
			t.Fatalf("%s/%#x recorded %d hops, want 1 (selectors are unique)", f.Server, f.Op, f.E2E.Count)
		}
		switch {
		case f.Op&looseOp != 0:
			looses++
			if len(f.Exemplars) != 1 || len(f.Exemplars[0].Children) != 0 {
				t.Fatalf("%s/%#x: a hop nobody named as parent, or whose call named none, is not a childless root: %+v", f.Server, f.Op, f.Exemplars)
			}
		case f.Server == "front":
			fronts++
			if len(f.Exemplars) != 1 {
				t.Fatalf("front/%#x: %d root ledgers, want 1", f.Op, len(f.Exemplars))
			}
			kids := f.Exemplars[0].Children
			if len(kids) != 1 || kids[0].Server != "back" || kids[0].Op != nestedOp|f.Op || len(kids[0].Children) != 0 {
				t.Fatalf("front/%#x: children %+v, want exactly its own nested call back/%#x", f.Op, kids, nestedOp|f.Op)
			}
		case f.Op&nestedOp != 0:
			nesteds++
			if len(f.Exemplars) != 0 {
				t.Fatalf("back/%#x: nested call recorded as a root", f.Op)
			}
		case f.Op&directOp != 0:
			directs++
			if len(f.Exemplars) != 1 || len(f.Exemplars[0].Children) != 0 {
				t.Fatalf("back/%#x: direct client call is not a childless root: %+v", f.Op, f.Exemplars)
			}
		default:
			t.Fatalf("unexpected family %s/%#x", f.Server, f.Op)
		}
	}
	if want := clients * perCli; fronts != want || nesteds != want || directs != want {
		t.Fatalf("families: %d front, %d nested, %d direct, want %d each", fronts, nesteds, directs, want)
	}
	if want := 2 * perCli; looses != want {
		t.Fatalf("families: %d from the worker that named nothing, want %d", looses, want)
	}
}
