package mach

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"repro/internal/kflight"
)

// TestCallerWaitsForReplyInHandler: by the time a handler runs, the
// thread that called it is registered as waiting for the reply — not
// still waiting for a slot — on both serve shapes (a pool on one port
// and a pool on a port set).  A handler that dumps the wait-for graph
// (the monitor's flight view) sees its own client blocked on it.  Four
// clients on two slots make the slot wait contended.
func TestCallerWaitsForReplyInHandler(t *testing.T) {
	for _, set := range []bool{false, true} {
		name := "receive"
		if set {
			name = "receive-set"
		}
		t.Run(name, func(t *testing.T) {
			k := newTestKernel()
			srv := k.NewTask("server")
			recv, err := srv.AllocatePort()
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var bad []string
			handler := func(_ PortName, m *Message) *Message {
				caller := binary.LittleEndian.Uint32(m.Body)
				seen := "no edge"
				for _, e := range k.WaitEdges() {
					if e.ThreadID == caller {
						seen = fmt.Sprintf("%v on %s", e.Kind, e.OwnerTask)
					}
				}
				if want := fmt.Sprintf("%v on server", kflight.WaitReply); seen != want {
					mu.Lock()
					bad = append(bad, fmt.Sprintf("caller %d: %s, want %s", caller, seen, want))
					mu.Unlock()
				}
				return &Message{}
			}
			if set {
				ps, err := srv.AllocatePortSet()
				if err != nil {
					t.Fatal(err)
				}
				if err := ps.AddMember(recv); err != nil {
					t.Fatal(err)
				}
				_, err = srv.ServeSetPool("set", ps, 2, handler)
				if err != nil {
					t.Fatal(err)
				}
			} else if _, err := srv.ServePool("pool", recv, 2, func(m *Message) *Message { return handler(recv, m) }); err != nil {
				t.Fatal(err)
			}

			const clients, calls = 4, 100
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				cli := k.NewTask(fmt.Sprintf("client%d", i))
				send, err := cli.InsertRight(srv, recv, DispMakeSend)
				if err != nil {
					t.Fatal(err)
				}
				th, err := cli.NewBoundThread("main")
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					body := binary.LittleEndian.AppendUint32(nil, uint32(th.ID()))
					for j := 0; j < calls; j++ {
						if _, err := th.Call(send, &Message{Body: body}, CallOpts{}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			srv.Terminate()
			for _, b := range bad {
				t.Error(b)
			}
		})
	}
}
