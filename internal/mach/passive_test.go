package mach_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kflight"
	"repro/internal/mach"
	"repro/internal/workload"
)

// The passive-server contract: a call runs its handler on the caller's
// goroutine, under a server slot, so serving costs no goroutine, a pool of
// N bounds its handlers at N, and whatever a call decides after taking a
// slot (a spent send-once right) it decides alone.

// TestPassiveNoServerGoroutines: the number of goroutines a boot leaves
// running does not grow with the server pool size, and opening files on a
// pooled boot — a port per open file, served by the file server's port
// set — adds none.
func TestPassiveNoServerGoroutines(t *testing.T) {
	boot := func(pool int) (*core.System, int) {
		before := goroutines()
		cfg := core.DefaultConfig()
		cfg.ServerPool = pool
		s, err := core.Boot(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			for _, task := range s.Kernel.Tasks() {
				task.Terminate()
			}
		})
		return s, goroutines() - before
	}
	_, one := boot(1)
	s, four := boot(4)
	if four > one {
		t.Errorf("a pool-4 boot left %d goroutines running, a pool-1 boot %d", four, one)
	}

	p, err := s.OS2.CreateProcess("opener")
	if err != nil {
		t.Fatal(err)
	}
	before := goroutines()
	var hs []uint32
	for i := 0; i < 64; i++ {
		h, e := p.DosOpen(fmt.Sprintf("/GR%02d.TXT", i), true, true)
		if e != 0 {
			t.Fatalf("DosOpen %d: %v", i, e)
		}
		hs = append(hs, h)
	}
	if after := goroutines(); after > before {
		t.Errorf("64 open files added %d goroutines", after-before)
	}
	for _, h := range hs {
		p.DosClose(h)
	}
}

// TestQueueReceiveStartsNoGoroutine: a classic receive blocked on an empty
// queue parks its own goroutine and starts none beside it.
func TestQueueReceiveStartsNoGoroutine(t *testing.T) {
	k := mach.New(cpu.Pentium133())
	srv := k.NewTask("server")
	t.Cleanup(srv.Terminate)
	recv, _ := srv.AllocatePort()
	th, _ := srv.NewBoundThread("receiver")
	before := goroutines()
	done := make(chan error, 1)
	go func() {
		_, err := th.MachMsgReceive(recv, mach.MsgRcv)
		done <- err
	}()
	for len(k.WaitEdges()) == 0 {
		time.Sleep(time.Millisecond)
	}
	if n := goroutines() - before; n > 1 {
		t.Errorf("a blocked receive runs %d goroutines, want 1 (its own)", n)
	}
	th.Terminate()
	if err := <-done; !errors.Is(err, mach.ErrAborted) {
		t.Fatalf("terminated receive returned %v, want ErrAborted", err)
	}
}

// TestFileServeThreadsExit: on the pool-1 paper system every open file is
// served by a thread of its own, spawned to park in Serve.  After File
// Intensive 1's opens and closes, and with one file left open,
// terminating every task leaves no goroutine behind.
func TestFileServeThreadsExit(t *testing.T) {
	before := goroutines()
	cfg := core.DefaultConfig()
	cfg.ServerPool = 1
	s, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(workload.FileIntensive1, s.WorkloadEnv()); err != nil {
		t.Fatal(err)
	}
	p, err := s.OS2.CreateProcess("opener")
	if err != nil {
		t.Fatal(err)
	}
	if _, e := p.DosOpen("/LEFT.TXT", true, true); e != 0 {
		t.Fatalf("DosOpen: %v", e)
	}
	for _, task := range s.Kernel.Tasks() {
		task.Terminate()
	}
	if after := goroutines(); after > before {
		t.Errorf("%d goroutines before the boot, %d after every task died", before, after)
	}
}

// goroutines counts the running goroutines once the count has held still
// for a few polls, so goroutines an earlier test left exiting are gone.
func goroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for i := 0; i < 500 && still < 5; i++ {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// TestPoolNeverRunsMoreThanSize: a pool of N runs at most N handlers at
// once, however many callers it has, through one port or a port set.
func TestPoolNeverRunsMoreThanSize(t *testing.T) {
	const size, clients, calls = 3, 12, 40
	for _, set := range []bool{false, true} {
		t.Run(map[bool]string{false: "port", true: "set"}[set], func(t *testing.T) {
			k := mach.New(cpu.Pentium133())
			srv := k.NewTask("server")
			t.Cleanup(srv.Terminate)
			recv, _ := srv.AllocatePort()
			var running, peak atomic.Int32
			h := func(_ mach.PortName, m *mach.Message) *mach.Message {
				n := running.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				time.Sleep(50 * time.Microsecond)
				running.Add(-1)
				return &mach.Message{ID: m.ID}
			}
			if set {
				ps, err := srv.AllocatePortSet()
				if err != nil {
					t.Fatal(err)
				}
				if err := ps.AddMember(recv); err != nil {
					t.Fatal(err)
				}
				if _, err := srv.ServeSetPool("set", ps, size, h); err != nil {
					t.Fatal(err)
				}
			} else if _, err := srv.ServePool("pool", recv, size, func(m *mach.Message) *mach.Message { return h(recv, m) }); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				cli := k.NewTask(fmt.Sprintf("client%d", c))
				t.Cleanup(cli.Terminate)
				send, _ := cli.InsertRight(srv, recv, mach.DispMakeSend)
				th, _ := cli.NewBoundThread("main")
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < calls; i++ {
						if _, err := th.Call(send, &mach.Message{ID: mach.MsgID(i)}, mach.CallOpts{}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if p := peak.Load(); p > size || p < 2 {
				t.Fatalf("peak concurrent handlers = %d, want 2..%d", p, size)
			}
		})
	}
}

// TestSendOnceRaceDeliversOnce: two threads of one task calling through
// the same send-once name are delivered once.  Both find the right at
// lookup while every slot is busy; only the call that spends the right
// runs the handler, and the other fails with ErrInvalidName.
func TestSendOnceRaceDeliversOnce(t *testing.T) {
	k := mach.New(cpu.Pentium133())
	srv := k.NewTask("server")
	t.Cleanup(srv.Terminate)
	recv, _ := srv.AllocatePort()
	entered, hold := make(chan struct{}), make(chan struct{})
	var onceServed atomic.Int32
	if _, err := srv.ServePool("pool", recv, 2, func(m *mach.Message) *mach.Message {
		if m.ID >= 1000 {
			entered <- struct{}{}
			<-hold
		} else {
			onceServed.Add(1)
		}
		return &mach.Message{ID: m.ID}
	}); err != nil {
		t.Fatal(err)
	}

	// Hold both slots.
	holders := k.NewTask("holders")
	t.Cleanup(holders.Terminate)
	hsend, _ := holders.InsertRight(srv, recv, mach.DispMakeSend)
	var held sync.WaitGroup
	for i := 0; i < 2; i++ {
		th, _ := holders.NewBoundThread(fmt.Sprintf("holder%d", i))
		held.Add(1)
		go func() {
			defer held.Done()
			if _, err := th.Call(hsend, &mach.Message{ID: mach.MsgID(1000 + i)}, mach.CallOpts{}); err != nil {
				t.Error(err)
			}
		}()
	}
	<-entered
	<-entered

	cli := k.NewTask("client")
	t.Cleanup(cli.Terminate)
	once, err := cli.InsertRight(srv, recv, mach.DispMakeSendOnce)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		th, _ := cli.NewBoundThread(fmt.Sprintf("caller%d", i))
		go func() {
			_, err := th.Call(once, &mach.Message{ID: mach.MsgID(1 + i)}, mach.CallOpts{})
			errs <- err
		}()
	}
	// Both callers are past the lookup and waiting for a slot.
	for deadline := time.Now().Add(5 * time.Second); ; {
		waiting := 0
		for _, e := range k.WaitEdges() {
			if e.Task == "client" && e.Kind == kflight.WaitRendezvous {
				waiting++
			}
		}
		if waiting == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("send-once callers never reached the slot wait: %v", k.WaitEdges())
		}
		time.Sleep(time.Millisecond)
	}
	close(hold)
	held.Wait()
	var ok, invalid int
	for i := 0; i < 2; i++ {
		switch err := <-errs; {
		case err == nil:
			ok++
		case errors.Is(err, mach.ErrInvalidName):
			invalid++
		default:
			t.Fatalf("send-once call: %v", err)
		}
	}
	if ok != 1 || invalid != 1 || onceServed.Load() != 1 {
		t.Fatalf("%d calls delivered, %d refused, handler ran %d times: want 1, 1, 1",
			ok, invalid, onceServed.Load())
	}
}
