package mach

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/kstat"
)

// Regression tests for the pool/port-set/SMP lifecycle bugs flushed out by
// the chaos soak harness (internal/chaos).  Each test is the minimized,
// deterministic form of a failure mode the soak either found or guards
// against; they live in-package so they can name a port set's family by
// its unexported id.

// settle polls cond until it holds or the deadline passes: another
// goroutine's progress, such as a caller reaching its park.
func settle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: condition never settled", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// wantGauge asserts a gauge family's level in a fresh snapshot.  The pool
// and port-set families read their owners' own state, so the level is
// exact the moment the observable event has happened.
func wantGauge(t *testing.T, st *kstat.Set, name string, want int64) {
	t.Helper()
	if got := st.Snapshot().Gauges[name]; got != want {
		t.Fatalf("%s = %d, want %d", name, got, want)
	}
}

// pendingFam names a port set's pending family.
func pendingFam(ps *PortSet) string {
	return fmt.Sprintf("mach.portset.%s/%d.pending", ps.task.name, ps.id)
}

// Satellite 1: destroying a pool's receive right while a handler is still
// running must tear the pool down cleanly — every slot dies before the
// destroy returns, the in-flight handler's reply is still delivered, the busy
// gauge returns to zero, and the workers gauge reads zero live slots.
func TestPoolTeardownOnPortDestroyMidHandler(t *testing.T) {
	k := newTestKernel()
	st := kstat.Attach(k.CPU)
	t.Cleanup(func() { kstat.Detach(k.CPU) })

	srv := k.NewTask("fsrv")
	recv, err := srv.AllocatePort()
	if err != nil {
		t.Fatalf("AllocatePort: %v", err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	pool, err := srv.ServePool("work", recv, 3, func(m *Message) *Message {
		if m.ID == 1 {
			entered <- struct{}{}
			<-release // hold the handler while the port dies under it
		}
		return &Message{ID: m.ID + 100}
	})
	if err != nil {
		t.Fatalf("ServePool: %v", err)
	}
	wantGauge(t, st, "mach.pool.fsrv/work.workers", 3)

	client := k.NewTask("client")
	defer client.Terminate()
	send, _ := client.InsertRight(srv, recv, DispMakeSend)
	slowTh, _ := client.NewBoundThread("slow")

	slowDone := make(chan error, 1)
	go func() {
		reply, err := slowTh.Call(send, &Message{ID: 1}, CallOpts{})
		if err == nil && reply.ID != 101 {
			err = errors.New("slow caller got wrong reply")
		}
		slowDone <- err
	}()
	<-entered // the slow handler is mid-flight on one slot

	if err := srv.DeallocatePort(recv); err != nil {
		t.Fatalf("DeallocatePort: %v", err)
	}
	close(release) // let the in-flight handler finish against a dead port

	// The in-flight call already holds its slot; its reply must still
	// reach the caller (cooperative termination contract).
	select {
	case err := <-slowDone:
		if err != nil {
			t.Fatalf("in-flight caller: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight caller still blocked after port destroy")
	}

	// Every slot dies with the port, before the destroy returns.
	if n := pool.LiveWorkers(); n != 0 {
		t.Fatalf("LiveWorkers after teardown = %d, want 0", n)
	}

	// Occupancy: no stuck busy gauge, no live workers.
	wantGauge(t, st, "mach.pool.fsrv/work.busy", 0)
	wantGauge(t, st, "mach.pool.fsrv/work.workers", 0)

	// A fresh call against the dead right fails fast, it does not hang.
	fastTh, _ := client.NewBoundThread("fast")
	if _, err := fastTh.Call(send, &Message{ID: 2}, CallOpts{Timeout: time.Second}); !errors.Is(err, ErrDeadPort) {
		t.Fatalf("call after teardown: err = %v, want ErrDeadPort", err)
	}
}

// KillWorker/RespawnWorker edges: kill is idempotent-false on a dead slot,
// respawn refuses a live slot (ErrThreadRunning) and an out-of-range slot
// (ErrInvalidThread), service continues degraded after a kill, and respawn
// restores both LiveWorkers and the published workers gauge.
func TestPoolKillRespawnWorkerEdges(t *testing.T) {
	k := newTestKernel()
	st := kstat.Attach(k.CPU)
	t.Cleanup(func() { kstat.Detach(k.CPU) })

	srv := k.NewTask("fsrv")
	recv, _ := srv.AllocatePort()
	pool, err := srv.ServePool("work", recv, 2, func(m *Message) *Message {
		return &Message{ID: m.ID + 1}
	})
	if err != nil {
		t.Fatalf("ServePool: %v", err)
	}
	defer pool.Stop()

	client := k.NewTask("client")
	defer client.Terminate()
	send, _ := client.InsertRight(srv, recv, DispMakeSend)
	th, _ := client.NewBoundThread("main")
	call := func() {
		t.Helper()
		reply, err := th.Call(send, &Message{ID: 10}, CallOpts{})
		if err != nil || reply.ID != 11 {
			t.Fatalf("RPC: reply=%v err=%v", reply, err)
		}
	}
	call()

	if !pool.KillWorker(0) {
		t.Fatal("KillWorker(0) on a live slot returned false")
	}
	settle(t, "worker death", func() bool { return pool.LiveWorkers() == 1 })
	if pool.KillWorker(0) {
		t.Fatal("KillWorker(0) on a dead slot returned true")
	}
	if pool.KillWorker(7) {
		t.Fatal("KillWorker out of range returned true")
	}
	call() // the surviving slot still serves

	if err := pool.RespawnWorker(1); !errors.Is(err, ErrThreadRunning) {
		t.Fatalf("RespawnWorker on live slot: err = %v, want ErrThreadRunning", err)
	}
	if err := pool.RespawnWorker(7); !errors.Is(err, ErrInvalidThread) {
		t.Fatalf("RespawnWorker out of range: err = %v, want ErrInvalidThread", err)
	}
	if err := pool.RespawnWorker(0); err != nil {
		t.Fatalf("RespawnWorker(0): %v", err)
	}
	settle(t, "respawn", func() bool { return pool.LiveWorkers() == 2 })
	wantGauge(t, st, "mach.pool.fsrv/work.workers", 2)
	call()
}

// A caller that times out waiting for a slot of a port set nothing
// serves yet leaves no trace: the set's pending gauge drains to zero and
// a pool registered afterwards serves fresh calls to the member port.
func TestPortSetAbandonedCallerReleasesForwarder(t *testing.T) {
	k := newTestKernel()
	st := kstat.Attach(k.CPU)
	t.Cleanup(func() { kstat.Detach(k.CPU) })

	srv := k.NewTask("server")
	ps, err := srv.AllocatePortSet()
	if err != nil {
		t.Fatalf("AllocatePortSet: %v", err)
	}
	member, _ := srv.AllocatePort()
	if err := ps.AddMember(member); err != nil {
		t.Fatalf("AddMember: %v", err)
	}

	client := k.NewTask("client")
	defer client.Terminate()
	send, _ := client.InsertRight(srv, member, DispMakeSend)
	th, _ := client.NewBoundThread("main")

	// No pool on the set yet: the call times out waiting for one.
	if _, err := th.Call(send, &Message{ID: 1}, CallOpts{Timeout: 30 * time.Millisecond}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	wantGauge(t, st, pendingFam(ps), 0)

	// The member port must still be serviceable after the abandonment.
	pool, err := srv.ServeSetPool("late", ps, 1, func(_ PortName, m *Message) *Message {
		return &Message{ID: m.ID + 1}
	})
	if err != nil {
		t.Fatalf("ServeSetPool: %v", err)
	}
	defer pool.Stop()
	reply, err := th.Call(send, &Message{ID: 5}, CallOpts{Timeout: 2 * time.Second})
	if err != nil || reply.ID != 6 {
		t.Fatalf("post-abandon RPC: reply=%v err=%v", reply, err)
	}
}

// Destroying a port set while a caller of a member port waits for one of
// the set's slots must fail the caller with ErrDeadPort in bounded time.
func TestPortSetDestroyUnblocksForwardedCaller(t *testing.T) {
	k := newTestKernel()
	st := kstat.Attach(k.CPU)
	t.Cleanup(func() { kstat.Detach(k.CPU) })

	srv := k.NewTask("server")
	ps, _ := srv.AllocatePortSet()
	member, _ := srv.AllocatePort()
	ps.AddMember(member)

	client := k.NewTask("client")
	defer client.Terminate()
	send, _ := client.InsertRight(srv, member, DispMakeSend)
	th, _ := client.NewBoundThread("main")

	done := make(chan error, 1)
	go func() {
		_, err := th.Call(send, &Message{ID: 1}, CallOpts{})
		done <- err
	}()
	// Wait until the caller is counted waiting on the set.
	settle(t, "caller waiting", func() bool { return st.Snapshot().Gauges[pendingFam(ps)] == 1 })

	ps.Destroy()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDeadPort) {
			t.Fatalf("err = %v, want ErrDeadPort", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("caller still blocked after set destroy")
	}
	wantGauge(t, st, pendingFam(ps), 0)
}

// Satellite 3: repartitioning processors with processor_assign while a
// server pool is under RPC load — including emptying the pool task's set
// mid-burst, which forces the dispatcher's fall-back-to-all-engines path —
// must neither race (this test runs under -race in scripts/check.sh) nor
// strand scheduler state: once traffic quiesces, every engine's run queue
// and virtual-time reservation count must be zero.
func TestProcessorAssignEmptiesSetMidBurst(t *testing.T) {
	k := NewSMP(cpu.Pentium133(), 4)
	kstat.Attach(k.CPU)
	t.Cleanup(func() { kstat.Detach(k.CPU) })

	srv := k.NewTask("fsrv")
	recv, _ := srv.AllocatePort()
	pool, err := srv.ServePool("work", recv, 3, func(m *Message) *Message {
		return &Message{ID: m.ID + 1}
	})
	if err != nil {
		t.Fatalf("ServePool: %v", err)
	}
	defer pool.Stop()

	host := k.Host()
	set, err := host.CreateSet("chaos")
	if err != nil {
		t.Fatalf("CreateSet: %v", err)
	}
	set.AssignTask(srv)

	stop := make(chan struct{})
	var shuffler sync.WaitGroup
	shuffler.Add(1)
	go func() {
		defer shuffler.Done()
		procs := host.Processors()
		for i := 0; ; i++ {
			select {
			case <-stop:
				// Leave everything back on the default set.
				for _, p := range procs {
					host.AssignProcessor(p, host.DefaultSet())
				}
				set.RemoveTask(srv)
				return
			default:
			}
			// Move half the engines into the pool's set, read their
			// placement back (the Processor.Set data-race regression),
			// then empty the set again mid-traffic.
			for _, p := range procs[:len(procs)/2] {
				host.AssignProcessor(p, set)
			}
			for _, p := range procs {
				_ = p.Set()
			}
			for _, p := range procs[:len(procs)/2] {
				host.AssignProcessor(p, host.DefaultSet())
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var clients sync.WaitGroup
	errs := make(chan error, 4)
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			ct := k.NewTask("client")
			defer ct.Terminate()
			send, _ := ct.InsertRight(srv, recv, DispMakeSend)
			th, _ := ct.NewBoundThread("main")
			for i := 0; i < 150; i++ {
				reply, err := th.Call(send, &Message{ID: MsgID(i)}, CallOpts{Timeout: 5 * time.Second})
				if err != nil {
					errs <- err
					return
				}
				if int(reply.ID) != i+1 {
					errs <- errors.New("wrong reply under repartition")
					return
				}
			}
		}(c)
	}
	clients.Wait()
	close(stop)
	shuffler.Wait()
	select {
	case err := <-errs:
		t.Fatalf("client under repartition: %v", err)
	default:
	}

	// Quiesce check: no stranded run-queue entries or virtual-time
	// reservations on any engine after the burst.
	settle(t, "scheduler quiesce", func() bool {
		for _, es := range k.SchedStats() {
			if es.RunQueue != 0 || es.Reserved != 0 {
				return false
			}
		}
		return true
	})
}

// A pool's busy gauge covers handler and reply — the serve span's segment
// — so it must fall by the reply commit that releases the caller, not
// after: a caller (or the chaos harness's gauge check) that has its
// reply never finds the call still busy.  Each round boots a fresh kernel
// and pool and reads the gauge the instant each call returns, for plain,
// vectored and undeliverable replies.
func TestPoolBusyFallsBeforeReply(t *testing.T) {
	for round := 0; round < 20; round++ {
		k := newTestKernel()
		st := kstat.Attach(k.CPU)
		srv := k.NewTask("fsrv")
		recv, err := srv.AllocatePort()
		if err != nil {
			t.Fatalf("AllocatePort: %v", err)
		}
		pool, err := srv.ServePool("work", recv, 2, func(m *Message) *Message {
			if m.ID == 3 {
				return &Message{Body: make([]byte, InlineMax+1)} // undeliverable
			}
			return &Message{ID: m.ID + 100}
		})
		if err != nil {
			t.Fatalf("ServePool: %v", err)
		}
		client := k.NewTask("client")
		send, _ := client.InsertRight(srv, recv, DispMakeSend)
		th, _ := client.NewBoundThread("main")
		for i := 0; i < 10; i++ {
			var err error
			switch i % 3 {
			case 0:
				_, err = th.Call(send, &Message{ID: 1}, CallOpts{})
			case 1:
				_, err = th.CallV(send, []*Message{{ID: 1}, {ID: 2}}, CallOpts{})
			default:
				if _, err = th.Call(send, &Message{ID: 3}, CallOpts{}); errors.Is(err, ErrReplyFailed) {
					err = nil
				}
			}
			if err != nil {
				t.Fatalf("round %d call %d: %v", round, i, err)
			}
			if v := st.Snapshot().Gauges["mach.pool.fsrv/work.busy"]; v != 0 {
				t.Fatalf("round %d call %d: busy gauge reads %d after the caller has its reply", round, i, v)
			}
		}
		client.Terminate()
		srv.Terminate()
		if n := pool.LiveWorkers(); n != 0 {
			t.Fatalf("round %d: %d slots alive after the server task died", round, n)
		}
		kstat.Detach(k.CPU)
	}
}

// Stop retires the pool as a dead port would: with its one slot busy and
// a caller parked for it with no deadline, Stop wakes the parked caller
// with ErrDeadPort, the busy call still gets its reply once released, and
// a later call fails fast instead of parking for a slot that will never
// be freed.
func TestPoolStopWakesParkedCaller(t *testing.T) {
	k := newTestKernel()
	srv := k.NewTask("fsrv")
	recv, _ := srv.AllocatePort()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	pool, err := srv.ServePool("work", recv, 1, func(m *Message) *Message {
		if m.ID == 1 {
			entered <- struct{}{}
			<-release
		}
		return &Message{ID: m.ID + 100}
	})
	if err != nil {
		t.Fatalf("ServePool: %v", err)
	}
	client := k.NewTask("client")
	defer client.Terminate()
	send, _ := client.InsertRight(srv, recv, DispMakeSend)
	call := func(name string, id MsgID) chan error {
		th, _ := client.NewBoundThread(name)
		done := make(chan error, 1)
		go func() {
			reply, err := th.Call(send, &Message{ID: id}, CallOpts{})
			if err == nil && reply.ID != id+100 {
				err = errors.New("wrong reply")
			}
			done <- err
		}()
		return done
	}
	busy := call("busy", 1)
	<-entered
	parked := call("parked", 2)
	settle(t, "caller parked", func() bool {
		pool.mu.Lock()
		defer pool.mu.Unlock()
		return len(pool.waiters) == 1
	})

	pool.Stop()
	close(release)
	for _, c := range []struct {
		what string
		done chan error
		want error
	}{{"busy", busy, nil}, {"parked", parked, ErrDeadPort}} {
		select {
		case err := <-c.done:
			if !errors.Is(err, c.want) {
				t.Fatalf("%s caller: err = %v, want %v", c.what, err, c.want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s caller still blocked after Stop", c.what)
		}
	}
	late, _ := client.NewBoundThread("late")
	if _, err := late.Call(send, &Message{ID: 3}, CallOpts{Timeout: time.Second}); !errors.Is(err, ErrDeadPort) {
		t.Fatalf("call after Stop: err = %v, want ErrDeadPort", err)
	}
}
