package mach

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// parkCase is one kind of kernel wait, set up on a fresh kernel: the
// thread that waits, the wait itself, its grant and set Destroy wakers
// where they apply, and the number of waits still queued where it
// waited.
type parkCase struct {
	th     *Thread
	wait   func(timeout time.Duration) error
	wakers map[string]func()
	left   func() int
}

// parkWakers lists the wakers that apply to each kind of wait, besides
// Terminate.
var parkWakers = map[string][]string{
	"slot claim (port)": {"grant", "port destroy", "deadline"},
	"slot claim (set)":  {"grant", "port destroy", "set Destroy", "deadline"},
	"no server (port)":  {"grant", "port destroy", "deadline"},
	"no server (set)":   {"grant", "port destroy", "set Destroy", "deadline"},
	"queue send":        {"grant", "port destroy"},
	"queue receive":     {"grant", "port destroy"},
	"Serve":             {"port destroy"},
	"Lock":              {"grant"},
}

// parked reports whether th's own goroutine is parked.
func parked(th *Thread) bool {
	th.own.mu.Lock()
	defer th.own.mu.Unlock()
	return th.own.armed
}

// queued counts the waits on q under mu.
func queued(mu *sync.Mutex, q *waitq) func() int {
	return func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(*q)
	}
}

// busyPool serves recv — or, with set, a set holding recv — with a pool
// of one slot and fills the slot with a call held until the returned
// release; calls after the release pass straight through.
func busyPool(t *testing.T, k *Kernel, srv *Task, recv PortName, set bool) (*ServerPool, *PortSet, func()) {
	t.Helper()
	entered, hold := make(chan struct{}, 1), make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release)
	var pool *ServerPool
	var ps *PortSet
	var err error
	if set {
		if ps, err = srv.AllocatePortSet(); err == nil {
			if err = ps.AddMember(recv); err == nil {
				pool, err = srv.ServeSetPool("p", ps, 1, holdAbove(entered, hold))
			}
		}
	} else {
		pool, err = srv.ServePool("p", recv, 1, func(m *Message) *Message { return holdAbove(entered, hold)(recv, m) })
	}
	if err != nil {
		t.Fatal(err)
	}
	holder, send := exchangeClient(t, k, srv, recv)
	go holder.Call(send, &Message{ID: 1000}, CallOpts{})
	<-entered
	return pool, ps, release
}

// parkCases builds each kind of wait.
var parkCases = map[string]func(t *testing.T, k *Kernel, srv *Task, recv PortName) parkCase{
	"slot claim (port)": func(t *testing.T, k *Kernel, srv *Task, recv PortName) parkCase {
		pool, _, release := busyPool(t, k, srv, recv, false)
		th, send := exchangeClient(t, k, srv, recv)
		return parkCase{th: th,
			wait: func(d time.Duration) error {
				_, err := th.Call(send, &Message{ID: 1}, CallOpts{Timeout: d})
				return err
			},
			wakers: map[string]func(){"grant": release},
			left:   queued(&pool.mu, &pool.waiters)}
	},
	"slot claim (set)": func(t *testing.T, k *Kernel, srv *Task, recv PortName) parkCase {
		pool, ps, release := busyPool(t, k, srv, recv, true)
		th, send := exchangeClient(t, k, srv, recv)
		return parkCase{th: th,
			wait: func(d time.Duration) error {
				_, err := th.Call(send, &Message{ID: 1}, CallOpts{Timeout: d})
				return err
			},
			wakers: map[string]func(){"grant": release, "set Destroy": ps.Destroy},
			left:   queued(&pool.mu, &pool.waiters)}
	},
	"no server (port)": func(t *testing.T, k *Kernel, srv *Task, recv PortName) parkCase {
		th, send := exchangeClient(t, k, srv, recv)
		port, _, _ := srv.portFor(recv, RightReceive)
		return parkCase{th: th,
			wait: func(d time.Duration) error {
				_, err := th.Call(send, &Message{ID: 1}, CallOpts{Timeout: d})
				return err
			},
			wakers: map[string]func(){"grant": func() {
				if _, err := srv.ServePool("late", recv, 1, func(m *Message) *Message { return m }); err != nil {
					t.Error(err)
				}
			}},
			left: queued(&port.mu, &port.callers)}
	},
	"no server (set)": func(t *testing.T, k *Kernel, srv *Task, recv PortName) parkCase {
		ps, err := srv.AllocatePortSet()
		if err == nil {
			err = ps.AddMember(recv)
		}
		if err != nil {
			t.Fatal(err)
		}
		th, send := exchangeClient(t, k, srv, recv)
		return parkCase{th: th,
			wait: func(d time.Duration) error {
				_, err := th.Call(send, &Message{ID: 1}, CallOpts{Timeout: d})
				return err
			},
			wakers: map[string]func(){"set Destroy": ps.Destroy, "grant": func() {
				if _, err := srv.ServeSetPool("late", ps, 1, func(_ PortName, m *Message) *Message { return m }); err != nil {
					t.Error(err)
				}
			}},
			left: queued(&ps.mu, &ps.callers)}
	},
	"queue send": func(t *testing.T, k *Kernel, srv *Task, recv PortName) parkCase {
		th, send := exchangeClient(t, k, srv, recv)
		port, _, _ := srv.portFor(recv, RightReceive)
		port.SetQueueLimit(1)
		if err := th.MachMsgSend(send, &Message{ID: 1}, MsgSend); err != nil {
			t.Fatal(err)
		}
		rcv, _ := srv.NewBoundThread("receiver")
		return parkCase{th: th,
			wait: func(time.Duration) error { return th.MachMsgSend(send, &Message{ID: 2}, MsgSend) },
			wakers: map[string]func(){"grant": func() {
				if _, err := rcv.MachMsgReceive(recv, MsgRcv); err != nil {
					t.Error(err)
				}
			}},
			left: queued(&port.mu, &port.senders)}
	},
	"queue receive": func(t *testing.T, k *Kernel, srv *Task, recv PortName) parkCase {
		th, _ := srv.NewBoundThread("receiver")
		snd, send := exchangeClient(t, k, srv, recv)
		port, _, _ := srv.portFor(recv, RightReceive)
		return parkCase{th: th,
			wait: func(time.Duration) error {
				_, err := th.MachMsgReceive(recv, MsgRcv)
				return err
			},
			wakers: map[string]func(){"grant": func() {
				if err := snd.MachMsgSend(send, &Message{ID: 1}, MsgSend); err != nil {
					t.Error(err)
				}
			}},
			left: queued(&port.mu, &port.receivers)}
	},
	"Serve": func(t *testing.T, k *Kernel, srv *Task, recv PortName) parkCase {
		th, _ := srv.NewBoundThread("server")
		return parkCase{th: th,
			wait:   func(time.Duration) error { return th.Serve(recv, func(m *Message) *Message { return m }) },
			wakers: map[string]func(){},
			left:   func() int { return 0 }}
	},
	"Lock": func(t *testing.T, k *Kernel, srv *Task, recv PortName) parkCase {
		l := NewLock("vol")
		l.Acquire(nil)
		th, _ := srv.NewBoundThread("handler")
		return parkCase{th: th,
			wait: func(time.Duration) error {
				l.Acquire(&Message{ID: 1, srv: th})
				l.Release()
				return nil
			},
			wakers: map[string]func(){"grant": l.Release},
			left: func() int {
				l.mu.Lock()
				defer l.mu.Unlock()
				if l.handoff != nil {
					return 1
				}
				return len(l.queue)
			}}
	},
}

// TestParkWakeTable: every kind of kernel wait, woken by every waker that
// applies to it, returns that waker's error and leaves nothing parked —
// not the thread, not its wait record, not an entry on the queue it
// waited on.  A lock wait ends only when the lock is handed over.
func TestParkWakeTable(t *testing.T) {
	want := map[string]error{"grant": nil, "port destroy": ErrDeadPort, "set Destroy": ErrDeadPort,
		"Terminate": ErrAborted, "deadline": ErrTimeout}
	for kind, build := range parkCases {
		for _, waker := range append(parkWakers[kind], "Terminate") {
			t.Run(kind+"/"+waker, func(t *testing.T) {
				k := newTestKernel()
				srv := k.NewTask("server")
				t.Cleanup(srv.Terminate)
				recv, _ := srv.AllocatePort()
				c := build(t, k, srv, recv)
				c.wakers["port destroy"] = func() { srv.DeallocatePort(recv) }
				c.wakers["Terminate"] = c.th.Terminate
				c.wakers["deadline"] = func() {}
				wake := c.wakers[waker]
				timeout := time.Duration(0)
				if waker == "deadline" {
					timeout = slotTimeout
				}
				done := make(chan error, 1)
				go func() { done <- c.wait(timeout) }()
				settle(t, "parked", func() bool { return parked(c.th) || len(done) > 0 })
				wake()
				wantErr := want[waker]
				if kind == "Lock" && waker == "Terminate" {
					// Termination does not end a lock wait; the handoff does.
					select {
					case err := <-done:
						t.Fatalf("a terminated lock waiter resumed (%v) before the handoff", err)
					case <-time.After(10 * time.Millisecond):
					}
					c.wakers["grant"]()
					wantErr = nil
				}
				select {
				case err := <-done:
					if !errors.Is(err, wantErr) {
						t.Fatalf("wait returned %v, want %v", err, wantErr)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("the waker did not resume the wait")
				}
				if parked(c.th) || c.th.pk.Load() != &c.th.own {
					t.Error("the thread is still parked")
				}
				if c.th.wait.Load() != nil {
					t.Error("the thread's wait record is still published")
				}
				if n := c.left(); n != 0 {
					t.Errorf("%d waits still queued", n)
				}
			})
		}
	}
}

// TestParkWakeRaces: a thread's termination, or a call's deadline, racing
// the grant of the slot or lock it waits for never loses the resource —
// whichever waker lands, the next caller gets it.  Run under -race.
func TestParkWakeRaces(t *testing.T) {
	for _, waker := range []string{"Terminate", "deadline"} {
		t.Run("slot/"+waker, func(t *testing.T) {
			for i := range 20 {
				k := newTestKernel()
				srv := k.NewTask("server")
				recv, _ := srv.AllocatePort()
				pool, _, release := busyPool(t, k, srv, recv, false)
				th, send := exchangeClient(t, k, srv, recv)
				timeout := time.Duration(0)
				if waker == "deadline" {
					timeout = time.Millisecond
				}
				done := make(chan error, 1)
				go func() {
					_, err := th.Call(send, &Message{ID: 1}, CallOpts{Timeout: timeout})
					done <- err
				}()
				settle(t, "parked", func() bool { return parked(th) || len(done) > 0 })
				go release()
				if waker == "Terminate" {
					th.Terminate()
				}
				if err := <-done; err != nil && !errors.Is(err, ErrAborted) && !errors.Is(err, ErrTimeout) {
					t.Fatalf("run %d: racing call: %v", i, err)
				}
				next, send2 := exchangeClient(t, k, srv, recv)
				if _, err := next.Call(send2, &Message{ID: 2}, CallOpts{Timeout: 5 * time.Second}); err != nil {
					t.Fatalf("run %d: the next caller did not get the slot: %v", i, err)
				}
				pool.mu.Lock()
				waiters, idle := len(pool.waiters), len(pool.idle)
				pool.mu.Unlock()
				if waiters != 0 || idle != 1 {
					t.Fatalf("run %d: %d waiters, %d idle slots; want 0 and 1", i, waiters, idle)
				}
				srv.Terminate()
			}
		})
	}
	t.Run("lock/Terminate", func(t *testing.T) {
		for i := range 20 {
			k := newTestKernel()
			task := k.NewTask("server")
			th, _ := task.NewBoundThread("waiter")
			l := NewLock("vol")
			l.Acquire(nil)
			done := make(chan struct{})
			go func() {
				l.Acquire(&Message{ID: 1, srv: th})
				l.Release()
				close(done)
			}()
			settle(t, "parked", func() bool { return parked(th) })
			go th.Terminate()
			l.Release()
			<-done
			next := make(chan struct{})
			go func() { l.Acquire(nil); l.Release(); close(next) }()
			select {
			case <-next:
			case <-time.After(5 * time.Second):
				t.Fatalf("run %d: the next acquirer did not get the lock", i)
			}
			task.Terminate()
		}
	})
}
