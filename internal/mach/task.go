package mach

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/kflight"
)

// Task is a Mach task: an address space (identified here by its ASID and
// glued to internal/vm by higher layers), a port name space and a set of
// threads.  Operating-system personality processes map one-to-one onto
// tasks, as the paper describes for OS/2.
type Task struct {
	kernel *Kernel
	id     TaskID
	name   string
	asid   uint64

	ports *space

	mu        sync.Mutex
	threads   map[ThreadID]*Thread
	dead      bool
	selfPort  *Port
	suspendCt int

	// AS is an attachment point for the task's address space object
	// (an *vm.Map); the microkernel itself never dereferences it,
	// keeping the layering of the real system where VM is a separate
	// component.
	AS any

	// pset is the processor set the task is assigned to; nil means the
	// default set.  The scheduler dispatches the task's threads onto
	// this set's engines.
	pset atomic.Pointer[ProcessorSet]
}

// NewTask creates a task.  It charges the task-creation path.
func (k *Kernel) NewTask(name string) *Task {
	k.trap()
	k.CPU.Exec(k.paths.taskCreate)
	defer k.rti()
	if ps := k.CPU.Planes(); ps.Wants(cpu.EvTask) {
		ps.Emit(cpu.Event{Type: cpu.EvTask, Subsystem: "mach.task", Name: "task_create:" + name})
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.newTaskLocked(name)
}

func (k *Kernel) newTaskLocked(name string) *Task {
	t := &Task{
		kernel:  k,
		id:      k.nextTask,
		name:    name,
		asid:    uint64(k.nextTask),
		ports:   newSpace(),
		threads: make(map[ThreadID]*Thread),
	}
	if name == "kernel" && k.nextTask == 1 {
		t.asid = 0
	}
	k.nextTask++
	k.tasks[t.id] = t
	t.selfPort = newPort(k.allocPortID())
	t.selfPort.recvTask = t
	t.ports.insert(t.selfPort, RightReceive)
	return t
}

// ID returns the task identifier.
func (t *Task) ID() TaskID { return t.id }

// Name returns the task's debug name.
func (t *Task) Name() string { return t.name }

// ASID returns the address-space identifier loaded on RPC delivery into
// this task.
func (t *Task) ASID() uint64 { return t.asid }

// Terminate kills the task: all threads are marked dead and all ports it
// holds receive rights for are destroyed.
func (t *Task) Terminate() {
	t.kernel.trap()
	defer t.kernel.rti()
	t.mu.Lock()
	if t.dead {
		t.mu.Unlock()
		return
	}
	t.dead = true
	threads := make([]*Thread, 0, len(t.threads))
	for _, th := range t.threads {
		threads = append(threads, th)
	}
	t.mu.Unlock()
	for _, th := range threads {
		th.terminate()
	}
	// Destroy ports we hold the receive right for.
	for _, n := range t.ports.names() {
		if e, err := t.ports.lookup(n, RightNone); err == nil && e.typ == RightReceive {
			e.port.destroy()
		}
	}
	t.kernel.mu.Lock()
	delete(t.kernel.tasks, t.id)
	t.kernel.mu.Unlock()
}

// Dead reports whether the task has been terminated.
func (t *Task) Dead() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dead
}

// PortCount reports the number of names in the task's port space.
func (t *Task) PortCount() int { return t.ports.count() }

func (t *Task) String() string {
	return fmt.Sprintf("task %d (%s)", t.id, t.name)
}

// Thread is a Mach thread.  Simulated threads are backed by goroutines,
// except a server pool's slots, which run on their callers'; all
// performance numbers come from the cost model, not the Go scheduler.
type Thread struct {
	task *Task
	id   ThreadID
	name string

	mu       sync.Mutex
	dead     bool
	doneCh   chan struct{}
	selfPort *Port
	selfName PortName
	abort    chan struct{}

	// lastEng is the engine this thread's previous burst ran on — the
	// scheduler's affinity hint, and the reference that makes a resume
	// elsewhere a migration.  schedCycles accumulates the lengths of the
	// thread's bursts: the cycles each charged through its own binding.
	// bind is the binding record the thread's bursts reuse, bindBusy
	// whether a burst holds it.
	lastEng     atomic.Pointer[cpu.Engine]
	schedCycles atomic.Uint64
	bind        cpu.Binding
	bindBusy    atomic.Bool

	// vt is the thread's virtual clock: the modeled time its last burst
	// completed.  The scheduler starts each burst at max(engine clock,
	// thread clock), and RPC replies carry the server's completion time
	// into the blocked client via syncVT — which is how client-blocks-
	// on-server shows up in the modeled makespan.
	vt atomic.Uint64

	// schedBurst/schedPoolWait/schedCPUWait describe the modeled
	// schedule of the thread's last settled burst: its charged length,
	// the virtual cycles it waited on its pool's capacity (e.g. the
	// block driver's single virtual server — the disk arm), and the
	// virtual cycles it waited on engine capacity.  Observation only,
	// recorded at release for the latency ledger; written by the
	// releasing goroutine and read by the same goroutine immediately
	// after (the reply-delivery path).
	schedBurst    atomic.Uint64
	schedPoolWait atomic.Uint64
	schedCPUWait  atomic.Uint64

	// poolVT, when set (by ServerPool as it creates the slot), marks
	// this thread as an interchangeable pool slot: its server bursts
	// serialize on the pool's virtual capacity instead of on the
	// thread's own clock.  Written once before the slot is first freed.
	poolVT *vtPool

	// actFor is the record of the request the thread calls for (ActFor).
	actFor atomic.Pointer[cpu.Span]

	// wait is the thread's registered blocking point (nil while running):
	// the structural-introspection hook behind the kflight wait-for
	// graph.  Written by the thread around its own blocking selects, read
	// by Kernel.WaitEdges from any goroutine.
	wait atomic.Pointer[flightWait]

	// waits are the thread's RPC wait records, for a slot then for the
	// reply: each call aims both at its port and operation before
	// publishing either, so the crossing builds no record of its own.
	waits [2]flightWait

	// exit, when set at creation, runs once when the thread dies: a pool
	// slot's live count falls with it.
	exit func()
}

// ActFor names the request the thread's Calls are made for: until
// ActFor(nil), every call it makes is a child of req in the latency
// ledger.  This is how a proxy thread — one a server calls onward through
// for whichever request it is serving, like the file server's diskio —
// is told its parent by the handler that holds the message.  The thread
// does not arbitrate: its owner admits one request at a time; callers
// sharing a thread without such an owner use CallOpts.Parent instead.
// A nil thread, request or ledger names nothing.
func (th *Thread) ActFor(req *Message) {
	if th != nil {
		th.actFor.Store(req.Record())
	}
}

// syncVT advances the thread's virtual clock to at least v: the thread
// cannot run its next burst before the event it was blocked on (an RPC
// reply, a request arrival) completed in modeled time.
func (th *Thread) syncVT(v uint64) {
	for {
		cur := th.vt.Load()
		if v <= cur || th.vt.CompareAndSwap(cur, v) {
			return
		}
	}
}

// SchedCycles reports the cycles the scheduler has observed across this
// thread's dispatched bursts (0 on single-CPU kernels, where nothing is
// dispatched).
func (th *Thread) SchedCycles() uint64 { return th.schedCycles.Load() }

// VT reports the thread's virtual clock: the modeled time its last burst
// completed (0 on single-CPU kernels).
func (th *Thread) VT() uint64 { return th.vt.Load() }

// ThreadsSnapshot returns the task's live threads at this instant, for
// tools and tests.
func (t *Task) ThreadsSnapshot() []*Thread {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Thread, 0, len(t.threads))
	for _, th := range t.threads {
		out = append(out, th)
	}
	return out
}

// Spawn creates a thread in the task running fn on its own goroutine.
// It charges the thread-creation path.
func (t *Task) Spawn(name string, fn func(*Thread)) (*Thread, error) {
	th, err := t.create(name, nil)
	if err != nil {
		return nil, err
	}
	go func() {
		defer th.terminate()
		fn(th)
	}()
	return th, nil
}

// create is thread_create: it charges the thread-creation path and
// returns a thread with no goroutine, whose death runs exit.
func (t *Task) create(name string, exit func()) (*Thread, error) {
	k := t.kernel
	k.trap()
	k.CPU.Exec(k.paths.threadCreate)
	k.rti()
	if ps := k.CPU.Planes(); ps.Wants(cpu.EvTask) {
		ps.Emit(cpu.Event{Type: cpu.EvTask, Subsystem: "mach.task", Name: "thread_create:" + name, Arg: uint64(t.id)})
	}
	return t.newThread(name, exit)
}

// NewBoundThread creates a thread object without a goroutine; the caller's
// own goroutine acts as the thread (used by benchmarks and the boot task).
func (t *Task) NewBoundThread(name string) (*Thread, error) {
	return t.newThread(name, nil)
}

// newThread allocates a thread in the task and enters it in its table.
func (t *Task) newThread(name string, exit func()) (*Thread, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead {
		return nil, ErrInvalidTask
	}
	k := t.kernel
	k.mu.Lock()
	id := k.nextThread
	k.nextThread++
	k.mu.Unlock()
	th := &Thread{
		task:   t,
		id:     id,
		name:   name,
		doneCh: make(chan struct{}),
		abort:  make(chan struct{}),
		exit:   exit,
	}
	th.waits[0].kind = kflight.WaitRendezvous
	th.waits[1].kind = kflight.WaitReply
	th.selfPort = newPort(k.allocPortID())
	th.selfPort.recvTask = t
	th.selfName, _ = t.ports.insert(th.selfPort, RightReceive)
	t.threads[id] = th
	return th, nil
}

// ID returns the thread identifier.
func (th *Thread) ID() ThreadID { return th.id }

// Name returns the thread's debug name.
func (th *Thread) Name() string { return th.name }

// Task returns the owning task.
func (th *Thread) Task() *Task { return th.task }

// Done is closed when the thread terminates.
func (th *Thread) Done() <-chan struct{} { return th.doneCh }

// Self is the thread_self trap of Table 2: it enters the kernel, touches
// the thread object, and returns the caller's thread port name.  465
// instructions on the calibrated model.
func (th *Thread) Self() PortName {
	k := th.task.kernel
	// Its record carries the "trap:thread_self" profile frame and the
	// mach.trap family (Table 2's trap column); reads only.
	rec := k.CPU.Planes().Open(cpu.Event{Type: cpu.EvTrap, Subsystem: "trap", Name: "thread_self"}, nil)
	k.trap()
	k.CPU.Exec(k.paths.threadSelf)
	k.touchKData(uint64(th.id), 64)
	k.rti()
	rec.End()
	return th.selfName
}

// terminate marks the thread dead and aborts any blocking operation.
func (th *Thread) terminate() {
	th.mu.Lock()
	if th.dead {
		th.mu.Unlock()
		return
	}
	th.dead = true
	close(th.abort)
	close(th.doneCh)
	th.mu.Unlock()
	th.task.mu.Lock()
	delete(th.task.threads, th.id)
	th.task.mu.Unlock()
	th.selfPort.destroy()
	if th.exit != nil {
		th.exit()
	}
}

// Terminate kills the thread (thread_terminate).
func (th *Thread) Terminate() {
	k := th.task.kernel
	k.trap()
	defer k.rti()
	th.terminate()
}

// Dead reports whether the thread has terminated.
func (th *Thread) Dead() bool {
	th.mu.Lock()
	defer th.mu.Unlock()
	return th.dead
}

func (th *Thread) String() string {
	return fmt.Sprintf("thread %d (%s) of %s", th.id, th.name, th.task)
}

// AllocatePort creates a new port and inserts the receive right into the
// task's name space (mach_port_allocate).
func (t *Task) AllocatePort() (PortName, error) {
	k := t.kernel
	k.trap()
	k.CPU.Exec(k.paths.portLookup)
	defer k.rti()
	t.mu.Lock()
	if t.dead {
		t.mu.Unlock()
		return NullName, ErrInvalidTask
	}
	t.mu.Unlock()
	p := newPort(k.allocPortID())
	p.recvTask = t
	return t.ports.insert(p, RightReceive)
}

// DeallocatePort releases one reference on a name; deleting a receive
// right destroys the port (mach_port_deallocate/destroy).
func (t *Task) DeallocatePort(n PortName) error {
	k := t.kernel
	k.trap()
	k.CPU.Exec(k.paths.portLookup)
	defer k.rti()
	p, typ, err := t.ports.remove(n)
	if err != nil {
		return err
	}
	if typ == RightReceive {
		p.destroy()
	}
	return nil
}

// InsertRight gives the task a right to a port held by another task,
// standing in for right transfer done by the bootstrap/name server
// (mach_port_insert_right).
func (t *Task) InsertRight(from *Task, name PortName, disp PortDisposition) (PortName, error) {
	k := t.kernel
	k.trap()
	k.CPU.Exec(k.paths.rightXfer)
	defer k.rti()
	e, err := from.ports.lookup(name, RightNone)
	if err != nil {
		return NullName, err
	}
	var typ RightType
	switch disp {
	case DispCopySend:
		if e.typ != RightSend && e.typ != RightReceive {
			return NullName, ErrInvalidRight
		}
		typ = RightSend
	case DispMakeSend:
		if e.typ != RightReceive {
			return NullName, ErrInvalidRight
		}
		typ = RightSend
	case DispMakeSendOnce:
		if e.typ != RightReceive {
			return NullName, ErrInvalidRight
		}
		typ = RightSendOnce
	case DispMoveReceive:
		if e.typ != RightReceive {
			return NullName, ErrInvalidRight
		}
		from.ports.remove(name)
		e.port.setReceiverTask(t)
		typ = RightReceive
	default:
		return NullName, ErrInvalidRight
	}
	return t.ports.insert(e.port, typ)
}

// portFor resolves a name in this task's space for sending.
func (t *Task) portFor(n PortName, want RightType) (*Port, *rightEntry, error) {
	e, err := t.ports.lookup(n, want)
	if err != nil {
		return nil, nil, err
	}
	if e.port.Dead() {
		return nil, nil, ErrDeadPort
	}
	return e.port, e, nil
}
