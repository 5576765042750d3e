// Package mach implements the simulated IBM Microkernel: the Mach 3.0
// facilities the paper lists (IPC/RPC, tasks and threads, virtual memory
// hooks, hosts and processor sets, I/O support hooks, clocks/timers hooks
// and synchronizer hooks) with both the classic queued mach_msg IPC path
// and the reworked synchronous RPC path that replaced it.
//
// Every kernel operation charges a calibrated cost to a cpu.Engine, so the
// paper's Table 2 (trap versus RPC) and its two-to-ten-times IPC
// improvement claim are measurable rather than asserted.
package mach

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/kstat"
)

// TaskID identifies a task.
type TaskID uint32

// ThreadID identifies a thread.
type ThreadID uint32

// paths is the set of kernel code regions.  Each is placed by the layout
// so distinct paths genuinely compete for I-cache sets.  Sizes model the
// branchy, spread-out text of the real paths: a path's footprint in bytes
// is larger than instructions*4 because executed instructions are
// scattered across basic blocks.
type paths struct {
	trapEntry  cpu.Region // privilege transition in
	trapExit   cpu.Region // privilege transition out
	threadSelf cpu.Region // the thread_self service body

	portLookup cpu.Region // name -> right translation
	schedule   cpu.Region // thread block/resume and dispatch

	// Reworked RPC path.
	rpcSend    cpu.Region // validate, physical copy, hand-off
	rpcReceive cpu.Region // server-side receive return path
	rpcReply   cpu.Region // reply hand-off back to client
	rpcStubC   cpu.Region // simplified user-level client stub
	rpcStubS   cpu.Region // simplified user-level server loop/stub

	// By-reference and vectored transfer (the rework's bulk-data arc).
	regionMap  cpu.Region // per-page map manipulation, region transfer
	batchDemux cpu.Region // per-sub-message header decode, vectored RPC

	// Classic queued mach_msg path.
	msgSend    cpu.Region // option decode, header parse, enqueue
	msgReceive cpu.Region // dequeue, right translation, copyout
	msgCopyin  cpu.Region // inline body copyin to kernel buffer
	msgCopyout cpu.Region // inline body copyout from kernel buffer
	msgStubC   cpu.Region // MIG-style client stub (reply port mgmt)
	msgStubS   cpu.Region // MIG-style server demux loop
	vcopyPage  cpu.Region // per-page virtual-copy map manipulation
	cowFault   cpu.Region // per-page copy-on-write fault resolution
	rightXfer  cpu.Region // per-right transfer in a message body

	taskCreate   cpu.Region
	threadCreate cpu.Region
}

// Tunables collects the cost-model knobs of the kernel, pre-calibrated so
// that the Table 2 shape holds on the Pentium133 cpu model.
type Tunables struct {
	// TrapCycles is the raw pipeline cost of a privilege transition
	// (interrupt gate plus serialization), charged per kernel entry.
	TrapCycles uint64
	// TrapBusEntry/TrapBusExit are the uncached bus cycles of the
	// privilege transitions (descriptor and gate reads), visible in
	// Table 2's trap bus-cycle count.
	TrapBusEntry, TrapBusExit uint64
	// SparsityNum/Den scale a path's byte footprint relative to
	// instructions*4, modeling branchy code touching more lines than a
	// straight-line sweep would.
	SparsityNum, SparsityDen uint64
	// KDataBase is where kernel data structures (port, thread, queue
	// slots) live for D-cache accounting.
	KDataBase uint64
	// MsgBufBase is the kernel internal message buffer used by the
	// classic path's double copy.
	MsgBufBase uint64
}

// DefaultTunables returns the calibrated defaults.
func DefaultTunables() Tunables {
	return Tunables{
		TrapCycles:   230,
		TrapBusEntry: 120,
		TrapBusExit:  40,
		SparsityNum:  2, SparsityDen: 1,
		KDataBase:  0x40000000,
		MsgBufBase: 0x40100000,
	}
}

// Kernel is the microkernel instance: one simulated host.
type Kernel struct {
	CPU *cpu.Engine

	layout *cpu.Layout
	paths  paths
	tun    Tunables

	// cx and sched are non-nil only on multi-engine kernels (NewSMP with
	// ncpu > 1): cx owns the engines, sched places RPC bursts on them.
	// Single-CPU kernels carry neither, so their charge paths are the
	// exact pre-SMP ones.
	cx    *cpu.Complex
	sched *sched

	mu         sync.Mutex
	tasks      map[TaskID]*Task
	nextTask   TaskID
	nextThread ThreadID
	host       *Host
	nextPort   atomic.Uint64

	kernelTask *Task // asid 0, owns kernel-internal ports
}

// New creates a kernel on the given processor model with one engine.
func New(cfg cpu.Config) *Kernel { return NewSMP(cfg, 1) }

// NewSMP creates a kernel on ncpu engines of the given processor model.
// With ncpu = 1 the kernel is identical to New's: a standalone engine,
// no router, no scheduler.
func NewSMP(cfg cpu.Config, ncpu int) *Kernel {
	k := &Kernel{
		layout:   cpu.NewLayout(0x00100000),
		tun:      DefaultTunables(),
		tasks:    make(map[TaskID]*Task),
		nextTask: 1, nextThread: 1,
	}
	// The standalone engine stays beside the Complex: a Complex of one
	// would route every charge through its per-OS-thread binding table,
	// paying Gettid per charge (tid_linux.go) for nothing to route.
	if ncpu > 1 {
		k.cx = cpu.NewComplex(cfg, ncpu)
		k.CPU = k.cx.Router()
	} else {
		k.CPU = cpu.NewEngine(cfg)
	}
	k.placePaths()
	if k.cx != nil {
		k.sched = newSched(k)
	}
	k.host = newHost(k)
	k.kernelTask = k.newTaskLocked("kernel")
	return k
}

// Complex returns the engine complex, or nil on a single-CPU kernel.
func (k *Kernel) Complex() *cpu.Complex { return k.cx }

// NCPUs reports the number of engines.
func (k *Kernel) NCPUs() int {
	if k.cx != nil {
		return k.cx.Size()
	}
	return 1
}

// Engines returns the kernel's engines, slot-ordered.
func (k *Kernel) Engines() []*cpu.Engine { return k.CPU.Engines() }

// place lays out a region with the configured sparsity: instr instructions
// occupying instr*4*sparsity bytes.
func (k *Kernel) place(name string, instr uint64) cpu.Region {
	size := instr * 4 * k.tun.SparsityNum / k.tun.SparsityDen
	r := k.layout.Place(name, size)
	r.Instr = instr
	return r
}

func (k *Kernel) placePaths() {
	p := &k.paths
	// Trap path: 465 instructions total for thread_self in Table 2.
	p.trapEntry = k.place("trap_entry", 120)
	p.trapExit = k.place("trap_exit", 110)
	p.threadSelf = k.place("thread_self", 235)

	p.portLookup = k.place("port_lookup", 70)
	p.schedule = k.place("schedule", 95)

	// Reworked RPC: 1317 instructions for the 32-byte round trip.
	// client stub 140 + trap 120 + lookup 70 + send 180 + sched 95 +
	// receive 105 + server stub 125 + reply-trap 120 + reply 130 +
	// sched 95 + trap exit 110 + (server trapExit+client resume inside
	// stubs) ≈ 1317 with the shared paths counted per traversal.
	p.rpcSend = k.place("rpc_send", 180)
	p.rpcReceive = k.place("rpc_receive", 105)
	p.rpcReply = k.place("rpc_reply", 130)
	p.rpcStubC = k.place("rpc_stub_client", 140)
	p.rpcStubS = k.place("rpc_stub_server", 125)

	// Classic mach_msg: the paper's rework removed option decoding,
	// queuing, reply ports and the double copy; the classic path keeps
	// them all and is correspondingly fatter.
	p.msgSend = k.place("mach_msg_send", 780)
	p.msgReceive = k.place("mach_msg_receive", 700)
	p.msgCopyin = k.place("msg_copyin", 160)
	p.msgCopyout = k.place("msg_copyout", 160)
	p.msgStubC = k.place("mig_stub_client", 420)
	p.msgStubS = k.place("mig_server_demux", 390)
	p.vcopyPage = k.place("vm_map_copy_page", 620)
	p.cowFault = k.place("cow_fault", 710)
	p.rightXfer = k.place("ipc_right_transfer", 180)

	p.taskCreate = k.place("task_create", 900)
	p.threadCreate = k.place("thread_create", 600)

	// By-reference transfer paths, hand-placed at a fixed address instead
	// of through the layout cursor: components (vfs, os2, drivers) place
	// their own text after placePaths runs, so advancing the cursor here
	// would relocate every later placement and perturb the I-cache
	// conflict pattern of code that never touches these paths.  Pinning
	// them keeps a features-off boot's cycle model identical to the
	// pre-region baseline.  The region map is much leaner than the classic
	// vm_map_copy_page (620 instr): no copy object, no COW setup — an
	// entry install plus accounting.
	p.regionMap = k.fixedPath(0x3E000000, "rpc_region_map", 150)
	p.batchDemux = k.fixedPath(0x3E010000, "rpc_batch_demux", 25)
}

// fixedPath builds a code region at a pinned address with the configured
// sparsity, bypassing the layout cursor (see placePaths for why).
func (k *Kernel) fixedPath(base uint64, name string, instr uint64) cpu.Region {
	return cpu.Region{
		Name:  name,
		Base:  base,
		Size:  instr * 4 * k.tun.SparsityNum / k.tun.SparsityDen,
		Instr: instr,
	}
}

// Host returns the host object (hosts-and-processor-sets component).
func (k *Kernel) Host() *Host { return k.host }

// trap charges one kernel entry: user->kernel privilege transition.
// mach.kernel.entries is a count, not a stamp point: it goes to kstat's
// direct API.
func (k *Kernel) trap() {
	kstat.For(k.CPU).Counter("mach.kernel.entries").Inc()
	k.CPU.Stall(k.tun.TrapCycles)
	k.CPU.Overhead(0, k.tun.TrapBusEntry)
	k.CPU.Exec(k.paths.trapEntry)
}

// rti charges the kernel exit path.
func (k *Kernel) rti() {
	k.CPU.Exec(k.paths.trapExit)
	k.CPU.Overhead(0, k.tun.TrapBusExit)
}

// touchKData models a D-cache access to a kernel object (port, thread,
// queue slot) identified by its kernel address.
func (k *Kernel) touchKData(id uint64, size uint64) {
	k.CPU.Read(k.tun.KDataBase+id*256, size)
}

// allocPortID hands out kernel port identities.
func (k *Kernel) allocPortID() uint64 {
	return k.nextPort.Add(1)
}

// Trap charges a full user->kernel->user crossing running the given code
// path in between.  Components layered on the microkernel (in-kernel
// drivers, the monolithic baseline of the evaluation) use this to model
// their trap-based service entries.  Its record carries the
// "trap:<path>" profile frame.
func (k *Kernel) Trap(path cpu.Region) {
	defer k.CPU.Planes().Open(cpu.Event{Type: cpu.EvKernel, Subsystem: "trap", Name: path.Name}, nil).End()
	k.trap()
	if path.Instr > 0 {
		k.CPU.Exec(path)
	}
	k.rti()
}

// Layout exposes the kernel's code layout so other simulated components
// place their paths in the same competing address space.
func (k *Kernel) Layout() *cpu.Layout { return k.layout }

// Tasks returns a snapshot of live tasks.
func (k *Kernel) Tasks() []*Task {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]*Task, 0, len(k.tasks))
	for _, t := range k.tasks {
		out = append(out, t)
	}
	return out
}

// FindTask returns the task with the given ID.
func (k *Kernel) FindTask(id TaskID) (*Task, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	t, ok := k.tasks[id]
	if !ok {
		return nil, ErrInvalidTask
	}
	return t, nil
}

func (k *Kernel) String() string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return fmt.Sprintf("mach.Kernel{tasks: %d}", len(k.tasks))
}
