package drivers

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cpu"
	"repro/internal/iosys"
	"repro/internal/kstat"
	"repro/internal/mach"
	"repro/internal/objsys"
	"repro/internal/vfs"
)

// ioOp names one driver operation: the name of its record and its kstat
// family, "drivers.io.<name>", declared once so no request looks it up.
type ioOp struct {
	name string
	key  *kstat.Key
}

func newIOOp(name string) ioOp { return ioOp{name: name, key: kstat.NewKey("drivers.io." + name)} }

// The driver operations traceIO counts.
var (
	ioBSDRead    = newIOOp("bsd:read")
	ioBSDWrite   = newIOOp("bsd:write")
	ioUdrvHandle = newIOOp("udrv:handle")
	ioUdrvRead   = newIOOp("udrv:read")
	ioUdrvWrite  = newIOOp("udrv:write")
	ioUdrvWriteV = newIOOp("udrv:writev")
	ioOODDMRead  = newIOOp("ooddm:read")
	ioOODDMWrite = newIOOp("ooddm:write")
)

// traceIO counts a driver request on its operation's kstat family and
// opens its record; End on the nil record returned when nothing observes
// driver I/O is a no-op.
func traceIO(k *mach.Kernel, op ioOp) *cpu.Span {
	ps := k.CPU.Planes()
	kstat.From(ps).Count(op.key).Inc()
	return ps.Open(cpu.Event{Type: cpu.EvDriverIO, Subsystem: "drivers", Name: op.name}, nil)
}

// BlockDriver is the common interface of the three driver architectures.
// The caller thread is explicit because the user-level model performs an
// RPC on the caller's behalf.
type BlockDriver interface {
	// ReadSectors reads count sectors starting at sector.
	ReadSectors(caller *mach.Thread, sector uint64, count int) ([]byte, error)
	// WriteSectors writes data (whole sectors) starting at sector.
	WriteSectors(caller *mach.Thread, sector uint64, data []byte) error
	// Model names the driver architecture.
	Model() string
}

// Errors of the block-driver protocol.
var (
	// ErrDriverDead reports a driver whose server task has exited.
	ErrDriverDead = errors.New("drivers: driver task terminated")
	// ErrBadRequest reports a request body too short for its operation.
	ErrBadRequest = errors.New("drivers: malformed request")
)

// --- In-kernel BSD-style driver -----------------------------------------

// KernelBlockDriver is the classic structure: the driver is kernel text;
// a request costs one trap, the driver path, and the device operation,
// with the interrupt handled in the kernel.
type KernelBlockDriver struct {
	k    *mach.Kernel
	disk *Disk
	path cpu.Region
}

// NewKernelBlockDriver links a BSD-style driver into the kernel.  It
// installs the in-kernel completion handler.
func NewKernelBlockDriver(k *mach.Kernel, layout *cpu.Layout, disk *Disk, intr *iosys.InterruptController) (*KernelBlockDriver, error) {
	d := &KernelBlockDriver{
		k:    k,
		disk: disk,
		path: layout.PlaceInstr("bsd_block_driver", 700),
	}
	if err := intr.Load(disk.Vector(), func(int) {
		k.CPU.Instr(80) // in-kernel completion
	}, false); err != nil {
		return nil, err
	}
	return d, nil
}

// ReadSectors implements BlockDriver.
func (d *KernelBlockDriver) ReadSectors(caller *mach.Thread, sector uint64, count int) ([]byte, error) {
	defer traceIO(d.k, ioBSDRead).End()
	d.k.Trap(d.path)
	buf := make([]byte, count*SectorSize)
	if err := d.disk.ReadSectors(sector, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteSectors implements BlockDriver.
func (d *KernelBlockDriver) WriteSectors(caller *mach.Thread, sector uint64, data []byte) error {
	defer traceIO(d.k, ioBSDWrite).End()
	d.k.Trap(d.path)
	return d.disk.WriteSectors(sector, data)
}

// Model implements BlockDriver.
func (d *KernelBlockDriver) Model() string { return "in-kernel BSD-style" }

// --- User-level driver ---------------------------------------------------

// Message IDs of the user-level driver protocol.
const (
	msgRead  mach.MsgID = 0x0D01
	msgWrite mach.MsgID = 0x0D02
)

// UserBlockDriver runs the driver in its own task per the user-level
// architecture: requests arrive by RPC, the device is reached through
// HRM-granted resources, and completions are reflected to user level.
//
// Handler concurrency contract: with pool > 1 handle runs on up to pool
// threads at once.  The Disk is internally locked; the send-right cache
// (names) is guarded by mu — it is also touched from client threads, so
// it needs the lock even at pool == 1.
type UserBlockDriver struct {
	k    *mach.Kernel
	task *mach.Task
	port mach.PortName
	disk *Disk
	path cpu.Region

	// xfer is the boot's transfer agreement (see SetTransfer).
	xfer mach.Transfer

	mu    sync.Mutex
	names map[mach.TaskID]mach.PortName
}

// SetTransfer installs the boot's transfer agreement: sector payloads
// are placed by its rule (mach.Transfer.Place) in both directions.
// Whether write-behind runs are vectored is decided where the device
// adapter is built (NewDev).  Like vfs.Server.SetTransfer this is a
// boot-time switch: call it before the driver sees traffic.
func (d *UserBlockDriver) SetTransfer(x mach.Transfer) { d.xfer = x }

// NewUserBlockDriver starts the driver task and its service loop of pool
// threads (pool <= 1 keeps the classic single loop).
func NewUserBlockDriver(k *mach.Kernel, layout *cpu.Layout, disk *Disk, hrm *iosys.HRM, intr *iosys.InterruptController, pool int) (*UserBlockDriver, error) {
	d := &UserBlockDriver{
		k:     k,
		disk:  disk,
		path:  layout.PlaceInstr("user_block_driver", 650),
		names: make(map[mach.TaskID]mach.PortName),
	}
	d.task = k.NewTask("blockdrv")
	port, err := d.task.AllocatePort()
	if err != nil {
		return nil, err
	}
	d.port = port

	hrm.Register(iosys.Resource{Name: "disk0:regs", Kind: iosys.ResIOPorts, Base: 0x1F0, Size: 8})
	if _, err := hrm.Request("disk0:regs", "blockdrv", nil); err != nil {
		return nil, err
	}
	// Completion reflected to user level: the expensive half of the
	// architecture.
	if err := intr.Load(disk.Vector(), func(int) {
		k.CPU.Instr(120) // user-level completion routine
	}, true); err != nil {
		return nil, err
	}

	sp, err := d.task.ServePool("service", port, pool, d.handle)
	if err != nil {
		return nil, err
	}
	// The pool threads overlap driver-path CPU work, but a service burst
	// is dominated by device time and there is only one disk arm: in
	// modeled time the driver stays a serial resource.
	sp.LimitVirtualServers(1)
	return d, nil
}

// handle serves one request.  The request is wire input from any task
// holding a send right, and no serve loop recovers a panic, so a body too
// short for its operation or a run past the disk gets an error reply:
// the sector count is bounded before it sizes an allocation.
func (d *UserBlockDriver) handle(req *mach.Message) *mach.Message {
	defer traceIO(d.k, ioUdrvHandle).End()
	d.k.CPU.Exec(d.path)
	switch req.ID {
	case msgRead:
		if len(req.Body) < 16 {
			return errReply(ErrBadRequest)
		}
		sector, count := binary.BigEndian.Uint64(req.Body[0:8]), binary.BigEndian.Uint64(req.Body[8:16])
		if count > d.disk.Sectors() {
			return errReply(ErrBadSector)
		}
		buf := make([]byte, count*SectorSize)
		if err := d.disk.ReadSectors(sector, buf); err != nil {
			return errReply(err)
		}
		return d.xfer.Place(0, nil, buf)
	case msgWrite:
		if len(req.Body) < 8 {
			return errReply(ErrBadRequest)
		}
		if err := d.disk.WriteSectors(binary.BigEndian.Uint64(req.Body[0:8]), req.Payload()); err != nil {
			return errReply(err)
		}
		return &mach.Message{ID: 0}
	default:
		return errReply(ErrBadRequest)
	}
}

func errReply(err error) *mach.Message {
	return &mach.Message{ID: 1, Body: []byte(err.Error())}
}

// portFor gives the caller's task a send right to the driver.
func (d *UserBlockDriver) portFor(caller *mach.Thread) (mach.PortName, error) {
	t := caller.Task()
	d.mu.Lock()
	n, ok := d.names[t.ID()]
	d.mu.Unlock()
	if ok {
		return n, nil
	}
	n, err := t.InsertRight(d.task, d.port, mach.DispMakeSend)
	if err != nil {
		return mach.NullName, err
	}
	d.mu.Lock()
	d.names[t.ID()] = n
	d.mu.Unlock()
	return n, nil
}

// call sends one request to the driver task; an error reply is an error.
func (d *UserBlockDriver) call(caller *mach.Thread, op ioOp, req *mach.Message) (*mach.Message, error) {
	defer traceIO(d.k, op).End()
	n, err := d.portFor(caller)
	if err != nil {
		return nil, err
	}
	reply, err := caller.Call(n, req, mach.CallOpts{})
	if err != nil {
		return nil, err
	}
	if reply.ID != 0 {
		return nil, fmt.Errorf("drivers: %s", reply.Body)
	}
	return reply, nil
}

// ReadSectors implements BlockDriver via RPC to the driver task.
func (d *UserBlockDriver) ReadSectors(caller *mach.Thread, sector uint64, count int) ([]byte, error) {
	body := make([]byte, 16)
	binary.BigEndian.PutUint64(body[0:8], sector)
	binary.BigEndian.PutUint64(body[8:16], uint64(count))
	reply, err := d.call(caller, ioUdrvRead, &mach.Message{ID: msgRead, Body: body})
	if err != nil {
		return nil, err
	}
	return reply.Payload(), nil
}

// writeReq builds the msgWrite request for one sector run.
func (d *UserBlockDriver) writeReq(sector uint64, data []byte) *mach.Message {
	body := make([]byte, 16)
	binary.BigEndian.PutUint64(body[0:8], sector)
	return d.xfer.Place(msgWrite, body, data)
}

// WriteSectors implements BlockDriver via RPC to the driver task.
func (d *UserBlockDriver) WriteSectors(caller *mach.Thread, sector uint64, data []byte) error {
	_, err := d.call(caller, ioUdrvWrite, d.writeReq(sector, data))
	return err
}

// WriteSectorsV commits several discontiguous sector runs through the
// driver in one vectored RPC: a carrier message crosses once and each
// run rides as a msgWrite sub-message, so the whole write-behind flush
// costs one dispatch and one address-space round trip.  The count
// reports how many runs were committed before the first error, so the
// buffer cache keeps exactly the unwritten runs dirty for retry.  Only
// the vectored adapter calls it, and NewDev builds that adapter only
// when the boot's transfer agreement batches.
func (d *UserBlockDriver) WriteSectorsV(caller *mach.Thread, runs []vfs.SectorRun) (int, error) {
	if len(runs) == 0 {
		return 0, nil
	}
	defer traceIO(d.k, ioUdrvWriteV).End()
	n, err := d.portFor(caller)
	if err != nil {
		return 0, err
	}
	reqs := make([]*mach.Message, len(runs))
	for i, r := range runs {
		reqs[i] = d.writeReq(r.Sector, r.Data)
	}
	replies, err := caller.CallV(n, reqs, mach.CallOpts{})
	if err != nil {
		return 0, err
	}
	for i, reply := range replies {
		if reply.ID != 0 {
			// Later runs may also have landed (the handler sees every
			// sub), but reporting the first failure index is safe: a
			// retried run rewrites identical sectors.
			return i, fmt.Errorf("drivers: %s", reply.Body)
		}
	}
	return len(runs), nil
}

// Model implements BlockDriver.
func (d *UserBlockDriver) Model() string { return "user-level task" }

// Task exposes the driver task (for shutdown in tests).
func (d *UserBlockDriver) Task() *mach.Task { return d.task }

// --- OODDM fine-grained-object driver -------------------------------------

// OODDMBlockDriver is Taligent's architecture: a mostly-in-kernel driver
// assembled from fine-grained objects, where each request traverses a
// chain of short virtual methods, plus an in-kernel C++ runtime.
type OODDMBlockDriver struct {
	k     *mach.Kernel
	disk  *Disk
	h     *objsys.Hierarchy
	obj   *objsys.Object
	chain []string
}

// NewOODDMBlockDriver builds the class hierarchy (TInterruptHandler <-
// TDevice <- TBlockDevice <- TDiskDevice <- TIDEDisk, with helper mixin
// layers) and instantiates the driver.
func NewOODDMBlockDriver(k *mach.Kernel, layout *cpu.Layout, disk *Disk, intr *iosys.InterruptController) (*OODDMBlockDriver, error) {
	h := objsys.NewHierarchy(k.CPU, layout)
	classes := []struct {
		name, parent string
		method       string
	}{
		{"TInterruptHandler", "", "HandleInterrupt"},
		{"TDevice", "TInterruptHandler", "ValidateRequest"},
		{"TIOService", "TDevice", "EnterService"},
		{"TBlockDevice", "TIOService", "MapBuffer"},
		{"TQueueingDevice", "TBlockDevice", "EnqueueRequest"},
		{"TDiskDevice", "TQueueingDevice", "ComputeGeometry"},
		{"TDMADevice", "TDiskDevice", "ProgramDMA"},
		{"TIDEDisk", "TDMADevice", "IssueCommand"},
	}
	var chain []string
	for _, c := range classes {
		if _, err := h.DefineClass(c.name, c.parent, map[string]uint64{c.method: 95}); err != nil {
			return nil, err
		}
		if c.parent != "" { // HandleInterrupt runs from the vector, not the chain
			chain = append(chain, c.method)
		}
	}
	h.Freeze()
	obj, err := h.New("TIDEDisk")
	if err != nil {
		return nil, err
	}
	d := &OODDMBlockDriver{k: k, disk: disk, h: h, obj: obj, chain: chain}
	if err := intr.Load(disk.Vector(), func(int) {
		h.Invoke(obj, "HandleInterrupt")
	}, false); err != nil {
		return nil, err
	}
	return d, nil
}

// ReadSectors implements BlockDriver via the object chain.
func (d *OODDMBlockDriver) ReadSectors(caller *mach.Thread, sector uint64, count int) ([]byte, error) {
	defer traceIO(d.k, ioOODDMRead).End()
	d.k.Trap(cpu.Region{})
	if err := d.h.InvokeChain(d.obj, d.chain); err != nil {
		return nil, err
	}
	buf := make([]byte, count*SectorSize)
	if err := d.disk.ReadSectors(sector, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteSectors implements BlockDriver via the object chain.
func (d *OODDMBlockDriver) WriteSectors(caller *mach.Thread, sector uint64, data []byte) error {
	defer traceIO(d.k, ioOODDMWrite).End()
	d.k.Trap(cpu.Region{})
	if err := d.h.InvokeChain(d.obj, d.chain); err != nil {
		return err
	}
	return d.disk.WriteSectors(sector, data)
}

// Model implements BlockDriver.
func (d *OODDMBlockDriver) Model() string { return "OODDM fine-grained objects" }

// Hierarchy exposes the class hierarchy (for metadata accounting).
func (d *OODDMBlockDriver) Hierarchy() *objsys.Hierarchy { return d.h }
