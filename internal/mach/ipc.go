package mach

import (
	"time"

	"repro/internal/cpu"
	"repro/internal/kflight"
)

// This file implements the classic Mach 3.0 mach_msg path that the rework
// replaced: asynchronous queued delivery, reply ports, option decoding,
// a double copy for inline data (sender -> kernel buffer -> receiver) and
// virtual copy with copy-on-write faults for out-of-line data.  It is kept
// (as "the old implementation of IPC") precisely so the reproduction can
// measure the improvement the paper reports.

// MsgOption controls a MachMsg call, as mach_msg_option_t did.
type MsgOption uint32

const (
	// MsgSend requests the send half.
	MsgSend MsgOption = 1 << iota
	// MsgRcv requests the receive half.
	MsgRcv
	// MsgSendTimeout honors a send timeout (modeled as non-blocking).
	MsgSendTimeout
	// MsgRcvTimeout honors a receive timeout (modeled as non-blocking).
	MsgRcvTimeout
)

// PageSize is the VM page granularity used by the virtual-copy machinery.
const PageSize = 4096

// MachMsgSend enqueues a message on the destination port, blocking while
// the queue is full (unless MsgSendTimeout).  Inline data is copied twice:
// into a kernel buffer here and out again at receive.  Out-of-line data
// goes by virtual copy: per-page map manipulation now, copy-on-write
// faults when the receiver touches it.
func (th *Thread) MachMsgSend(dest PortName, msg *Message, opts MsgOption) error {
	k := th.task.kernel
	// By-reference regions and vectored carriers belong to the reworked
	// RPC path; the classic queued path predates both.
	if len(msg.Regions) > 0 || len(msg.batch) > 0 {
		return ErrNotSupported
	}
	// The send's record parents to whatever record the message carried and
	// becomes the one the delivered copy carries; the sender's message is
	// left as it was, so sending it again parents the same way.
	sp := k.CPU.Planes().Open(cpu.Event{Type: cpu.EvIPCSend, Subsystem: "mach.ipc", Arg: uint64(msg.ID)}, msg.rec)
	defer sp.End()
	k.CPU.Exec(k.paths.msgStubC)
	k.trap()
	k.CPU.Exec(k.paths.portLookup)

	port, entry, err := th.task.portFor(dest, RightSend)
	if err != nil {
		k.rti()
		return err
	}
	k.touchKData(port.id, 96)
	k.CPU.Exec(k.paths.msgSend)

	// Reply-port processing: resolve the local (reply) right.
	m := cloneForDelivery(msg)
	if sp != nil {
		m.rec = sp
	}
	if msg.Local != NullName {
		le, lerr := th.task.ports.lookup(msg.Local, RightNone)
		if lerr != nil {
			k.rti()
			return lerr
		}
		k.CPU.Exec(k.paths.rightXfer)
		m.replyPort = le.port
	}
	if len(msg.Rights) > 0 {
		if err := th.task.loadRights(m); err != nil {
			k.rti()
			return err
		}
	}

	// First copy of the double copy: sender space -> kernel buffer.
	k.CPU.Exec(k.paths.msgCopyin)
	k.CPU.Copy(userBufAddr(th.task.asid), k.tun.MsgBufBase, uint64(len(m.Body)))

	// Virtual copy of out-of-line data: per-page map entry manipulation.
	if len(m.OOL) > 0 {
		pages := (uint64(len(m.OOL)) + PageSize - 1) / PageSize
		for p := uint64(0); p < pages; p++ {
			k.CPU.Exec(k.paths.vcopyPage)
			k.touchKData(0x1000+p, 64) // map entries
		}
	}

	port.mu.Lock()
	for len(port.queue) >= port.limit && !port.dead {
		// A full-queue block is a real dependency edge: the sender waits
		// on the receiver draining the queue.
		err := ErrQueueFull
		if opts&MsgSendTimeout == 0 {
			err = th.queueWait(port, &port.senders, kflight.WaitQueueSend, uint32(msg.ID))
		}
		if err != nil {
			port.mu.Unlock()
			k.rti()
			return err
		}
	}
	if port.dead {
		port.mu.Unlock()
		k.rti()
		return ErrDeadPort
	}
	port.seqno++
	m.Seq = port.seqno
	port.queue = append(port.queue, m)
	port.receivers.next(nil)
	port.mu.Unlock()

	if entry.typ == RightSendOnce {
		th.task.ports.consumeSendOnce(dest)
	}
	k.rti()
	return nil
}

// MachMsgReceive dequeues the next message from the named receive right,
// blocking while the queue is empty (unless MsgRcvTimeout).  It performs
// the second half of the double copy and, for out-of-line data, charges
// the copy-on-write faults the receiver takes when touching the pages.
func (th *Thread) MachMsgReceive(recvName PortName, opts MsgOption) (*Message, error) {
	k := th.task.kernel
	var sp *cpu.Span
	if ps := k.CPU.Planes(); ps.Wants(cpu.EvIPCRecv) {
		sp = ps.Open(cpu.Event{Type: cpu.EvIPCRecv, Subsystem: "mach.ipc", Name: "recv:" + th.task.name}, nil)
	}
	defer sp.End()
	k.CPU.Exec(k.paths.msgStubS)
	k.trap()
	k.CPU.Exec(k.paths.portLookup)

	port, _, err := th.task.portFor(recvName, RightReceive)
	if err != nil {
		k.rti()
		return nil, err
	}
	if port.receiverTask() != th.task {
		k.rti()
		return nil, ErrNotReceiver
	}

	port.mu.Lock()
	for len(port.queue) == 0 && !port.dead {
		err := ErrTimeout
		if opts&MsgRcvTimeout == 0 {
			err = th.queueWait(port, &port.receivers, kflight.WaitQueueRecv, 0)
		}
		if err != nil {
			port.mu.Unlock()
			k.rti()
			return nil, err
		}
	}
	if port.dead && len(port.queue) == 0 {
		port.mu.Unlock()
		k.rti()
		return nil, ErrDeadPort
	}
	m := port.queue[0]
	port.queue = port.queue[1:]
	port.senders.next(nil)
	port.mu.Unlock()

	// The receiver runs in its own space now.
	k.CPU.SwitchAddressSpace(th.task.asid)
	k.CPU.Exec(k.paths.msgReceive)
	k.touchKData(port.id, 96)

	// Second copy of the double copy: kernel buffer -> receiver space.
	k.CPU.Exec(k.paths.msgCopyout)
	k.CPU.Copy(k.tun.MsgBufBase, userBufAddr(th.task.asid), uint64(len(m.Body)))

	// Copy-on-write faults as the receiver touches OOL pages: each
	// fault resolves the virtual copy with a physical page copy.
	if len(m.OOL) > 0 {
		pages := (uint64(len(m.OOL)) + PageSize - 1) / PageSize
		rem := uint64(len(m.OOL))
		for p := uint64(0); p < pages; p++ {
			k.CPU.Exec(k.paths.cowFault)
			n := rem
			if n > PageSize {
				n = PageSize
			}
			rem -= n
			k.CPU.Copy(userBufAddr(0)+p*PageSize, userBufAddr(th.task.asid)+p*PageSize, n)
		}
	}

	// Translate the reply right into the receiver's space so it can
	// respond (the carried right becomes the message's Remote name).
	if m.replyPort != nil {
		k.CPU.Exec(k.paths.rightXfer)
		n, ierr := th.task.ports.insert(m.replyPort, RightSendOnce)
		if ierr == nil {
			m.Remote = n
		}
		m.replyPort = nil
	}
	if len(m.Rights) > 0 {
		th.task.acceptRights(m)
	}

	k.rti()
	return m, nil
}

// queueWait parks th on q, one of port's queue waits, until a waker says
// the queue may have changed (nil) or th is terminated (ErrAborted).
// port.mu is held on entry and on return; the caller looks again.
func (th *Thread) queueWait(port *Port, q *waitq, kind kflight.WaitKind, op uint32) error {
	pk, err := q.enqueue(th, nil, false)
	if err != nil {
		return err
	}
	port.mu.Unlock()
	w := &flightWait{kind: kind}
	w.aim(port, op)
	why := pk.park(th, w, time.Time{})
	port.mu.Lock()
	if why == aborted {
		q.drop(pk)
		return ErrAborted
	}
	return nil
}

// MachRPC is a full classic round trip: allocate (or reuse) a reply port,
// send the request carrying a send-once reply right, and block receiving
// the reply.  This is the path user programs actually ran before the
// rework, and the numerator of the IPC-improvement experiment.
func (th *Thread) MachRPC(dest PortName, req *Message, replyName PortName) (*Message, error) {
	req.Local = replyName
	req.LocalDisposition = DispMakeSendOnce
	if err := th.MachMsgSend(dest, req, MsgSend); err != nil {
		return nil, err
	}
	return th.MachMsgReceive(replyName, MsgRcv)
}

// MachServe runs a classic server loop: receive, handle, send the reply to
// the carried reply port.  It exits when the port dies.
func (th *Thread) MachServe(recvName PortName, h Handler) error {
	for {
		req, err := th.MachMsgReceive(recvName, 0)
		if err != nil {
			return err
		}
		reply := h(req)
		if req.Remote == NullName {
			continue
		}
		if reply == nil {
			reply = &Message{}
		}
		if err := th.MachMsgSend(req.Remote, reply, MsgSend); err != nil && err != ErrDeadPort {
			return err
		}
	}
}
