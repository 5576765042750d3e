package mach

import (
	"repro/internal/cpu"
	"repro/internal/klat"
)

// MsgID identifies the operation requested by a message, as in MIG-
// generated interfaces.
type MsgID uint32

// InlineMax is the largest body carried inline in a message.  Data larger
// than this is passed by reference and copied across from sender to
// receiver ("passed data too large for the message body by reference,
// copying it across from sender to receiver").
const InlineMax = 4096

// PortDisposition says how a right travels in a message body.
type PortDisposition uint8

const (
	// DispNone carries no right.
	DispNone PortDisposition = iota
	// DispCopySend copies a send right from the sender's space.
	DispCopySend
	// DispMakeSend makes a new send right from a receive right.
	DispMakeSend
	// DispMakeSendOnce makes a send-once right from a receive right.
	DispMakeSendOnce
	// DispMoveReceive moves the receive right itself.
	DispMoveReceive
)

// PortRight is a port right in transit inside a message.
type PortRight struct {
	// Name is the sender-side name on send, rewritten to the
	// receiver-side name on delivery.
	Name        PortName
	Disposition PortDisposition

	// port is the kernel-internal carried object while in transit.
	port *Port
	typ  RightType
}

// RegionDesc describes a shared-memory out-of-line region transferred by
// reference on the RPC path.  Instead of copying payload bytes, the
// transfer remaps the region's pages into the receiver's address space:
// the cost model charges a per-page map manipulation (rpc_region_map) and
// **zero** per-byte copy cycles — the paper's by-reference bulk-transfer
// rework, taken past InlineMax's copy-once path.  Data is the backing
// store and is shared by reference between sender and receiver, exactly
// as remapped pages would be; delivered payloads are treated as immutable
// while in flight, like delivered bodies.
type RegionDesc struct {
	// Base is the page-aligned simulated address of the region in the
	// sender's space (only used for cost accounting).
	Base uint64
	// Off is the payload's byte offset within the region.
	Off uint64
	// Len is the payload length in bytes.
	Len uint64
	// Data holds the region's backing bytes; the payload is
	// Data[Off : Off+Len].
	Data []byte
}

// Pages reports how many pages the transfer must remap: every page the
// payload [Off, Off+Len) touches.
func (r *RegionDesc) Pages() uint64 {
	if r.Len == 0 {
		return 0
	}
	first := r.Off / PageSize
	last := (r.Off + r.Len - 1) / PageSize
	return last - first + 1
}

// Payload returns the payload bytes the region carries.
func (r *RegionDesc) Payload() []byte {
	return r.Data[r.Off : r.Off+r.Len]
}

// Transfer is the bulk-transfer agreement a boot makes once and hands to
// both ends of every data-carrying protocol — the file server and its
// clients, the block driver and its caller.  The zero value is the
// seed's: every payload copied, one crossing per operation.
type Transfer struct {
	// ZeroCopy moves payloads of at least a page by region descriptor —
	// per-page map cost, no per-byte copy cost — instead of out of line.
	ZeroCopy bool
	// Batch lets a caller vector several operations into one crossing
	// (the buffer cache's write-behind runs to the block driver).
	Batch bool
}

// Place builds a message carrying data by the one bulk-payload rule: by
// region descriptor when zero-copy is on and data spans at least a page,
// out of line (copied once) otherwise.  Message.Payload reads it back.
func (x Transfer) Place(id MsgID, body, data []byte) *Message {
	m := &Message{ID: id, Body: body}
	if x.ZeroCopy && len(data) >= PageSize {
		m.Regions = []RegionDesc{{Len: uint64(len(data)), Data: data}}
	} else {
		m.OOL = data
	}
	return m
}

// Message is the unit of communication.  The header mirrors Mach's
// mach_msg_header_t: a destination, an optional reply port (used only by
// the classic queued path — the reworked RPC removed reply ports), an
// operation ID and a body.
type Message struct {
	// ID is the operation selector.
	ID MsgID
	// Remote is the destination name on send; on delivery it is
	// rewritten to the reply right's receiver-side name (classic path).
	Remote PortName
	// Local is the reply port name (classic path only).
	Local PortName
	// LocalDisposition controls what right the reply port name carries.
	LocalDisposition PortDisposition

	// Body is the inline data, at most InlineMax bytes.
	Body []byte

	// OOL is the out-of-line payload, passed by reference and copied
	// once, directly from sender to receiver, in the RPC path; the
	// classic path transfers it by virtual copy (per-page map
	// operations plus copy-on-write faults).
	OOL []byte

	// Regions are shared-memory out-of-line regions moved by reference:
	// per-page map cost, no per-byte copy cost.  RPC path only — the
	// classic queued path predates the by-reference rework and rejects
	// them.
	Regions []RegionDesc

	// Rights are port rights carried in the body.
	Rights []PortRight

	// Seq is the delivery sequence number stamped by the kernel.
	Seq uint64

	// replyPort is the in-transit reply right (classic path).
	replyPort *Port

	// batch marks this message as a vectored carrier: one crossing
	// transporting these sub-requests (or sub-replies).  Built by CallV
	// and by a vectored request's reply; never set directly.
	batch []*Message

	// rec is the request's identity: the record of the call (or classic
	// send) that carried it, opened by the sender and set on the delivered
	// header only, so the server side of the crossing stamps the same
	// record, its serve span parents to it, and a handler holding the
	// message can name the request it works for (Hop, Thread.ActFor,
	// CallOpts.Parent).  The sender's own message keeps the record it had:
	// a message a handler passes on parents the onward call to its
	// request, and a fresh one sent twice makes two roots.  A vectored
	// carrier carries the carrier's record; each sub-request reaches the
	// handler in a header copy carrying its own sub-hop's.  Nil when no
	// plane observes calls.
	rec *cpu.Span

	// srv is the server thread the delivered header was handed to: the
	// pool slot whose identity the handler runs under.  Set on delivery,
	// so a kernel lock taken for the request knows whose wait it is; nil
	// on a message never delivered and on a carrier's subs.
	srv *Thread
}

// Size returns the total byte count the message transfers, including
// by-reference region payloads and, for a vectored carrier, every
// sub-message.
func (m *Message) Size() int { return int(copiedBytes(m) + regionBytes(m)) }

// Hop returns the latency-ledger entry of the request the message
// carries, for the waits and counts a server wants named on it.  Nil —
// and every use of it a no-op — for a nil message, one that was never
// sent, and on detached boots.
func (m *Message) Hop() *klat.Hop { return klat.Of(m.Record()) }

// Record returns the request record the message carries, for the records
// a server emits on the request's behalf; nil-safe like Hop.
func (m *Message) Record() *cpu.Span {
	if m == nil {
		return nil
	}
	return m.rec
}

// server returns the thread serving the request; nil-safe like Record.
func (m *Message) server() *Thread {
	if m == nil {
		return nil
	}
	return m.srv
}

// Payload returns the bulk data a message carries under Transfer.Place:
// its first region when it has one, its out-of-line buffer otherwise.
func (m *Message) Payload() []byte {
	if len(m.Regions) > 0 {
		return m.Regions[0].Payload()
	}
	return m.OOL
}
