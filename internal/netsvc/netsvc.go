// Package netsvc implements the communications and networking shared
// service, which in Workplace OS was based on Taligent's networking
// frameworks: fine-grained C++ objects, complex class hierarchies with
// extensive subclassing, many very short virtual methods, and stateful
// C++ wrappers over the microkernel interfaces.
//
// The stack can be built in two modes: FineGrained reproduces the
// Taligent structure (one short virtual method per protocol concern,
// dispatched per packet, through a stateful kernel wrapper); Coarse is
// the MK++-style alternative (restricted virtuals, aggressively inlined
// into one flat path).  Experiment E6 measures the difference.
package netsvc

import (
	"encoding/binary"
	"errors"
	"sync"

	"repro/internal/cpu"
	"repro/internal/drivers"
	"repro/internal/kstat"
	"repro/internal/objsys"
)

// Mode selects the object architecture of the stack.
type Mode uint8

// Stack construction modes.
const (
	// FineGrained is the Taligent framework structure.
	FineGrained Mode = iota
	// Coarse is the MK++-style flattened structure.
	Coarse
)

func (m Mode) String() string {
	if m == Coarse {
		return "coarse/MK++"
	}
	return "fine-grained"
}

// Errors returned by the stack.
var (
	ErrPortBound    = errors.New("netsvc: port already bound")
	ErrNotBound     = errors.New("netsvc: port not bound")
	ErrBadFrame     = errors.New("netsvc: malformed frame")
	ErrBadChecksum  = errors.New("netsvc: checksum mismatch")
	ErrQueueEmpty   = errors.New("netsvc: no datagram queued")
	ErrPayloadLimit = errors.New("netsvc: payload too large")
)

const (
	headerSize = 8
	// MaxPayload bounds one datagram.
	MaxPayload = 8192
)

// layerChain is the Taligent protocol decomposition: each concern is its
// own class with one short virtual method.
var layerChain = []struct{ class, parent, method string }{
	{"TNetworkService", "", "EnterFramework"},
	{"TBufferPool", "TNetworkService", "AcquireBuffer"},
	{"TFramingLayer", "TBufferPool", "BuildFrame"},
	{"TChecksumLayer", "TFramingLayer", "FoldChecksum"},
	{"TPortMuxLayer", "TChecksumLayer", "ResolvePort"},
	{"TFlowControl", "TPortMuxLayer", "CheckWindow"},
	{"TInterfaceBinding", "TFlowControl", "SelectInterface"},
	{"TSocketLayer", "TInterfaceBinding", "CompleteOperation"},
}

// Stack is one host's network service bound to a NIC.
type Stack struct {
	eng  *cpu.Engine
	nic  *drivers.NIC
	mode Mode
	addr string

	h       *objsys.Hierarchy
	obj     *objsys.Object
	wrapper *objsys.Wrapper
	methods []string

	mu        sync.Mutex
	endpoints map[uint16]*Endpoint

	sent, delivered, dropped uint64
}

// NewStack builds the service over the NIC in the given mode.
func NewStack(eng *cpu.Engine, layout *cpu.Layout, nic *drivers.NIC, addr string, mode Mode) (*Stack, error) {
	s := &Stack{
		eng: eng, nic: nic, mode: mode, addr: addr,
		endpoints: make(map[uint16]*Endpoint),
	}
	s.h = objsys.NewHierarchy(eng, layout)
	for _, l := range layerChain {
		if _, err := s.h.DefineClass(l.class, l.parent, map[string]uint64{l.method: 22}); err != nil {
			return nil, err
		}
		if l.parent != "" {
			s.methods = append(s.methods, l.method)
		}
	}
	leaf := layerChain[len(layerChain)-1].class
	if mode == Coarse {
		if err := s.h.Flatten(leaf, "xmit", s.methods); err != nil {
			return nil, err
		}
	}
	s.h.Freeze()
	obj, err := s.h.New(leaf)
	if err != nil {
		return nil, err
	}
	s.obj = obj
	// The stateful C++ wrapper over the kernel/NIC interface — the
	// paper: "The wrapper classes, rather than being a simple,
	// stateless representation of the kernel interfaces, exported a
	// significantly different set of interfaces that forced them to
	// maintain state."
	s.wrapper = s.h.NewWrapper(obj, 384)
	return s, nil
}

// Addr returns the stack's address name.
func (s *Stack) Addr() string { return s.addr }

// runProtocol charges the per-packet protocol path in the stack's mode.
func (s *Stack) runProtocol() error {
	if s.mode == FineGrained {
		// Every packet crosses the wrapper and the full chain.
		if err := s.wrapper.Call("EnterFramework"); err != nil {
			return err
		}
		return s.h.InvokeChain(s.obj, s.methods)
	}
	return s.h.InvokeFlat(s.obj, "xmit")
}

// Endpoint is a bound datagram port.
type Endpoint struct {
	stack *Stack
	port  uint16

	mu    sync.Mutex
	queue [][]byte
}

// Bind claims a local port.
func (s *Stack) Bind(port uint16) (*Endpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.endpoints[port]; ok {
		return nil, ErrPortBound
	}
	ep := &Endpoint{stack: s, port: port}
	s.endpoints[port] = ep
	return ep, nil
}

// Unbind releases the port.
func (s *Stack) Unbind(port uint16) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.endpoints[port]; !ok {
		return ErrNotBound
	}
	delete(s.endpoints, port)
	return nil
}

// checksum is a 16-bit ones-complement-style fold, with its cost charged.
func (s *Stack) checksum(b []byte) uint16 {
	s.eng.Instr(uint64(len(b))/2 + 8)
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.LittleEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1])
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return uint16(^sum)
}

// SendTo transmits a datagram to (dstAddr, dstPort).
func (ep *Endpoint) SendTo(dstAddr string, dstPort uint16, payload []byte) error {
	s := ep.stack
	defer s.eng.Planes().Open(cpu.Event{Type: cpu.EvNetOp, Subsystem: "netsvc", Name: "sendto"}, nil).End()
	if len(payload) > MaxPayload {
		return ErrPayloadLimit
	}
	if err := s.runProtocol(); err != nil {
		return err
	}
	frame := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint16(frame[0:2], dstPort)
	binary.LittleEndian.PutUint16(frame[2:4], ep.port)
	binary.LittleEndian.PutUint16(frame[4:6], uint16(len(payload)))
	copy(frame[headerSize:], payload)
	binary.LittleEndian.PutUint16(frame[6:8], s.checksum(frame[headerSize:]))
	s.mu.Lock()
	s.sent++
	s.mu.Unlock()
	st := kstat.For(s.eng)
	st.Counter("netsvc.sent").Inc()
	st.Counter("netsvc.bytes_sent").Add(uint64(len(payload)))
	return s.nic.Send(drivers.Frame{Src: s.addr, Dst: dstAddr, Payload: frame})
}

// Pump drains the NIC receive queue into bound endpoints, validating
// checksums; it is what the receive interrupt handler calls.  It returns
// the number of datagrams delivered.
func (s *Stack) Pump() int {
	n := 0
	for {
		f, ok := s.nic.Recv()
		if !ok {
			return n
		}
		if err := s.deliver(f); err == nil {
			n++
		}
	}
}

func (s *Stack) deliver(f drivers.Frame) error {
	defer s.eng.Planes().Open(cpu.Event{Type: cpu.EvNetOp, Subsystem: "netsvc", Name: "deliver"}, nil).End()
	if err := s.runProtocol(); err != nil {
		return err
	}
	b := f.Payload
	if len(b) < headerSize {
		s.drop()
		return ErrBadFrame
	}
	dstPort := binary.LittleEndian.Uint16(b[0:2])
	plen := int(binary.LittleEndian.Uint16(b[4:6]))
	want := binary.LittleEndian.Uint16(b[6:8])
	if len(b) != headerSize+plen {
		s.drop()
		return ErrBadFrame
	}
	payload := b[headerSize:]
	if s.checksum(payload) != want {
		s.drop()
		return ErrBadChecksum
	}
	s.mu.Lock()
	ep, ok := s.endpoints[dstPort]
	if !ok {
		s.dropped++
		s.mu.Unlock()
		kstat.For(s.eng).Counter("netsvc.dropped").Inc()
		return ErrNotBound
	}
	s.delivered++
	s.mu.Unlock()
	st := kstat.For(s.eng)
	st.Counter("netsvc.delivered").Inc()
	st.Counter("netsvc.bytes_delivered").Add(uint64(len(payload)))
	ep.mu.Lock()
	ep.queue = append(ep.queue, append([]byte(nil), payload...))
	ep.mu.Unlock()
	return nil
}

func (s *Stack) drop() {
	s.mu.Lock()
	s.dropped++
	s.mu.Unlock()
	kstat.For(s.eng).Counter("netsvc.dropped").Inc()
}

// Recv pops the next queued datagram.
func (ep *Endpoint) Recv() ([]byte, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if len(ep.queue) == 0 {
		return nil, ErrQueueEmpty
	}
	d := ep.queue[0]
	ep.queue = ep.queue[1:]
	return d, nil
}

// Stats reports datagrams sent, delivered and dropped.
func (s *Stack) Stats() (sent, delivered, dropped uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sent, s.delivered, s.dropped
}

// Hierarchy exposes the class hierarchy for footprint accounting.
func (s *Stack) Hierarchy() *objsys.Hierarchy { return s.h }
