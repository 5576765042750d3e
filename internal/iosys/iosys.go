// Package iosys implements the I/O support the project added to the
// microkernel (Mach 3.0 had none; its drivers were linked in and called
// kernel internals directly).  Per the paper, every I/O services
// implementation provided:
//
//   - mapping of I/O ports and memory into a device driver's space
//   - loading of interrupt handlers
//   - interrupt vectoring, revectoring and reflection to user level
//   - DMA channel management and transfers
//
// plus the hardware resource manager of the user-level driver
// architecture: device access paths are hardware resources assigned to
// drivers through a request/yield/grant scheme.
package iosys

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cpu"
)

// Errors returned by the I/O system.
var (
	ErrResourceBusy    = errors.New("iosys: resource held and owner will not yield")
	ErrNoResource      = errors.New("iosys: no such resource")
	ErrNotOwner        = errors.New("iosys: caller does not hold the resource")
	ErrBadVector       = errors.New("iosys: no such interrupt vector")
	ErrVectorClaimed   = errors.New("iosys: vector already claimed")
	ErrNoDMAChannel    = errors.New("iosys: all DMA channels busy")
	ErrBadDMAChannel   = errors.New("iosys: no such DMA channel")
	ErrDMANotAllocated = errors.New("iosys: DMA channel not allocated to caller")
)

// ResourceKind classifies a hardware resource.
type ResourceKind uint8

// Resource kinds.
const (
	ResIOPorts ResourceKind = iota
	ResMemory
	ResIRQ
	ResDMA
)

// Resource is a device access path: an I/O port range, a memory range, an
// IRQ line or a DMA channel, identified by name.
type Resource struct {
	Name string
	Kind ResourceKind
	Base uint64
	Size uint64
}

// Owner identifies a driver holding resources; drivers are identified by
// name (the HRM does not care whether they live in a task or the kernel).
type Owner string

// YieldFunc is asked whether the current owner will give up a resource.
// Returning true releases it to the requester.
type YieldFunc func(res Resource, requester Owner) bool

// HRM is the hardware resource manager.
type HRM struct {
	eng *cpu.Engine
	op  cpu.Region

	mu     sync.Mutex
	res    map[string]Resource
	held   map[string]Owner
	yields map[string]YieldFunc
}

// NewHRM creates a resource manager.
func NewHRM(eng *cpu.Engine, layout *cpu.Layout) *HRM {
	return &HRM{
		eng:    eng,
		op:     layout.PlaceInstr("hrm_op", 420),
		res:    make(map[string]Resource),
		held:   make(map[string]Owner),
		yields: make(map[string]YieldFunc),
	}
}

// Register makes a resource known to the manager (done by the bus
// enumeration code at boot).
func (h *HRM) Register(r Resource) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.res[r.Name] = r
}

// Request asks for a resource.  If it is free it is granted.  If held,
// the holder's yield function is consulted; if it yields, the resource is
// re-granted to the requester (the paper's request/yield/grant scheme).
func (h *HRM) Request(name string, who Owner, yield YieldFunc) (Resource, error) {
	h.eng.Exec(h.op)
	h.mu.Lock()
	defer h.mu.Unlock()
	r, ok := h.res[name]
	if !ok {
		return Resource{}, ErrNoResource
	}
	holder, held := h.held[name]
	if held && holder != who {
		yf := h.yields[name]
		if yf == nil || !yf(r, who) {
			return Resource{}, ErrResourceBusy
		}
	}
	h.held[name] = who
	h.yields[name] = yield
	return r, nil
}

// Release gives a resource back.
func (h *HRM) Release(name string, who Owner) error {
	h.eng.Exec(h.op)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.held[name] != who {
		return ErrNotOwner
	}
	delete(h.held, name)
	delete(h.yields, name)
	return nil
}

// Holder reports the current owner of a resource.
func (h *HRM) Holder(name string) (Owner, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	o, ok := h.held[name]
	return o, ok
}

// Resources lists registered resources.
func (h *HRM) Resources() []Resource {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Resource, 0, len(h.res))
	for _, r := range h.res {
		out = append(out, r)
	}
	return out
}

// Handler services an interrupt; level is the vector number.
type Handler func(vector int)

// InterruptController vectors simulated device interrupts to loaded
// handlers: in-kernel handlers run inline (cheap), user-level reflection
// charges the full kernel-exit/entry cost the paper's user-level driver
// architecture paid.
type InterruptController struct {
	eng *cpu.Engine

	dispatchOp cpu.Region
	reflectOp  cpu.Region

	mu       sync.Mutex
	vectors  int
	handlers map[int]vectorEntry
	pending  []int
	counts   map[int]uint64
}

type vectorEntry struct {
	h         Handler
	userLevel bool
}

// NewInterruptController creates a controller with n vectors.
func NewInterruptController(eng *cpu.Engine, layout *cpu.Layout, n int) *InterruptController {
	return &InterruptController{
		eng:        eng,
		dispatchOp: layout.PlaceInstr("intr_dispatch", 240),
		reflectOp:  layout.PlaceInstr("intr_reflect_user", 980),
		vectors:    n,
		handlers:   make(map[int]vectorEntry),
		counts:     make(map[int]uint64),
	}
}

// Load installs a handler on a vector.  userLevel marks a handler living
// in a user task; its dispatch pays the reflection cost.
func (ic *InterruptController) Load(vector int, h Handler, userLevel bool) error {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if vector < 0 || vector >= ic.vectors {
		return ErrBadVector
	}
	if _, ok := ic.handlers[vector]; ok {
		return ErrVectorClaimed
	}
	ic.handlers[vector] = vectorEntry{h, userLevel}
	return nil
}

// Unload removes a vector's handler.
func (ic *InterruptController) Unload(vector int) error {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if _, ok := ic.handlers[vector]; !ok {
		return ErrBadVector
	}
	delete(ic.handlers, vector)
	return nil
}

// Revector moves a handler from one vector to another atomically.
func (ic *InterruptController) Revector(from, to int) error {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	e, ok := ic.handlers[from]
	if !ok {
		return ErrBadVector
	}
	if to < 0 || to >= ic.vectors {
		return ErrBadVector
	}
	if _, busy := ic.handlers[to]; busy {
		return ErrVectorClaimed
	}
	delete(ic.handlers, from)
	ic.handlers[to] = e
	return nil
}

// Raise delivers an interrupt on the vector, running the handler (or
// reflecting it to user level).  Unhandled interrupts are counted and
// dropped.
func (ic *InterruptController) Raise(vector int) error {
	if vector < 0 || vector >= ic.vectors {
		return ErrBadVector
	}
	ic.eng.Exec(ic.dispatchOp)
	ic.mu.Lock()
	e, ok := ic.handlers[vector]
	ic.counts[vector]++
	ic.mu.Unlock()
	if !ok {
		return nil
	}
	name := "intr:kernel"
	if e.userLevel {
		name = "intr:reflect"
	}
	sp := ic.eng.Planes().Open(cpu.Event{Type: cpu.EvInterrupt, Subsystem: "iosys", Name: name}, nil)
	if e.userLevel {
		ic.eng.Exec(ic.reflectOp)
	}
	e.h(vector)
	sp.End()
	return nil
}

// Count reports deliveries on a vector.
func (ic *InterruptController) Count(vector int) uint64 {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	return ic.counts[vector]
}

// DMAController manages DMA channels and models transfers as bus traffic
// without CPU instructions — the point of DMA.
type DMAController struct {
	eng *cpu.Engine
	op  cpu.Region

	mu       sync.Mutex
	channels int
	owner    map[int]Owner
	moved    map[int]uint64
}

// NewDMAController creates a controller with n channels.
func NewDMAController(eng *cpu.Engine, layout *cpu.Layout, n int) *DMAController {
	return &DMAController{
		eng:      eng,
		op:       layout.PlaceInstr("dma_admin", 300),
		channels: n,
		owner:    make(map[int]Owner),
		moved:    make(map[int]uint64),
	}
}

// Allocate grabs any free channel for the owner.
func (d *DMAController) Allocate(who Owner) (int, error) {
	d.eng.Exec(d.op)
	d.mu.Lock()
	defer d.mu.Unlock()
	for ch := 0; ch < d.channels; ch++ {
		if _, busy := d.owner[ch]; !busy {
			d.owner[ch] = who
			return ch, nil
		}
	}
	return -1, ErrNoDMAChannel
}

// Free releases a channel.
func (d *DMAController) Free(ch int, who Owner) error {
	d.eng.Exec(d.op)
	d.mu.Lock()
	defer d.mu.Unlock()
	if ch < 0 || ch >= d.channels {
		return ErrBadDMAChannel
	}
	if d.owner[ch] != who {
		return ErrDMANotAllocated
	}
	delete(d.owner, ch)
	return nil
}

// Transfer moves n bytes on the channel: bus cycles only, roughly one bus
// cycle per 8 bytes, plus setup instructions.
func (d *DMAController) Transfer(ch int, who Owner, n uint64) error {
	d.mu.Lock()
	if ch < 0 || ch >= d.channels {
		d.mu.Unlock()
		return ErrBadDMAChannel
	}
	if d.owner[ch] != who {
		d.mu.Unlock()
		return ErrDMANotAllocated
	}
	d.moved[ch] += n
	d.mu.Unlock()
	d.eng.Exec(d.op)
	d.eng.Overhead(0, n/8+1)
	return nil
}

// Moved reports bytes transferred on a channel.
func (d *DMAController) Moved(ch int) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.moved[ch]
}

// IOSpace maps device registers and memory into driver address spaces.
// The simulation records mappings so drivers can be audited; accesses are
// charged as uncached reads/writes.
type IOSpace struct {
	eng *cpu.Engine

	mu       sync.Mutex
	mappings map[string][]Resource // owner -> mapped resources
}

// NewIOSpace creates the I/O mapping service.
func NewIOSpace(eng *cpu.Engine) *IOSpace {
	return &IOSpace{eng: eng, mappings: make(map[string][]Resource)}
}

// MapResource grants an owner register access to a resource.
func (s *IOSpace) MapResource(who Owner, r Resource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mappings[string(who)] = append(s.mappings[string(who)], r)
}

// Inb models an uncached device register read.
func (s *IOSpace) Inb(who Owner, addr uint64) (byte, error) {
	if !s.mapped(who, addr) {
		return 0, ErrNotOwner
	}
	s.eng.Overhead(30, 4) // uncached bus transaction
	return 0, nil
}

// Outb models an uncached device register write.
func (s *IOSpace) Outb(who Owner, addr uint64, v byte) error {
	if !s.mapped(who, addr) {
		return ErrNotOwner
	}
	s.eng.Overhead(30, 4)
	return nil
}

func (s *IOSpace) mapped(who Owner, addr uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.mappings[string(who)] {
		if addr >= r.Base && addr < r.Base+r.Size {
			return true
		}
	}
	return false
}

func (r Resource) String() string {
	return fmt.Sprintf("%s kind=%d [%#x,+%#x)", r.Name, r.Kind, r.Base, r.Size)
}
