// Package pager implements the Microkernel Services default pager: the
// user-level task that backs anonymous memory when it is evicted, built
// on the external memory management interface of internal/vm and a
// simulated backing-store device.
package pager

import (
	"errors"
	"sync"

	"repro/internal/cpu"
	"repro/internal/kstat"
	"repro/internal/vm"
)

// Errors returned by the default pager.
var (
	ErrStoreFull = errors.New("pager: backing store full")
	ErrBadSlot   = errors.New("pager: no such slot")
)

// BackingStore is the device interface the pager writes evicted pages to;
// the drivers package provides disk-backed implementations, and RAMStore
// is a self-contained one.
type BackingStore interface {
	// ReadPage fills buf from the given slot.
	ReadPage(slot uint64, buf []byte) error
	// WritePage stores buf at the given slot.
	WritePage(slot uint64, buf []byte) error
	// Slots is the store capacity in pages.
	Slots() uint64
}

// RAMStore is an in-memory backing store.
type RAMStore struct {
	mu    sync.Mutex
	slots uint64
	data  map[uint64][]byte
}

// NewRAMStore creates a store with the given page capacity.
func NewRAMStore(slots uint64) *RAMStore {
	return &RAMStore{slots: slots, data: make(map[uint64][]byte)}
}

// ReadPage implements BackingStore.
func (r *RAMStore) ReadPage(slot uint64, buf []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.data[slot]
	if !ok {
		return ErrBadSlot
	}
	copy(buf, d)
	return nil
}

// WritePage implements BackingStore.
func (r *RAMStore) WritePage(slot uint64, buf []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if slot >= r.slots {
		return ErrBadSlot
	}
	r.data[slot] = append([]byte(nil), buf...)
	return nil
}

// Slots implements BackingStore.
func (r *RAMStore) Slots() uint64 { return r.slots }

// DefaultPager backs anonymous VM objects.  Pages never written out read
// back as zeros (anonymous memory semantics); once paged out, contents
// persist in the store.
type DefaultPager struct {
	eng   *cpu.Engine
	inOp  cpu.Region
	outOp cpu.Region
	store BackingStore

	mu    sync.Mutex
	slots map[pageKey]uint64 // object page -> store slot
	free  []uint64
	next  uint64

	ins, outs uint64
}

type pageKey struct {
	obj    *vm.Object
	offset uint64
}

// New creates the default pager over a backing store.
func New(eng *cpu.Engine, layout *cpu.Layout, store BackingStore) *DefaultPager {
	return &DefaultPager{
		eng:   eng,
		inOp:  layout.PlaceInstr("dpager_pagein", 650),
		outOp: layout.PlaceInstr("dpager_pageout", 700),
		store: store,
		slots: make(map[pageKey]uint64),
	}
}

var _ vm.Pager = (*DefaultPager)(nil)

// The pager's op counters.
var (
	pageIns  = kstat.NewKey("pager.pageins")
	pageOuts = kstat.NewKey("pager.pageouts")
)

// PageIn implements vm.Pager: returns stored contents, or zeros for pages
// never evicted.
func (p *DefaultPager) PageIn(obj *vm.Object, offset uint64) ([]byte, error) {
	kstat.For(p.eng).Count(pageIns).Inc()
	defer p.eng.Planes().Open(cpu.Event{Type: cpu.EvPageIn, Subsystem: "pager", Name: "pagein"}, nil).End()
	p.eng.Exec(p.inOp)
	p.mu.Lock()
	slot, ok := p.slots[pageKey{obj, offset}]
	p.mu.Unlock()
	buf := make([]byte, vm.PageSize)
	if !ok {
		return buf, nil // zero-fill
	}
	if err := p.store.ReadPage(slot, buf); err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.ins++
	p.mu.Unlock()
	return buf, nil
}

// PageOut implements vm.Pager: stores an evicted page's contents.
func (p *DefaultPager) PageOut(obj *vm.Object, offset uint64, data []byte) error {
	kstat.For(p.eng).Count(pageOuts).Inc()
	defer p.eng.Planes().Open(cpu.Event{Type: cpu.EvPageOut, Subsystem: "pager", Name: "pageout"}, nil).End()
	p.eng.Exec(p.outOp)
	p.mu.Lock()
	key := pageKey{obj, offset}
	slot, ok := p.slots[key]
	if !ok {
		if n := len(p.free); n > 0 {
			slot = p.free[n-1]
			p.free = p.free[:n-1]
		} else {
			if p.next >= p.store.Slots() {
				p.mu.Unlock()
				return ErrStoreFull
			}
			slot = p.next
			p.next++
		}
		p.slots[key] = slot
	}
	p.outs++
	p.mu.Unlock()
	return p.store.WritePage(slot, data)
}

// Release frees all slots belonging to an object (object termination).
func (p *DefaultPager) Release(obj *vm.Object) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k, slot := range p.slots {
		if k.obj == obj {
			delete(p.slots, k)
			p.free = append(p.free, slot)
		}
	}
}

// Stats reports pages read in and written out.
func (p *DefaultPager) Stats() (ins, outs uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ins, p.outs
}

// SlotsInUse reports occupied backing-store slots.
func (p *DefaultPager) SlotsInUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.slots)
}
