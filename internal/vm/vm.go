// Package vm implements the simulated virtual memory component of the IBM
// Microkernel: address maps built from entries over VM objects, lazy
// zero-fill allocation, copy-on-write, external memory objects managed by
// user-level pagers (the OSF RI external memory management interface), the
// machine-dependent pmap layer, and the paper's "coerced memory" —
// shared memory that appears at the same address range in every address
// space, required by OS/2 semantics.
package vm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// PageSize is the page granularity of the simulated machine.
const PageSize = 4096

// VAddr is a virtual address.
type VAddr uint64

// Prot is a page protection.
type Prot uint8

// Protection bits.
const (
	ProtNone  Prot = 0
	ProtRead  Prot = 1 << 0
	ProtWrite Prot = 1 << 1
	ProtExec  Prot = 1 << 2
	ProtRW         = ProtRead | ProtWrite
	ProtAll        = ProtRead | ProtWrite | ProtExec
)

func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Errors returned by the VM system.
var (
	ErrNoSpace       = errors.New("vm: no space in address map")
	ErrBadAddress    = errors.New("vm: address not mapped")
	ErrProtection    = errors.New("vm: protection violation")
	ErrOverlap       = errors.New("vm: requested range overlaps an existing entry")
	ErrUnaligned     = errors.New("vm: address or size not page aligned")
	ErrPagerFailure  = errors.New("vm: external pager failed to provide page")
	ErrOutOfMemory   = errors.New("vm: physical memory exhausted")
	ErrBadCoercedFit = errors.New("vm: coerced range unavailable in this map")
)

// trunc/round to page boundaries.
func trunc(a VAddr) VAddr   { return a &^ (PageSize - 1) }
func round(a VAddr) VAddr   { return (a + PageSize - 1) &^ (PageSize - 1) }
func pages(n uint64) uint64 { return (n + PageSize - 1) / PageSize }

// PhysMem is the machine's frame allocator.  Frame counts feed the
// memory-footprint experiments (E7: "two memory management systems ...
// greatly increased the memory footprint").
type PhysMem struct {
	mu     sync.Mutex
	total  uint64
	used   uint64
	frames map[uint64][]byte // frame number -> data
	next   uint64
}

// NewPhysMem creates a physical memory of the given byte size.
func NewPhysMem(bytes uint64) *PhysMem {
	return &PhysMem{total: bytes / PageSize, frames: make(map[uint64][]byte), next: 1}
}

// alloc grabs a zeroed frame.
func (pm *PhysMem) alloc() (uint64, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if pm.used >= pm.total {
		return 0, ErrOutOfMemory
	}
	f := pm.next
	pm.next++
	pm.used++
	pm.frames[f] = make([]byte, PageSize)
	return f, nil
}

func (pm *PhysMem) free(f uint64) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if _, ok := pm.frames[f]; ok {
		delete(pm.frames, f)
		pm.used--
	}
}

func (pm *PhysMem) data(f uint64) []byte {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.frames[f]
}

// UsedFrames reports the number of allocated frames.
func (pm *PhysMem) UsedFrames() uint64 {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.used
}

// Pager is the external memory management interface: a user-level task
// (the default pager, the file server) backs a VM object by providing and
// accepting page contents.  This is the OSF RI EMMI reduced to its data
// path.
type Pager interface {
	// PageIn returns the PageSize bytes backing the given byte offset.
	PageIn(obj *Object, offset uint64) ([]byte, error)
	// PageOut accepts an evicted page's contents.
	PageOut(obj *Object, offset uint64, data []byte) error
}

// Object is a VM object: a source of pages.  Anonymous objects zero-fill
// and may shadow another object for copy-on-write.
type Object struct {
	id     uint64
	mu     sync.Mutex
	pages  map[uint64]uint64 // page index -> frame
	pager  Pager             // nil for anonymous memory
	shadow *Object           // copy-on-write parent
	size   uint64
	refs   int
	// Tag is a debugging label ("stack", "heap", "file:...").
	Tag string
}

// Size returns the object's size in bytes.
func (o *Object) Size() uint64 { return o.size }

// ResidentPages reports how many pages the object holds frames for.
func (o *Object) ResidentPages() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.pages)
}

// entry is one mapping in an address map.
type entry struct {
	start, end VAddr // [start, end)
	obj        *Object
	offset     uint64 // byte offset of start within obj
	prot       Prot
	maxProt    Prot
	cow        bool // entry-level copy-on-write pending
	coerced    bool
	wired      bool
}

// Map is a task address space (vm_map).
type Map struct {
	sys  *System
	asid uint64

	mu      sync.Mutex
	entries []*entry // sorted by start
	pmap    *pmap
	minAddr VAddr
	maxAddr VAddr

	// Stats for the evaluation.
	faults    uint64
	cowCopies uint64
	zeroFills uint64
	pageIns   uint64
}

// System is the machine-wide VM state: physical memory, the coerced
// region allocator, and object identity.
type System struct {
	Phys *PhysMem

	mu       sync.Mutex
	nextObj  uint64
	nextASID uint64
	maps     map[uint64]*Map

	// Coerced memory: ranges reserved at the same addresses in every
	// map.  OS/2 programs assume shared memory appears at identical
	// addresses everywhere, so the allocator hands out globally unique
	// ranges from a dedicated arena.
	coercedBase VAddr
	coercedTop  VAddr
	coercedNext VAddr
	coerced     map[VAddr]*coercedRegion

	// ev is the eviction machinery (see evict.go).
	ev evictState

	// faultObs, when set, is called after each resolved fault.  It is an
	// observation hook (ktrace wiring); it must not charge any cost model.
	faultObs func(asid uint64, addr uint64, write bool)
}

// SetFaultObserver installs a callback invoked after every successfully
// resolved page fault, with the faulting space's ASID, the page-truncated
// address and whether the access was a write.  Pass nil to remove it.
// Observers must be cheap and must never feed costs back into the
// simulation — the hook exists for tracing, not accounting.
func (s *System) SetFaultObserver(fn func(asid uint64, addr uint64, write bool)) {
	s.mu.Lock()
	s.faultObs = fn
	s.mu.Unlock()
}

// faultObserver snapshots the current observer.
func (s *System) faultObserver() func(asid uint64, addr uint64, write bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faultObs
}

type coercedRegion struct {
	start VAddr
	size  uint64
	obj   *Object
}

// CoercedArenaBase is where the shared-at-same-address arena lives.
const (
	CoercedArenaBase VAddr = 0x7000_0000
	CoercedArenaTop  VAddr = 0x7800_0000
)

// NewSystem creates the VM system over the given physical memory size.
func NewSystem(physBytes uint64) *System {
	return &System{
		Phys:        NewPhysMem(physBytes),
		nextObj:     1,
		nextASID:    1,
		maps:        make(map[uint64]*Map),
		coercedBase: CoercedArenaBase,
		coercedTop:  CoercedArenaTop,
		coercedNext: CoercedArenaBase,
		coerced:     make(map[VAddr]*coercedRegion),
	}
}

// NewObject creates an anonymous zero-fill object of the given size.
func (s *System) NewObject(size uint64, tag string) *Object {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := &Object{id: s.nextObj, pages: make(map[uint64]uint64), size: size, refs: 1, Tag: tag}
	s.nextObj++
	return o
}

// NewPagedObject creates an object backed by an external pager.
func (s *System) NewPagedObject(size uint64, p Pager, tag string) *Object {
	o := s.NewObject(size, tag)
	o.pager = p
	return o
}

// NewMap creates an address map with the given ASID (0 lets the system
// choose).  User maps span [0x1000, 0xC0000000).
func (s *System) NewMap(asid uint64) *Map {
	s.mu.Lock()
	if asid == 0 {
		asid = s.nextASID
		s.nextASID++
	} else if asid >= s.nextASID {
		s.nextASID = asid + 1
	}
	m := &Map{
		sys:     s,
		asid:    asid,
		pmap:    newPmap(),
		minAddr: 0x1000,
		maxAddr: 0xC000_0000,
	}
	s.maps[asid] = m
	s.mu.Unlock()
	return m
}

// ASID returns the map's address-space identifier.
func (m *Map) ASID() uint64 { return m.asid }

// Stats reports fault counters.
type Stats struct {
	Faults    uint64
	CowCopies uint64
	ZeroFills uint64
	PageIns   uint64
}

// Stats returns the map's fault statistics.
func (m *Map) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{m.faults, m.cowCopies, m.zeroFills, m.pageIns}
}

// findEntry returns the entry containing a, or nil.
func (m *Map) findEntry(a VAddr) *entry {
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].end > a })
	if i < len(m.entries) && m.entries[i].start <= a {
		return m.entries[i]
	}
	return nil
}

// findHole locates a free range of size bytes at or after hint.
func (m *Map) findHole(hint VAddr, size uint64) (VAddr, error) {
	a := trunc(hint)
	if a < m.minAddr {
		a = m.minAddr
	}
	for {
		if VAddr(uint64(a)+size) > m.maxAddr {
			return 0, ErrNoSpace
		}
		conflict := false
		for _, e := range m.entries {
			if a < e.end && VAddr(uint64(a)+size) > e.start {
				a = e.end
				conflict = true
				break
			}
		}
		if !conflict {
			return a, nil
		}
	}
}

// insert adds an entry keeping the list sorted.
func (m *Map) insert(e *entry) {
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].start >= e.start })
	m.entries = append(m.entries, nil)
	copy(m.entries[i+1:], m.entries[i:])
	m.entries[i] = e
}

// Allocate reserves size bytes of lazy zero-fill anonymous memory
// (vm_allocate).  If anywhere is true the kernel chooses the address.
// No frames are allocated until first touch — Mach's lazy allocation,
// which the paper contrasts with OS/2's eager commitment model.
func (m *Map) Allocate(addr VAddr, size uint64, anywhere bool) (VAddr, error) {
	if size == 0 || size%PageSize != 0 || (!anywhere && addr%PageSize != 0) {
		return 0, ErrUnaligned
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var a VAddr
	var err error
	if anywhere {
		a, err = m.findHole(addr, size)
		if err != nil {
			return 0, err
		}
	} else {
		a = addr
		for _, e := range m.entries {
			if a < e.end && VAddr(uint64(a)+size) > e.start {
				return 0, ErrOverlap
			}
		}
	}
	obj := m.sys.NewObject(size, "anon")
	m.insert(&entry{start: a, end: VAddr(uint64(a) + size), obj: obj, prot: ProtRW, maxProt: ProtAll})
	return a, nil
}

// MapObject maps an object at the given offset (vm_map).
func (m *Map) MapObject(addr VAddr, size uint64, obj *Object, offset uint64, prot Prot, anywhere bool) (VAddr, error) {
	if size == 0 || size%PageSize != 0 || offset%PageSize != 0 {
		return 0, ErrUnaligned
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var a VAddr
	var err error
	if anywhere {
		a, err = m.findHole(addr, size)
		if err != nil {
			return 0, err
		}
	} else {
		if addr%PageSize != 0 {
			return 0, ErrUnaligned
		}
		a = addr
		for _, e := range m.entries {
			if a < e.end && VAddr(uint64(a)+size) > e.start {
				return 0, ErrOverlap
			}
		}
	}
	obj.mu.Lock()
	obj.refs++
	obj.mu.Unlock()
	m.insert(&entry{start: a, end: VAddr(uint64(a) + size), obj: obj, offset: offset, prot: prot, maxProt: ProtAll})
	return a, nil
}

// Deallocate removes mappings covering [addr, addr+size) (vm_deallocate).
// Partially covered entries are split.
func (m *Map) Deallocate(addr VAddr, size uint64) error {
	if addr%PageSize != 0 || size%PageSize != 0 {
		return ErrUnaligned
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	start, end := addr, VAddr(uint64(addr)+size)
	var kept []*entry
	for _, e := range m.entries {
		switch {
		case e.end <= start || e.start >= end:
			kept = append(kept, e)
		case e.start >= start && e.end <= end:
			m.dropEntry(e)
		default:
			// Partial overlap: split.
			if e.start < start {
				left := *e
				left.end = start
				kept = append(kept, &left)
			}
			if e.end > end {
				right := *e
				right.start = end
				right.offset = e.offset + uint64(end-e.start)
				kept = append(kept, &right)
			}
			m.unmapRange(maxA(e.start, start), minA(e.end, end))
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].start < kept[j].start })
	m.entries = kept
	return nil
}

func maxA(a, b VAddr) VAddr {
	if a > b {
		return a
	}
	return b
}

func minA(a, b VAddr) VAddr {
	if a < b {
		return a
	}
	return b
}

// dropEntry unmaps an entry's pages and releases the object reference.
func (m *Map) dropEntry(e *entry) {
	m.unmapRange(e.start, e.end)
	releaseObject(m.sys, e.obj)
}

func (m *Map) unmapRange(start, end VAddr) {
	for a := start; a < end; a += PageSize {
		m.pmap.remove(a)
	}
}

func releaseObject(s *System, o *Object) {
	o.mu.Lock()
	o.refs--
	dead := o.refs == 0
	var frames []uint64
	if dead {
		for _, f := range o.pages {
			frames = append(frames, f)
		}
		o.pages = make(map[uint64]uint64)
	}
	shadow := o.shadow
	o.mu.Unlock()
	if dead {
		for _, f := range frames {
			s.Phys.free(f)
		}
		if shadow != nil {
			releaseObject(s, shadow)
		}
	}
}

// Protect changes the protection of [addr, addr+size) (vm_protect).
func (m *Map) Protect(addr VAddr, size uint64, prot Prot) error {
	if addr%PageSize != 0 || size%PageSize != 0 {
		return ErrUnaligned
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	end := VAddr(uint64(addr) + size)
	covered := VAddr(0)
	for _, e := range m.entries {
		if e.end <= addr || e.start >= end {
			continue
		}
		if prot&^e.maxProt != 0 {
			return ErrProtection
		}
		e.prot = prot
		covered += minA(e.end, end) - maxA(e.start, addr)
		// Downgrades must be reflected in the pmap.
		for a := maxA(e.start, addr); a < minA(e.end, end); a += PageSize {
			m.pmap.setProt(a, prot)
		}
	}
	if covered == 0 {
		return ErrBadAddress
	}
	return nil
}

// Fault resolves a page fault at addr for the given access.  It returns
// the frame now mapped.  This is vm_fault: zero-fill, pager-backed page-in
// and copy-on-write resolution all land here.
func (m *Map) Fault(addr VAddr, access Prot) (uint64, error) {
	a := trunc(addr)
	m.mu.Lock()
	e := m.findEntry(a)
	if e == nil {
		m.mu.Unlock()
		return 0, ErrBadAddress
	}
	if access&^e.prot != 0 {
		m.mu.Unlock()
		return 0, ErrProtection
	}
	m.faults++
	pageIdx := (e.offset + uint64(a-e.start)) / PageSize
	// Entry-level COW: the first write interposes a shadow object over
	// the shared one; pages then migrate up on demand below.
	if e.cow && access&ProtWrite != 0 {
		shadow := m.sys.NewObject(e.obj.size, e.obj.Tag+"+shadow")
		shadow.shadow = e.obj
		e.obj = shadow
		e.cow = false
	}
	obj := e.obj
	m.mu.Unlock()

	frame, created, err := resolvePage(m, obj, pageIdx)
	if err != nil {
		return 0, err
	}
	if created {
		m.mu.Lock()
		if obj.pager != nil {
			m.pageIns++
		} else {
			m.zeroFills++
		}
		m.mu.Unlock()
	}

	// If the page was found in a backing object of the shadow chain
	// rather than the top object, a write must copy it up (the COW
	// resolution proper); a read maps it shared but write-protected so
	// a later store re-faults here.
	prot := e.prot
	obj.mu.Lock()
	_, inTop := obj.pages[pageIdx]
	hasShadow := obj.shadow != nil
	obj.mu.Unlock()
	if !inTop && hasShadow {
		if access&ProtWrite != 0 {
			newFrame, err := m.sys.allocFrame()
			if err != nil {
				return 0, err
			}
			copy(m.sys.Phys.data(newFrame), m.sys.Phys.data(frame))
			obj.mu.Lock()
			obj.pages[pageIdx] = newFrame
			obj.mu.Unlock()
			m.sys.noteResident(obj, pageIdx, newFrame)
			m.mu.Lock()
			m.cowCopies++
			m.mu.Unlock()
			frame = newFrame
		} else {
			prot &^= ProtWrite
		}
	}

	m.mu.Lock()
	m.pmap.enter(a, frame, prot)
	m.mu.Unlock()
	m.sys.noteMapping(frame, m, a)
	if obs := m.sys.faultObserver(); obs != nil {
		obs(m.asid, uint64(a), access&ProtWrite != 0)
	}
	return frame, nil
}

// resolvePage finds or creates the frame for a page of obj, searching the
// shadow chain as vm_fault does.
func resolvePage(m *Map, obj *Object, pageIdx uint64) (frame uint64, created bool, err error) {
	obj.mu.Lock()
	if f, ok := obj.pages[pageIdx]; ok {
		obj.mu.Unlock()
		return f, false, nil
	}
	shadow := obj.shadow
	pager := obj.pager
	obj.mu.Unlock()

	if shadow != nil {
		// Read through to the parent without copying (read faults share).
		f, created, err := resolvePage(m, shadow, pageIdx)
		return f, created, err
	}

	f, err := m.sys.allocFrame()
	if err != nil {
		return 0, false, err
	}
	if pager != nil {
		data, perr := pager.PageIn(obj, pageIdx*PageSize)
		if perr != nil {
			m.sys.Phys.free(f)
			return 0, false, fmt.Errorf("%w: %v", ErrPagerFailure, perr)
		}
		copy(m.sys.Phys.data(f), data)
	}
	obj.mu.Lock()
	if existing, ok := obj.pages[pageIdx]; ok {
		// Lost a race; discard ours.
		obj.mu.Unlock()
		m.sys.Phys.free(f)
		return existing, false, nil
	}
	obj.pages[pageIdx] = f
	obj.mu.Unlock()
	m.sys.noteResident(obj, pageIdx, f)
	return f, true, nil
}

// Read copies n bytes at addr out of the space, faulting as needed.
func (m *Map) Read(addr VAddr, n uint64) ([]byte, error) {
	out := make([]byte, 0, n)
	for n > 0 {
		frame, err := m.frameFor(addr, ProtRead)
		if err != nil {
			return nil, err
		}
		off := uint64(addr) % PageSize
		take := PageSize - off
		if take > n {
			take = n
		}
		out = append(out, m.sys.Phys.data(frame)[off:off+take]...)
		addr += VAddr(take)
		n -= take
	}
	return out, nil
}

// Write copies data into the space at addr, faulting as needed.
func (m *Map) Write(addr VAddr, data []byte) error {
	for len(data) > 0 {
		frame, err := m.frameFor(addr, ProtWrite)
		if err != nil {
			return err
		}
		off := uint64(addr) % PageSize
		take := uint64(PageSize - off)
		if take > uint64(len(data)) {
			take = uint64(len(data))
		}
		copy(m.sys.Phys.data(frame)[off:off+take], data[:take])
		addr += VAddr(take)
		data = data[take:]
	}
	return nil
}

// frameFor returns the frame backing addr, faulting it in if necessary.
func (m *Map) frameFor(addr VAddr, access Prot) (uint64, error) {
	a := trunc(addr)
	m.mu.Lock()
	f, prot, ok := m.pmap.lookup(a)
	m.mu.Unlock()
	if ok && access&^prot == 0 {
		// A write hit on a COW entry must still fault.
		if access&ProtWrite != 0 {
			m.mu.Lock()
			e := m.findEntry(a)
			cow := e != nil && e.cow
			m.mu.Unlock()
			if cow {
				return m.Fault(addr, access)
			}
		}
		return f, nil
	}
	return m.Fault(addr, access)
}

// Copy makes a copy-on-write copy of [addr, addr+size) from src into this
// map at dst (vm_copy / task address-space inheritance).  Both entries
// become COW.
func (m *Map) Copy(src *Map, addr VAddr, size uint64, dst VAddr) error {
	if addr%PageSize != 0 || size%PageSize != 0 || dst%PageSize != 0 {
		return ErrUnaligned
	}
	src.mu.Lock()
	e := src.findEntry(addr)
	if e == nil || VAddr(uint64(addr)+size) > e.end {
		src.mu.Unlock()
		return ErrBadAddress
	}
	obj := e.obj
	offset := e.offset + uint64(addr-e.start)
	e.cow = true
	// Write protection downgrade on the source.
	for a := addr; a < VAddr(uint64(addr)+size); a += PageSize {
		src.pmap.setProt(a, e.prot&^ProtWrite)
	}
	obj.mu.Lock()
	obj.refs++
	obj.mu.Unlock()
	src.mu.Unlock()

	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ex := range m.entries {
		if dst < ex.end && VAddr(uint64(dst)+size) > ex.start {
			return ErrOverlap
		}
	}
	m.insert(&entry{
		start: dst, end: VAddr(uint64(dst) + size),
		obj: obj, offset: offset, prot: ProtRW, maxProt: ProtAll, cow: true,
	})
	return nil
}

// ResidentPages counts pages with frames mapped in the pmap — the map's
// resident set size.
func (m *Map) ResidentPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pmap.count()
}

// Entries reports the number of map entries (for footprint accounting).
func (m *Map) Entries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// pmap is the machine-dependent layer: the page table for one space.  The
// project ported pmap to several architectures; the simulation needs just
// one, a straightforward hash from page to frame+protection.
type pmap struct {
	pt map[VAddr]pmapEntry
}

type pmapEntry struct {
	frame uint64
	prot  Prot
}

func newPmap() *pmap { return &pmap{pt: make(map[VAddr]pmapEntry)} }

func (p *pmap) enter(a VAddr, frame uint64, prot Prot) {
	p.pt[a] = pmapEntry{frame, prot}
}

func (p *pmap) lookup(a VAddr) (uint64, Prot, bool) {
	e, ok := p.pt[a]
	return e.frame, e.prot, ok
}

func (p *pmap) remove(a VAddr) { delete(p.pt, a) }

func (p *pmap) setProt(a VAddr, prot Prot) {
	if e, ok := p.pt[a]; ok {
		e.prot = prot
		p.pt[a] = e
	}
}

func (p *pmap) count() int { return len(p.pt) }
