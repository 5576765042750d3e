// Package cpu implements a deterministic cost model of a mid-1990s
// microprocessor: instruction accounting, set-associative instruction and
// data caches, a TLB flushed on address-space switch, and bus-cycle
// accounting for cache line fills.
//
// The model is the measurement substrate for the whole reproduction.  The
// paper's Table 2 compares a kernel trap against a 32-byte RPC using the
// Pentium performance counters (instructions, cycles, bus cycles, CPI) and
// attributes the RPC's poor CPI to I-cache misses.  Code paths in the
// simulated system are declared as Regions (a name, an address, a size and
// an instruction count); executing a region touches its cache lines, so a
// path whose combined footprint exceeds the I-cache misses on every
// traversal exactly as the paper describes.
package cpu

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Config describes the modeled processor.
type Config struct {
	ICache CacheConfig
	DCache CacheConfig
	// BaseCPI is the cycles charged per instruction when every memory
	// access hits.  Expressed in hundredths of a cycle to keep the model
	// integral and deterministic (150 = 1.50 cycles/instruction).
	BaseCPI100 uint64
	// MissLatency is the cycles added per cache miss (line fill latency).
	MissLatency uint64
	// BusPerLine is the bus cycles consumed per cache line fill.
	BusPerLine uint64
	// TLBEntries is the number of TLB slots; the TLB is flushed on
	// address-space switch.
	TLBEntries int
	// TLBMissCycles is the page-walk cost per TLB miss.
	TLBMissCycles uint64
	// TLBMissBus is the bus cycles per TLB fill (page-table reads).
	TLBMissBus uint64
	// SwitchCycles is the fixed pipeline/privilege cost of an address
	// space switch (CR3 reload and serialization), beyond TLB refill.
	SwitchCycles uint64
	// PageSize in bytes; used by the TLB.
	PageSize uint64
	// MigrateCycles is the coherence cost charged on the destination
	// engine when a thread resumes on a different engine than it last ran
	// on: the inter-processor interrupt, the TLB-shootdown handshake and
	// the burst of coherence misses pulling its working set across.
	MigrateCycles uint64
	// MigrateBus is the bus traffic of that cross-engine pull (dirty
	// lines written back by the old engine, refetched by the new one).
	MigrateBus uint64
}

// CacheConfig describes one cache.
type CacheConfig struct {
	Sets     int // number of sets
	Ways     int // associativity
	LineSize uint64
}

// SizeBytes returns the total capacity of the cache.
func (c CacheConfig) SizeBytes() uint64 {
	return uint64(c.Sets) * uint64(c.Ways) * c.LineSize
}

// Pentium133 returns a configuration modeled on the machine in the paper's
// Table 2: a 133 MHz Pentium with split 8 KiB 2-way caches, 32-byte lines
// and a 64-entry TLB.
func Pentium133() Config {
	return Config{
		ICache:        CacheConfig{Sets: 128, Ways: 2, LineSize: 32},
		DCache:        CacheConfig{Sets: 128, Ways: 2, LineSize: 32},
		BaseCPI100:    130,
		MissLatency:   14,
		BusPerLine:    6,
		TLBEntries:    64,
		TLBMissCycles: 20,
		TLBMissBus:    2,
		SwitchCycles:  120,
		PageSize:      4096,
		MigrateCycles: 450,
		MigrateBus:    40,
	}
}

// Counters is the set of performance counters exposed by the model; these
// mirror the columns of the paper's Table 2.
type Counters struct {
	Instructions uint64
	Cycles       uint64
	BusCycles    uint64
	ICacheMisses uint64
	DCacheMisses uint64
	TLBMisses    uint64
	Switches     uint64 // address-space switches
}

// ProfKind classifies where a charged cycle went.  Every cycle the engine
// adds to Counters.Cycles is reported to an attached ProfSink under exactly
// one kind, so a profiler summing its cells reproduces the counter deltas
// cycle for cycle.
type ProfKind uint8

// The stall kinds, in charge order.
const (
	// ProfBase is the base pipeline cost of retiring instructions.
	ProfBase ProfKind = iota
	// ProfIMiss is I-cache line-fill latency.
	ProfIMiss
	// ProfDMiss is D-cache line-fill latency.
	ProfDMiss
	// ProfTLB is page-walk latency on a TLB miss.
	ProfTLB
	// ProfSwitch is the fixed serialization cost of an address-space switch.
	ProfSwitch
	// ProfStall is raw stall and uncached-overhead cycles (privilege
	// transitions, interrupt latency, device service time).
	ProfStall
	// ProfMigrate is the coherence cost of a thread resuming on a
	// different engine than it last ran on (cross-CPU migration).
	ProfMigrate
	// NumProfKinds is the number of stall kinds.
	NumProfKinds
)

var profKindNames = [NumProfKinds]string{"base", "imiss", "dmiss", "tlb", "switch", "stall", "migrate"}

func (k ProfKind) String() string {
	if k < NumProfKinds {
		return profKindNames[k]
	}
	return "unknown"
}

// ProfSink receives every cost the engine charges, as it is charged: the
// engine's slot, the cycles, bus cycles and instructions just added, the
// stall kind they were added under, and the name of the innermost code
// region executed so far ("" before any Exec).  Data, stall and switch costs are attributed to the
// most recently executed region — the code that issued them — exactly as a
// PC-sampling profiler would attribute them, except nothing is sampled:
// every charge is delivered.
//
// ProfCharge is called with the engine lock held.  Implementations must be
// fast, must not call back into the engine, and — like every observation
// hook in this system — must never charge costs themselves.
type ProfSink interface {
	ProfCharge(slot int, region string, kind ProfKind, cycles, bus, instr uint64)
}

// CPI returns cycles per instruction, the paper's fourth counter row.
func (c Counters) CPI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return float64(c.Cycles) / float64(c.Instructions)
}

// Sub returns the counter deltas accumulated since the snapshot prev.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Instructions: c.Instructions - prev.Instructions,
		Cycles:       c.Cycles - prev.Cycles,
		BusCycles:    c.BusCycles - prev.BusCycles,
		ICacheMisses: c.ICacheMisses - prev.ICacheMisses,
		DCacheMisses: c.DCacheMisses - prev.DCacheMisses,
		TLBMisses:    c.TLBMisses - prev.TLBMisses,
		Switches:     c.Switches - prev.Switches,
	}
}

func (c Counters) String() string {
	return fmt.Sprintf("instr=%d cycles=%d bus=%d cpi=%.2f i$miss=%d d$miss=%d tlb=%d",
		c.Instructions, c.Cycles, c.BusCycles, c.CPI(), c.ICacheMisses, c.DCacheMisses, c.TLBMisses)
}

// Region is a contiguous code path: executing it runs Instr instructions
// whose text occupies [Base, Base+Size).  Regions are laid out by a Layout
// so distinct kernel paths, stubs and server loops genuinely compete for
// cache sets.
type Region struct {
	Name  string
	Base  uint64
	Size  uint64
	Instr uint64
}

// Layout assigns non-overlapping addresses to code regions, mimicking a
// linker laying out kernel text, library stubs and server text.
type Layout struct {
	mu   sync.Mutex
	next uint64
}

// NewLayout creates a layout allocating upward from base.
func NewLayout(base uint64) *Layout {
	return &Layout{next: base}
}

// Place allocates a region of the given byte size with an instruction count
// derived from the size (4 bytes per instruction), aligned to 32 bytes.
func (l *Layout) Place(name string, size uint64) Region {
	l.mu.Lock()
	defer l.mu.Unlock()
	base := (l.next + 31) &^ 31
	l.next = base + size
	return Region{Name: name, Base: base, Size: size, Instr: size / 4}
}

// PlaceInstr allocates a region sized for n instructions (4 bytes each).
func (l *Layout) PlaceInstr(name string, n uint64) Region {
	r := l.Place(name, n*4)
	r.Instr = n
	return r
}

// Validate reports a geometry the model cannot represent.  A cache
// indexes by shift and mask, and Engine.touch walks a range line by line
// from addr &^ (LineSize-1), so each cache's Sets and LineSize must be
// powers of two; the TLB and touch divide addresses by PageSize, so it
// must not be zero.
func (c Config) Validate() error {
	if c.PageSize == 0 {
		return fmt.Errorf("cpu: PageSize = 0: the TLB has no page to map")
	}
	for _, cc := range []struct {
		name string
		cfg  CacheConfig
	}{{"ICache", c.ICache}, {"DCache", c.DCache}} {
		if bits.OnesCount64(uint64(cc.cfg.Sets)) != 1 {
			return fmt.Errorf("cpu: %s.Sets = %d is not a power of two", cc.name, cc.cfg.Sets)
		}
		if bits.OnesCount64(cc.cfg.LineSize) != 1 {
			return fmt.Errorf("cpu: %s.LineSize = %d is not a power of two", cc.name, cc.cfg.LineSize)
		}
	}
	return nil
}

// cache is one set-associative cache with true-LRU replacement.  The
// simulated system uses a single physical address space, so competing
// regions conflict exactly as physical caches do.  A way's tag is the
// line's cache page — its address divided by Sets*LineSize — plus one (0
// = invalid): within one set that names the same line a full line
// address would, and a run of consecutive sets in one cache page shares
// it.  Set s occupies tags[s*Ways : (s+1)*Ways], most recently used first
// — Mattson's LRU stack, so the way a line hits in is its stack distance
// and the last way is the victim.
type cache struct {
	cfg       CacheConfig
	tags      []uint64 // 0 = invalid
	lineShift uint     // log2(LineSize)
	pageShift uint     // log2(Sets): a line's cache page is line >> pageShift
	setMask   uint64   // Sets-1
}

// newCache builds a cold cache; cfg must pass Config.Validate.
func newCache(cfg CacheConfig) *cache {
	return &cache{
		cfg: cfg, tags: make([]uint64, cfg.Sets*cfg.Ways),
		lineShift: uint(bits.TrailingZeros64(cfg.LineSize)),
		pageShift: uint(bits.TrailingZeros64(uint64(cfg.Sets))), setMask: uint64(cfg.Sets) - 1,
	}
}

// run touches the line at a and every LineSize step after it below end,
// and returns how many missed.  The lines are taken a cache page at a
// time: a run of consecutive sets that all look for one tag.
func (c *cache) run(a, end uint64) (misses uint64) {
	if a >= end {
		return 0
	}
	line, n := a>>c.lineShift, (end-a+c.cfg.LineSize-1)>>c.lineShift
	for n > 0 {
		s := line & c.setMask
		k := min(n, c.setMask+1-s)
		tag, ways := line>>c.pageShift+1, uint64(c.cfg.Ways)
		sets := c.tags[s*ways : (s+k)*ways]
		if ways == 2 {
			misses += run2(sets, tag)
		} else {
			misses += runN(sets, int(ways), tag)
		}
		line, n = line+k, n-k
	}
	return misses
}

// run2 looks tag up in each two-way set of sets and returns how many
// missed.  Every outcome stores the same two ways — tag first, then
// whichever old way is not tag (the old first way on a miss) — so the
// loop is selects, not branches.
func run2(sets []uint64, tag uint64) (misses uint64) {
	for ; len(sets) >= 2; sets = sets[2:] {
		a0, a1 := sets[0], sets[1]
		misses += b2u(a0 != tag) & b2u(a1 != tag)
		if a0 == tag {
			a0 = a1
		}
		sets[0], sets[1] = tag, a0
	}
	return misses
}

// b2u is 1 for true and 0 for false, which compiles to a flag set.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// runN looks tag up in each ways-way set of sets and returns how many
// missed.  A hit on the most recent way costs one compare; any other
// hit, or a miss, moves the line to the front of its set, and a miss
// drops the set's last way.
func runN(sets []uint64, ways int, tag uint64) (misses uint64) {
	for ; len(sets) >= ways; sets = sets[ways:] {
		set := sets[:ways]
		if set[0] == tag {
			continue
		}
		w := 1
		for w < ways && set[w] != tag {
			w++
		}
		if w == ways {
			misses++
			w--
		}
		for ; w > 0; w-- {
			set[w] = set[w-1]
		}
		set[0] = tag
	}
	return misses
}

func (c *cache) flush() {
	clear(c.tags)
}

// tlb is a fully-associative LRU TLB over pages, the resident pages held
// most recently used first (TLBEntries at most).  A lookup is usually one
// compare: consecutive code regions and buffers mostly sit on the page
// the previous access left at the front.
type tlb struct {
	pageSize uint64
	pages    []uint64 // cap = TLBEntries
}

func newTLB(entries int, pageSize uint64) *tlb {
	entries = max(entries, 1) // a TLB always holds the page it just walked
	return &tlb{pageSize: pageSize, pages: make([]uint64, 0, entries)}
}

// access touches the page containing addr; it reports whether it hit.
func (t *tlb) access(addr uint64) bool {
	page := addr / t.pageSize
	p := t.pages
	i := 0
	for i < len(p) && p[i] != page {
		i++
	}
	hit := i < len(p)
	if !hit && i < cap(p) {
		p = p[:i+1] // grow into a free slot
		t.pages = p
	} else if !hit {
		i-- // drop the least recent page
	}
	for ; i > 0; i-- {
		p[i] = p[i-1]
	}
	p[0] = page
	return hit
}

func (t *tlb) flush() {
	t.pages = t.pages[:0]
}

// Engine is one simulated processor.  All methods are safe for concurrent
// use; callers across the simulated system charge their costs here.
type Engine struct {
	mu     sync.Mutex
	cfg    Config
	icache *cache
	dcache *cache
	tlb    *tlb
	ctr    Counters
	// cpiFrac carries the hundredths of a base cycle that chargeInstr has
	// not yet added to ctr.Cycles.  It is engine state, not a counter:
	// two snapshots of ctr compare and subtract without it.
	cpiFrac uint64
	asid    uint64

	// prof, when set, receives every charge as it lands (used by
	// internal/kprof).  Observation-only: the nil check is the entire
	// disabled fast path.
	prof ProfSink
	// curRegion is the name of the most recently executed code region,
	// the attribution target for charges with no code footprint of their
	// own (data traffic, stalls, switches).
	curRegion string

	// slot is this engine's index within a Complex (0 for a standalone
	// engine).  cx is set only on slot 0 of a Complex — the router: a
	// charge arriving there is forwarded to the engine the calling OS
	// thread is bound to (see Complex.Bind), so the ~200 k.CPU charge
	// sites across the system work unchanged on N engines.  Standalone
	// engines (cx == nil) skip routing entirely, which is why CPUs=1
	// stays bit-identical to the single-engine model.
	slot int
	cx   *Complex
	// root is the router of the Complex a non-router engine belongs to:
	// the engine whose plane set observes this one.
	root *Engine

	// planes is the observation set attached to this engine (planes.go);
	// planeMu serializes its copy-on-write replacement.
	planeMu sync.Mutex
	planes  atomic.Pointer[Planes]
	// open is the stack of open records the trace and profile read.
	open openRecords
}

// NewEngine creates a processor with cold caches.  It panics, naming the
// field, on a geometry Config.Validate rejects.
func NewEngine(cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Engine{
		cfg:    cfg,
		icache: newCache(cfg.ICache),
		dcache: newCache(cfg.DCache),
		tlb:    newTLB(cfg.TLBEntries, cfg.PageSize),
	}
}

// Config returns the processor configuration.
func (e *Engine) Config() Config { return e.cfg }

// Slot returns the engine's index within its Complex (0 standalone).
func (e *Engine) Slot() int { return e.slot }

// Complex returns the Complex this engine routes for, or nil for a
// standalone (or non-router) engine.
func (e *Engine) Complex() *Complex { return e.cx }

// route resolves the engine a charge should land on: the engine bound to
// the calling goroutine when e is the router of a Complex, e itself
// otherwise.  It also returns the binding the charge is routed through
// (nil when unbound or standalone), which unlock credits with the
// charge's cycles.  It is called once at each public entry point, never
// recursively — the engine it returns is used directly.
func (e *Engine) route() (*Engine, *Binding) {
	if e.cx == nil {
		return e, nil
	}
	if b := e.cx.current(); b != nil {
		return b.eng, b
	}
	return e, nil
}

// unlock releases the engine lock taken by a routed charge, first
// crediting b with the cycles the charge added since base (the engine's
// cycle count when the lock was taken).  A standalone engine's b is nil.
func (e *Engine) unlock(b *Binding, base uint64) {
	if b != nil {
		b.cycles += e.ctr.Cycles - base
	}
	e.mu.Unlock()
}

// Counters returns a snapshot of the performance counters.  On the router
// engine of a Complex this is the sum across all engines — a monotonic
// virtual clock, so the many delta-based observation hooks keyed on the
// boot engine keep working on N engines.  Use Complex.EngineCounters for
// a single engine's view.
func (e *Engine) Counters() Counters {
	if e.cx != nil {
		return e.cx.TotalCounters()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ctr
}

// rawCounters reads this engine's own counters, bypassing routing.
func (e *Engine) rawCounters() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ctr
}

// Reset zeroes the counters without disturbing cache state, like resetting
// hardware performance counters between measurement runs.  On the router
// engine of a Complex every engine is reset.
func (e *Engine) Reset() {
	if e.cx != nil {
		for _, eng := range e.cx.engines {
			eng.mu.Lock()
			eng.ctr, eng.cpiFrac = Counters{}, 0
			eng.mu.Unlock()
		}
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ctr, e.cpiFrac = Counters{}, 0
}

// ColdStart flushes caches and the TLB and zeroes counters; on the router
// engine of a Complex every engine goes cold.
func (e *Engine) ColdStart() {
	if e.cx != nil {
		for _, eng := range e.cx.engines {
			eng.coldStartOne()
		}
		return
	}
	e.coldStartOne()
}

func (e *Engine) coldStartOne() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.icache.flush()
	e.dcache.flush()
	e.tlb.flush()
	e.ctr, e.cpiFrac = Counters{}, 0
}

// chargeInstr adds n instructions of base pipeline cost.  The profiler is
// handed the whole cycles actually added (the fractional CPI remainder
// carries in cpiFrac), so profile sums match the counter deltas exactly.
func (e *Engine) chargeInstr(n uint64) {
	e.ctr.Instructions += n
	e.cpiFrac += n * e.cfg.BaseCPI100
	whole := e.cpiFrac / 100
	e.cpiFrac %= 100
	e.ctr.Cycles += whole
	if e.prof != nil {
		e.prof.ProfCharge(e.slot, e.curRegion, ProfBase, whole, 0, n)
	}
}

// touch runs every line of [addr, end) through the TLB and cache c,
// charging each miss under kind (ProfIMiss or ProfDMiss) — the one
// per-line loop behind Exec, Read, Write and Copy.  A page's lines are
// taken as a run: the first is a real TLB lookup, the rest hit the page
// it left at the front and need no lookup, and the cache returns the
// run's miss count.  Hits charge nothing, so the charge sequence is the
// per-line one: the run's TLB miss, then its line misses.
func (e *Engine) touch(c *cache, kind ProfKind, addr, end uint64) {
	line, page := c.cfg.LineSize, e.cfg.PageSize
	misses := &e.ctr.DCacheMisses
	if kind == ProfIMiss {
		misses = &e.ctr.ICacheMisses
	}
	for a := addr &^ (line - 1); a < end; {
		if !e.tlb.access(a) {
			e.chargeMiss(&e.ctr.TLBMisses, 1, ProfTLB, e.cfg.TLBMissCycles, e.cfg.TLBMissBus)
		}
		runEnd := min(end, (a/page+1)*page)
		if n := c.run(a, runEnd); n > 0 {
			e.chargeMiss(misses, n, kind, e.cfg.MissLatency, e.cfg.BusPerLine)
		}
		a += (runEnd - a + line - 1) &^ (line - 1) // the first line at or past runEnd
	}
}

// chargeMiss adds n misses of cycles and bus each to the counter ctr and
// the totals, and hands an attached sink one charge per miss.
func (e *Engine) chargeMiss(ctr *uint64, n uint64, kind ProfKind, cycles, bus uint64) {
	*ctr += n
	e.ctr.Cycles += n * cycles
	e.ctr.BusCycles += n * bus
	if e.prof != nil {
		for ; n > 0; n-- {
			e.prof.ProfCharge(e.slot, e.curRegion, kind, cycles, bus, 0)
		}
	}
}

// Exec runs one traversal of a code region: its instructions retire at the
// base CPI and every line of its text is fetched through the I-cache.
func (e *Engine) Exec(r Region) {
	e, b := e.route()
	e.mu.Lock()
	defer e.unlock(b, e.ctr.Cycles)
	e.execLocked(r)
}

// ExecN runs a region n times back to back.
func (e *Engine) ExecN(r Region, n int) {
	e, b := e.route()
	e.mu.Lock()
	defer e.unlock(b, e.ctr.Cycles)
	for i := 0; i < n; i++ {
		e.execLocked(r)
	}
}

func (e *Engine) execLocked(r Region) {
	e.curRegion = r.Name
	e.chargeInstr(r.Instr)
	e.touch(e.icache, ProfIMiss, r.Base, r.Base+r.Size)
}

// ExecPartial runs a fraction (num/den) of a region: the instructions and
// footprint scale together.  Used for paths with data-dependent length.
func (e *Engine) ExecPartial(r Region, num, den uint64) {
	if den == 0 || num == 0 {
		return
	}
	part := r
	part.Size = r.Size * num / den
	part.Instr = r.Instr * num / den
	if part.Instr == 0 {
		part.Instr = 1
	}
	e.Exec(part)
}

// Read models a data read of size bytes at addr through the D-cache.
func (e *Engine) Read(addr, size uint64) {
	e.accessData(addr, size)
}

// Write models a data write of size bytes at addr through the D-cache
// (write-allocate, so the cost model matches Read).
func (e *Engine) Write(addr, size uint64) {
	e.accessData(addr, size)
}

func (e *Engine) accessData(addr, size uint64) {
	if size == 0 {
		return
	}
	e, b := e.route()
	e.mu.Lock()
	defer e.unlock(b, e.ctr.Cycles)
	e.touch(e.dcache, ProfDMiss, addr, addr+size)
}

// StoreRows models a strided store loop, a rectangle painted row by row:
// width bytes written at addr, addr+stride, ... for rows rows, each row
// followed by instrPerRow instructions of loop body.  It charges exactly
// what a Write plus an Instr per row would, in the same order, under one
// lock.
func (e *Engine) StoreRows(addr, width, stride uint64, rows int, instrPerRow uint64) {
	e, b := e.route()
	e.mu.Lock()
	defer e.unlock(b, e.ctr.Cycles)
	for ; rows > 0; rows, addr = rows-1, addr+stride {
		if width > 0 {
			e.touch(e.dcache, ProfDMiss, addr, addr+width)
		}
		e.chargeInstr(instrPerRow)
	}
}

// Copy models a physical memory copy of n bytes from src to dst: a tight
// copy loop (about one instruction per 4 bytes plus setup) plus D-cache
// traffic on both the source and destination.  This is the "replaced
// virtual with physical copy" path of the reworked RPC.
func (e *Engine) Copy(src, dst, n uint64) {
	e, b := e.route()
	e.mu.Lock()
	defer e.unlock(b, e.ctr.Cycles)
	e.chargeInstr(8 + n/4)
	e.touch(e.dcache, ProfDMiss, src, src+n)
	e.touch(e.dcache, ProfDMiss, dst, dst+n)
}

// SwitchAddressSpace models loading a new address-space root: a fixed
// serialization cost plus a full TLB flush, whose refills are then paid by
// subsequent accesses.  Switching to the current space is free (the paper's
// RPC path always switches: client -> server -> client).
func (e *Engine) SwitchAddressSpace(asid uint64) {
	e, b := e.route()
	e.mu.Lock()
	if asid == e.asid {
		e.mu.Unlock()
		return
	}
	base := e.ctr.Cycles
	e.asid = asid
	e.ctr.Switches++
	e.ctr.Cycles += e.cfg.SwitchCycles
	if e.prof != nil {
		e.prof.ProfCharge(e.slot, e.curRegion, ProfSwitch, e.cfg.SwitchCycles, 0, 0)
	}
	e.tlb.flush()
	e.unlock(b, base)
	if e.root != nil {
		e = e.root
	}
	e.Planes().Emit(Event{Type: EvASSwitch, Subsystem: "cpu", Name: "as_switch", Arg: asid})
}

// ASID returns the currently loaded address-space identifier (of the
// calling thread's bound engine, under a Complex).
func (e *Engine) ASID() uint64 {
	e, _ = e.route()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.asid
}

// Stall charges raw cycles with no instructions, modeling interrupt
// latency, DMA wait or device service time.
func (e *Engine) Stall(cycles uint64) {
	e, b := e.route()
	e.mu.Lock()
	defer e.unlock(b, e.ctr.Cycles)
	e.ctr.Cycles += cycles
	if e.prof != nil {
		e.prof.ProfCharge(e.slot, e.curRegion, ProfStall, cycles, 0, 0)
	}
}

// Instr charges n instructions with no specific code footprint (for
// straight-line computation inside an already-resident region).
func (e *Engine) Instr(n uint64) {
	e, b := e.route()
	e.mu.Lock()
	defer e.unlock(b, e.ctr.Cycles)
	e.chargeInstr(n)
}

// Overhead charges raw cycles and bus cycles with no instructions,
// modeling uncached accesses such as descriptor-table reads during a
// privilege transition or device-register I/O.
func (e *Engine) Overhead(cycles, bus uint64) {
	e, b := e.route()
	e.mu.Lock()
	defer e.unlock(b, e.ctr.Cycles)
	e.ctr.Cycles += cycles
	e.ctr.BusCycles += bus
	if e.prof != nil {
		e.prof.ProfCharge(e.slot, e.curRegion, ProfStall, cycles, bus, 0)
	}
}

// Migrate charges the cross-engine migration cost: the destination pays
// MigrateCycles/MigrateBus for the IPI, the TLB-shootdown handshake and
// the coherence pull of the thread's working set.  The scheduler calls it
// after binding, so under a Complex the charge lands on the destination
// engine.
func (e *Engine) Migrate() {
	e, b := e.route()
	e.mu.Lock()
	defer e.unlock(b, e.ctr.Cycles)
	e.ctr.Cycles += e.cfg.MigrateCycles
	e.ctr.BusCycles += e.cfg.MigrateBus
	if e.prof != nil {
		e.prof.ProfCharge(e.slot, e.curRegion, ProfMigrate, e.cfg.MigrateCycles, e.cfg.MigrateBus, 0)
	}
}

// SetProfSink installs (or, with nil, removes) the per-charge profiler
// sink.  The sink runs under the engine lock and must not charge costs —
// attaching one never changes modeled cycle counts.  The hook is
// engine-local (never routed): observers that want every engine of a
// Complex install on each one (see kprof.Attach).
func (e *Engine) SetProfSink(s ProfSink) {
	e.mu.Lock()
	e.prof = s
	e.mu.Unlock()
}
