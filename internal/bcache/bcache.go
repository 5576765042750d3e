// Package bcache is the file server's unified buffer cache: a
// sector-granular LRU interposed between the vfs server and the block
// driver.  The paper's Table 1 file-intensive rows are dominated by the
// cross-task RPC from the file server to the block driver; the buffer
// cache serves hot sectors inside the file-server task for a few hundred
// modeled cycles instead of the multi-thousand-cycle driver crossing.
//
// The cache implements vfs.CachedDev: reads are served from the cache
// when possible, with sequential-access-detecting read-ahead on misses;
// writes are absorbed into a bounded dirty list and written behind, with
// Sync flushing everything.  Flush errors (e.g. from vfs.FaultyDev) leave
// the affected blocks dirty so a later Sync after Heal can retry, and are
// propagated to the caller rather than swallowed.
package bcache

import (
	"container/list"
	"slices"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/iosys"
	"repro/internal/kstat"
	"repro/internal/mach"
	"repro/internal/vfs"
)

// SectorSize matches the vfs and drivers packages.
const SectorSize = vfs.SectorSize

// Config sizes a Cache.
type Config struct {
	// CapacitySectors is the total number of 512-byte sectors the cache
	// may hold.  Values below 8 are raised to 8.
	CapacitySectors int
	// DirtyMax bounds the write-behind list; when more sectors are dirty
	// the oldest are flushed to the device.  0 means CapacitySectors/4.
	DirtyMax int
	// ReadAhead is the number of extra sectors fetched when a miss
	// continues a sequential run.  0 means 8; negative disables.
	ReadAhead int
	// HRM, when set, gets the cache's backing memory registered as a
	// ResMemory resource owned by the file server.
	HRM *iosys.HRM
}

type block struct {
	sector uint64
	data   []byte // SectorSize bytes
	dirty  bool
	elem   *list.Element
}

// Cache is a unified buffer cache over a block device.  It satisfies
// vfs.CachedDev and is not safe for concurrent use: the file server calls
// it only under the volume's kernel lock, which admits one request at a
// time however many pool threads serve the volume.
type Cache struct {
	eng   *cpu.Engine
	inner vfs.BlockDev
	op    cpu.Region // modeled lookup/bookkeeping cost per cache call
	arena cpu.Region // modeled backing store; Copy src/dst addresses
	buf   cpu.Region // stand-in address for the caller's buffer

	below vfs.RequestDev // inner, when it attributes work to requests
	req   *cpu.Span      // the request the cache works for (Begin)

	cap      int
	dirtyMax int
	ra       int
	blocks   map[uint64]*block
	lru      *list.List // front = most recent
	dirtyQ   []uint64   // sectors in first-dirtied order
	nextSeq  uint64     // expected start sector of a sequential read
	seqValid bool

	// dirty is len(dirtyQ) as of the last account, the one field a
	// metrics snapshot reads from another goroutine.
	dirty atomic.Int64
}

// New builds a cache over inner sized by cfg.  The layout placements give
// the cache's code and data real simulated addresses so its cost shows up
// in the engine like any other kernel-resident code.
func New(eng *cpu.Engine, layout *cpu.Layout, inner vfs.BlockDev, cfg Config) *Cache {
	if cfg.CapacitySectors < 8 {
		cfg.CapacitySectors = 8
	}
	dm := cfg.DirtyMax
	if dm <= 0 {
		dm = cfg.CapacitySectors / 4
	}
	if dm < 1 {
		dm = 1
	}
	if dm > cfg.CapacitySectors-1 {
		dm = cfg.CapacitySectors - 1
	}
	ra := cfg.ReadAhead
	if ra == 0 {
		ra = 8
	}
	if ra < 0 {
		ra = 0
	}
	if ra > cfg.CapacitySectors/2 {
		ra = cfg.CapacitySectors / 2
	}
	c := &Cache{
		eng:      eng,
		inner:    inner,
		op:       layout.PlaceInstr("bcache_op", 150),
		arena:    layout.Place("bcache_data", uint64(cfg.CapacitySectors)*SectorSize),
		buf:      layout.Place("bcache_io_buf", SectorSize),
		cap:      cfg.CapacitySectors,
		dirtyMax: dm,
		ra:       ra,
		blocks:   make(map[uint64]*block),
		lru:      list.New(),
	}
	c.below, _ = inner.(vfs.RequestDev)
	if cfg.HRM != nil {
		cfg.HRM.Register(iosys.Resource{
			Name: "bcache0", Kind: iosys.ResMemory,
			Base: c.arena.Base, Size: c.arena.Size,
		})
		cfg.HRM.Request("bcache0", "fileserver", nil)
	}
	// Pre-register the bcache families: kstat creates families on first
	// touch, and account() only touches counters that moved, so a freshly
	// booted cache would otherwise be invisible to -prom scrapes and
	// per-family monitor queries until the first hit/miss of each kind.
	// Each cache registers its own dirty level, so bcache.dirty is the
	// sum over every cached volume.
	st := kstat.For(c.eng)
	st.Counter("bcache.hits")
	st.Counter("bcache.misses")
	st.Counter("bcache.readahead")
	st.Counter("bcache.writeback")
	st.GaugeFunc("bcache.dirty", c.dirty.Load)
	return c
}

// Sectors implements vfs.BlockDev.
func (c *Cache) Sectors() uint64 { return c.inner.Sectors() }

// sectorAddr maps a cached sector to its simulated arena address.
func (c *Cache) sectorAddr(sector uint64) uint64 {
	return c.arena.Base + (sector%uint64(c.cap))*SectorSize
}

// Begin implements vfs.RequestDev: the cache notes its hits, misses and
// write-backs on req and passes the declaration down.
func (c *Cache) Begin(req *mach.Message) {
	c.req = req.Record()
	if c.below != nil {
		c.below.Begin(req)
	}
}

// End implements vfs.RequestDev.
func (c *Cache) End() {
	c.req = nil
	if c.below != nil {
		c.below.End()
	}
}

// ReadSectors implements vfs.BlockDev.  Cached sectors are copied out
// without touching the device; contiguous miss runs go to the device in
// one request, extended by read-ahead when the access continues the last
// sequential run.
func (c *Cache) ReadSectors(sector uint64, buf []byte) error {
	if len(buf) == 0 || len(buf)%SectorSize != 0 {
		return c.inner.ReadSectors(sector, buf)
	}
	n := uint64(len(buf) / SectorSize)
	c.eng.Exec(c.op)
	seq := c.seqValid && sector == c.nextSeq
	c.nextSeq = sector + n
	c.seqValid = true

	var hits, misses, raFill uint64
	var miss *cpu.Span // the read's device time, from its first miss
	for i := uint64(0); i < n; {
		s := sector + i
		if b := c.blocks[s]; b != nil {
			copy(buf[i*SectorSize:(i+1)*SectorSize], b.data)
			c.eng.Copy(c.sectorAddr(s), c.buf.Base, SectorSize)
			c.lru.MoveToFront(b.elem)
			hits++
			i++
			continue
		}
		// Contiguous run of missing sectors within the request.
		run := uint64(1)
		for i+run < n && c.blocks[s+run] == nil {
			run++
		}
		// Read-ahead past the end of the request on a sequential miss.
		extra := uint64(0)
		if seq && i+run == n {
			max := c.inner.Sectors()
			for extra < uint64(c.ra) && s+run+extra < max && c.blocks[s+run+extra] == nil {
				extra++
			}
		}
		tmp := make([]byte, (run+extra)*SectorSize)
		if miss == nil {
			miss = c.eng.Planes().Open(cpu.Event{Type: cpu.EvCache, Subsystem: "bcache", Name: "miss"}, nil)
		}
		if err := c.inner.ReadSectors(s, tmp); err != nil {
			c.account(hits, misses+run, raFill, 0)
			miss.End()
			return err
		}
		copy(buf[i*SectorSize:(i+run)*SectorSize], tmp[:run*SectorSize])
		for j := uint64(0); j < run+extra; j++ {
			c.insertClean(s+j, tmp[j*SectorSize:(j+1)*SectorSize])
		}
		misses += run
		raFill += extra
		i += run
	}
	miss.End()
	c.account(hits, misses, raFill, 0)
	return nil
}

// WriteSectors implements vfs.BlockDev.  Whole sectors are absorbed into
// the cache and marked dirty; when the dirty list exceeds its bound the
// oldest dirty sectors are written behind.  A write-behind failure is
// returned to the caller and the unwritten sectors stay dirty.
func (c *Cache) WriteSectors(sector uint64, data []byte) error {
	if len(data) == 0 || len(data)%SectorSize != 0 {
		c.dropRange(sector, uint64((len(data)+SectorSize-1)/SectorSize))
		return c.inner.WriteSectors(sector, data)
	}
	n := uint64(len(data) / SectorSize)
	c.eng.Exec(c.op)
	for i := uint64(0); i < n; i++ {
		s := sector + i
		b := c.blocks[s]
		if b == nil {
			var err error
			b, err = c.newBlock(s)
			if err != nil {
				c.account(0, 0, 0, 0)
				return err
			}
		}
		copy(b.data, data[i*SectorSize:(i+1)*SectorSize])
		c.eng.Copy(c.buf.Base, c.sectorAddr(s), SectorSize)
		if !b.dirty {
			b.dirty = true
			c.dirtyQ = append(c.dirtyQ, s)
		}
		c.lru.MoveToFront(b.elem)
	}
	c.account(0, 0, 0, 0)
	if len(c.dirtyQ) > c.dirtyMax {
		return c.flush(c.dirtyMax)
	}
	return nil
}

// Sync implements vfs.CachedDev: it writes back every dirty sector.  On
// error the blocks that could not be written remain dirty so the caller
// can retry (e.g. after FaultyDev.Heal).
func (c *Cache) Sync() error {
	if len(c.dirtyQ) == 0 {
		return nil
	}
	c.eng.Exec(c.op)
	return c.flush(0)
}

// Dirty reports the current number of dirty sectors (for tests).
func (c *Cache) Dirty() int {
	return len(c.dirtyQ)
}

// Cached reports whether a sector is resident (for tests).
func (c *Cache) Cached(sector uint64) bool {
	return c.blocks[sector] != nil
}

// flush writes dirty sectors oldest-first until at most limit
// remain, assembling contiguous runs into single device writes.  A run
// is copied out of the cache and then, on a plain device, written at
// once: the first device error stops the flush.  On a batch-capable
// device (vfs.BatchDev — only drivers booted with vectored RPC advertise
// it) the runs are collected and go down in one vectored call, which
// reports how many landed before the first error.  Either way only the
// written runs are un-dirtied, so a failed flush retries exactly the
// rest.
func (c *Cache) flush(limit int) error {
	want := len(c.dirtyQ) - limit
	if want <= 0 {
		return nil
	}
	victims := append([]uint64(nil), c.dirtyQ[:want]...)
	slices.Sort(victims)
	bd, vectored := c.inner.(vfs.BatchDev)
	span := func(name string) *cpu.Span {
		return c.eng.Planes().Open(cpu.Event{Type: cpu.EvCache, Subsystem: "bcache", Name: name}, nil)
	}
	var runs []vfs.SectorRun
	for i := 0; i < len(victims); {
		run := 1
		for i+run < len(victims) && victims[i+run] == victims[i]+uint64(run) {
			run++
		}
		out := make([]byte, run*SectorSize)
		for j, s := range victims[i : i+run] {
			copy(out[j*SectorSize:], c.blocks[s].data)
			c.eng.Copy(c.sectorAddr(s), c.buf.Base, SectorSize)
		}
		if vectored {
			runs = append(runs, vfs.SectorRun{Sector: victims[i], Data: out})
		} else {
			sp := span("writeback")
			err := c.inner.WriteSectors(victims[i], out)
			sp.End()
			if err != nil {
				return err
			}
			c.cleaned(victims[i : i+run])
		}
		i += run
	}
	if !vectored {
		return nil
	}
	sp := span("writeback_v")
	done, err := bd.WriteSectorsV(runs)
	sp.End()
	i := 0
	for _, r := range runs[:min(done, len(runs))] {
		n := len(r.Data) / SectorSize
		c.cleaned(victims[i : i+n])
		i += n
	}
	return err
}

// cleaned records one written run of sectors: no longer dirty, off the
// write-behind list, counted as written back.
func (c *Cache) cleaned(run []uint64) {
	for _, s := range run {
		c.blocks[s].dirty = false
	}
	c.removeFromDirtyQ(run)
	c.account(0, 0, 0, uint64(len(run)))
}

// newBlock allocates (or reclaims) a block for sector s and links it into
// the map and LRU.  It may have to write back a dirty victim.
func (c *Cache) newBlock(s uint64) (*block, error) {
	for len(c.blocks) >= c.cap {
		if err := c.evictOne(); err != nil {
			return nil, err
		}
	}
	b := &block{sector: s, data: make([]byte, SectorSize)}
	b.elem = c.lru.PushFront(b)
	c.blocks[s] = b
	return b, nil
}

// insertClean caches freshly read device data for sector s.  Eviction
// errors while making room are ignored: failing to cache a read is not a
// read failure (the caller already has the data).
func (c *Cache) insertClean(s uint64, data []byte) {
	if b := c.blocks[s]; b != nil {
		if !b.dirty {
			copy(b.data, data)
		}
		c.lru.MoveToFront(b.elem)
		return
	}
	b, err := c.newBlock(s)
	if err != nil {
		return
	}
	copy(b.data, data)
	c.eng.Copy(c.buf.Base, c.sectorAddr(s), SectorSize)
}

// evictOne drops the least-recently-used clean block; if every block is
// dirty it writes back the LRU one first.
func (c *Cache) evictOne() error {
	var victim *block
	for e := c.lru.Back(); e != nil; e = e.Prev() {
		b := e.Value.(*block)
		if !b.dirty {
			victim = b
			break
		}
	}
	if victim == nil {
		e := c.lru.Back()
		if e == nil {
			return nil
		}
		b := e.Value.(*block)
		if err := c.inner.WriteSectors(b.sector, b.data); err != nil {
			return err
		}
		b.dirty = false
		c.removeFromDirtyQ([]uint64{b.sector})
		c.account(0, 0, 0, 1)
		victim = b
	}
	c.lru.Remove(victim.elem)
	delete(c.blocks, victim.sector)
	return nil
}

// dropRange invalidates cached sectors in [sector, sector+n) — used when
// an unaligned write bypasses the cache so stale data cannot be served.
func (c *Cache) dropRange(sector, n uint64) {
	dropped := false
	for i := uint64(0); i < n; i++ {
		if b := c.blocks[sector+i]; b != nil {
			if b.dirty {
				c.removeFromDirtyQ([]uint64{b.sector})
				dropped = true
			}
			c.lru.Remove(b.elem)
			delete(c.blocks, sector+i)
		}
	}
	if dropped {
		// Dirty sectors left the write-behind list without a writeback;
		// account, or bcache.dirty reads stale-high until the next cached
		// operation happens to.
		c.account(0, 0, 0, 0)
	}
}

func (c *Cache) removeFromDirtyQ(sectors []uint64) {
	drop := make(map[uint64]bool, len(sectors))
	for _, s := range sectors {
		drop[s] = true
	}
	q := c.dirtyQ[:0]
	for _, s := range c.dirtyQ {
		if !drop[s] {
			q = append(q, s)
		}
	}
	c.dirtyQ = q
}

// outcomes names the cache outcome records, in account's argument order.
var outcomes = [...]string{"hit", "miss", "readahead", "writeback"}

// account emits one record per outcome class of the op — hits, misses,
// read-ahead fills, sectors written back, each with its count — on the
// request the cache works for, so a p99 drill-down shows whether it
// missed, and publishes the dirty level bcache.dirty reads, a level
// rather than a stamp.  Observation-only: it never charges the engine.
func (c *Cache) account(hits, misses, ra, wb uint64) {
	ps := c.eng.Planes()
	if ps.Wants(cpu.EvCache) {
		for i, n := range [...]uint64{hits, misses, ra, wb} {
			if n > 0 {
				ps.Emit(cpu.Event{Type: cpu.EvCache, Subsystem: "bcache", Name: outcomes[i], Arg: n, Req: c.req})
			}
		}
	}
	c.dirty.Store(int64(len(c.dirtyQ)))
}

var (
	_ vfs.CachedDev  = (*Cache)(nil)
	_ vfs.RequestDev = (*Cache)(nil)
)
