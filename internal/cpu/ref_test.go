package cpu

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// The stamp-based map TLB and slice-of-slices cache the engine used
// before its structures were flattened and put in recency order, kept
// verbatim as reference models: the recency-ordered versions are an
// optimisation of the simulator, not a change to the model, so they must
// produce the same hit/miss sequence access for access — which is what
// keeps Tables 1 and 2 bit-identical — and hold the same lines in the
// same recency order.

// access touches the line containing addr; it reports whether it hit.
func (c *cache) access(addr uint64) bool { return c.run(addr, addr+1) == 0 }

type refCache struct {
	cfg  CacheConfig
	tags [][]uint64 // [set][way]; 0 = invalid
	age  [][]uint64 // [set][way] last-use stamps
	tick uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	c := &refCache{cfg: cfg}
	c.tags = make([][]uint64, cfg.Sets)
	c.age = make([][]uint64, cfg.Sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, cfg.Ways)
		c.age[i] = make([]uint64, cfg.Ways)
	}
	return c
}

func (c *refCache) access(addr uint64) bool {
	line := addr / c.cfg.LineSize
	set := int(line % uint64(c.cfg.Sets))
	tag := line + 1
	c.tick++
	ways := c.tags[set]
	for w, t := range ways {
		if t == tag {
			c.age[set][w] = c.tick
			return true
		}
	}
	victim := 0
	for w := 1; w < len(ways); w++ {
		if c.age[set][w] < c.age[set][victim] {
			victim = w
		}
	}
	ways[victim] = tag
	c.age[set][victim] = c.tick
	return false
}

func (c *refCache) flush() {
	for s := range c.tags {
		for w := range c.tags[s] {
			c.tags[s][w] = 0
			c.age[s][w] = 0
		}
	}
}

type refTLB struct {
	entries  int
	pageSize uint64
	pages    map[uint64]uint64 // page -> stamp
	tick     uint64
}

func newRefTLB(entries int, pageSize uint64) *refTLB {
	return &refTLB{entries: entries, pageSize: pageSize, pages: make(map[uint64]uint64, entries)}
}

func (t *refTLB) access(addr uint64) bool {
	page := addr / t.pageSize
	t.tick++
	if _, ok := t.pages[page]; ok {
		t.pages[page] = t.tick
		return true
	}
	if len(t.pages) >= t.entries {
		var victim uint64
		var oldest uint64 = ^uint64(0)
		for p, stamp := range t.pages {
			if stamp < oldest {
				oldest = stamp
				victim = p
			}
		}
		delete(t.pages, victim)
	}
	t.pages[page] = t.tick
	return false
}

func (t *refTLB) flush() {
	for p := range t.pages {
		delete(t.pages, p)
	}
}

// byRecency returns tags ordered by their stamps, most recent first, with
// unstamped (invalid) entries last: the order the recency-ordered models
// hold their lines in.
func byRecency(tags, stamps []uint64) []uint64 {
	idx := make([]int, len(tags))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(stamps[b], stamps[a]) })
	out := make([]uint64, len(tags))
	for i, j := range idx {
		out[i] = tags[j]
	}
	return out
}

// resident is the reference TLB's pages, most recent first.
func (t *refTLB) resident() []uint64 {
	var pages, stamps []uint64
	for p, stamp := range t.pages {
		pages, stamps = append(pages, p), append(stamps, stamp)
	}
	return byRecency(pages, stamps)
}

// lineTags converts set s's page tags back to the reference's line tags
// (line + 1, 0 = invalid).
func (c *cache) lineTags(s int) []uint64 {
	w := c.cfg.Ways
	out := slices.Clone(c.tags[s*w : (s+1)*w])
	for i, tag := range out {
		if tag != 0 {
			out[i] = (tag-1)<<c.pageShift | uint64(s) + 1
		}
	}
	return out
}

// sameSets fails unless every set of got holds the reference's lines in
// the reference's recency order.
func sameSets(t *testing.T, what string, got *cache, ref *refCache) {
	t.Helper()
	for s := range ref.tags {
		want, have := byRecency(ref.tags[s], ref.age[s]), got.lineTags(s)
		if !slices.Equal(want, have) {
			t.Fatalf("%s set %d: lines %#x, reference in recency order %#x", what, s, have, want)
		}
	}
}

// sameTLB fails unless got holds the reference's pages in its recency
// order.
func sameTLB(t *testing.T, what string, got *tlb, ref *refTLB) {
	t.Helper()
	if want := ref.resident(); !slices.Equal(want, got.pages) {
		t.Fatalf("%s: pages %#x, reference in recency order %#x", what, got.pages, want)
	}
}

// accessGen produces a seeded address stream mixing the patterns the
// simulated system issues: runs of consecutive lines (region fetches,
// copies), page-crossing strides, uniformly random touches over a range
// wide enough to thrash, and re-walks of a small hot set.  flushEvery > 0
// interleaves flushes at seeded intervals around that mean, the way
// address-space switches land between bursts.
type accessGen struct {
	rng  *rand.Rand
	cur  uint64
	left int
	step uint64
}

func (g *accessGen) next() uint64 {
	if g.left == 0 {
		switch g.rng.IntN(4) {
		case 0: // sequential lines
			g.cur, g.step, g.left = g.rng.Uint64N(1<<26)&^31, 32, 1+g.rng.IntN(400)
		case 1: // strided, across pages and sets
			g.cur, g.step, g.left = g.rng.Uint64N(1<<26), 32*(1+g.rng.Uint64N(300)), 1+g.rng.IntN(200)
		case 2: // random
			g.cur, g.step, g.left = g.rng.Uint64N(1<<26), 0, 1+g.rng.IntN(50)
		default: // hot set: a few pages walked over and over
			g.cur, g.step, g.left = 0x4000*g.rng.Uint64N(6), 4096, 1+g.rng.IntN(100)
		}
	}
	g.left--
	a := g.cur
	if g.step == 0 {
		g.cur = g.rng.Uint64N(1 << 26)
	} else {
		g.cur += g.step
	}
	return a
}

const diffAccesses = 1 << 20

func TestTLBMatchesReference(t *testing.T) {
	for _, entries := range []int{0, 1, 2, 64} {
		for _, flushEvery := range []int{0, 40, 5000} {
			t.Run(fmt.Sprintf("entries=%d/flush=%d", entries, flushEvery), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(uint64(entries)+1, uint64(flushEvery)))
				gen := &accessGen{rng: rng}
				ref, got := newRefTLB(entries, 4096), newTLB(entries, 4096)
				var hits, flushes int
				for i := 0; i < diffAccesses; i++ {
					if flushEvery > 0 && rng.IntN(flushEvery) == 0 {
						ref.flush()
						got.flush()
						flushes++
					}
					a := gen.next()
					want, have := ref.access(a), got.access(a)
					if want != have {
						t.Fatalf("access %d (addr %#x, %d flushes in): TLB hit=%v, reference hit=%v", i, a, flushes, have, want)
					}
					if want {
						hits++
					}
				}
				sameTLB(t, "final state", got, ref)
				if hits == 0 || hits == diffAccesses {
					t.Fatalf("degenerate stream: %d hits of %d", hits, diffAccesses)
				}
			})
		}
	}
}

func TestCacheMatchesReference(t *testing.T) {
	cfgs := []CacheConfig{
		Pentium133().ICache,
		{Sets: 1, Ways: 8, LineSize: 32},   // fully associative
		{Sets: 256, Ways: 1, LineSize: 16}, // direct mapped
		{Sets: 64, Ways: 4, LineSize: 32},  // hits shift from mid-set
	}
	for ci, cfg := range cfgs {
		for _, flushEvery := range []int{0, 20000} {
			t.Run(fmt.Sprintf("%dx%dx%d/flush=%d", cfg.Sets, cfg.Ways, cfg.LineSize, flushEvery), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(uint64(ci)+1, uint64(flushEvery)))
				gen := &accessGen{rng: rng}
				ref, got := newRefCache(cfg), newCache(cfg)
				var hits int
				for i := 0; i < diffAccesses; i++ {
					if flushEvery > 0 && rng.IntN(flushEvery) == 0 {
						ref.flush()
						got.flush()
					}
					a := gen.next()
					want, have := ref.access(a), got.access(a)
					if want != have {
						t.Fatalf("access %d (addr %#x): cache hit=%v, reference hit=%v", i, a, have, want)
					}
					if want {
						hits++
					}
				}
				sameSets(t, "final state", got, ref)
				if hits == 0 || hits == diffAccesses {
					t.Fatalf("degenerate stream: %d hits of %d", hits, diffAccesses)
				}
			})
		}
	}
}

// TestCacheRunMatchesReference drives ranged runs — the calls touch
// makes — against the reference walked one line at a time: runs of 1 to
// 400 lines from unaligned addresses, many starting just below a cache
// page so they cross into the next page and wrap from the last set to
// the first.  The last geometry's cache page (256 sets x 32 bytes) is
// larger than a TLB page: touch hands such a cache runs that start and
// end inside a cache page.
func TestCacheRunMatchesReference(t *testing.T) {
	cfgs := []CacheConfig{
		Pentium133().ICache,
		{Sets: 1, Ways: 8, LineSize: 32},
		{Sets: 256, Ways: 1, LineSize: 16},
		{Sets: 64, Ways: 4, LineSize: 32},
		{Sets: 256, Ways: 2, LineSize: 32},
	}
	for ci, cfg := range cfgs {
		t.Run(fmt.Sprintf("%dx%dx%d", cfg.Sets, cfg.Ways, cfg.LineSize), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(ci)+1, 3))
			ref, got := newRefCache(cfg), newCache(cfg)
			page := uint64(cfg.Sets) * cfg.LineSize
			var lines, misses uint64
			for i := 0; i < 20000; i++ {
				if rng.IntN(5000) == 0 {
					ref.flush()
					got.flush()
				}
				// A window of 8 cache pages, so runs both hit and evict.
				a := rng.Uint64N(8 * page)
				if rng.IntN(2) == 0 {
					a = (a/page+1)*page - rng.Uint64N(min(page, 64*cfg.LineSize)) - 1
				}
				n := 1 + rng.Uint64N(400)
				end := a + (n-1)*cfg.LineSize + 1 + rng.Uint64N(cfg.LineSize)
				var want uint64
				for x := a; x < end; x += cfg.LineSize {
					if !ref.access(x) {
						want++
					}
				}
				if have := got.run(a, end); have != want {
					t.Fatalf("run %d [%#x, %#x) of %d lines: %d misses, reference %d", i, a, end, n, have, want)
				}
				if i%64 == 0 {
					sameSets(t, fmt.Sprintf("after run %d", i), got, ref)
				}
				lines, misses = lines+n, misses+want
			}
			sameSets(t, "final state", got, ref)
			if misses == 0 || misses == lines {
				t.Fatalf("degenerate stream: %d misses of %d lines", misses, lines)
			}
		})
	}
}

// profCharge is one charge a ProfSink receives.
type profCharge struct {
	region             string
	kind               ProfKind
	cycles, bus, instr uint64
}

// recSink records every charge it is handed.
type recSink struct{ got []profCharge }

func (s *recSink) ProfCharge(_ int, region string, kind ProfKind, cycles, bus, instr uint64) {
	s.got = append(s.got, profCharge{region, kind, cycles, bus, instr})
}

// refEngine is the engine as it used to be: the reference models walked
// one line at a time, a TLB lookup per line, each miss charged as it
// happens.  It keeps the counters and the charge sequence a ProfSink
// would have received.
type refEngine struct {
	cfg     Config
	ic, dc  *refCache
	tl      *refTLB
	asid    uint64
	region  string
	ctr     Counters
	cpiFrac uint64
	charges []profCharge
}

func newRefEngine(cfg Config) *refEngine {
	return &refEngine{cfg: cfg, ic: newRefCache(cfg.ICache), dc: newRefCache(cfg.DCache),
		tl: newRefTLB(cfg.TLBEntries, cfg.PageSize)}
}

func (r *refEngine) charge(kind ProfKind, cycles, bus, instr uint64) {
	r.ctr.Cycles += cycles
	r.ctr.BusCycles += bus
	r.charges = append(r.charges, profCharge{r.region, kind, cycles, bus, instr})
}

func (r *refEngine) instr(n uint64) {
	r.ctr.Instructions += n
	r.cpiFrac += n * r.cfg.BaseCPI100
	whole := r.cpiFrac / 100
	r.cpiFrac %= 100
	r.charge(ProfBase, whole, 0, n)
}

func (r *refEngine) lines(c *refCache, kind ProfKind, addr, end uint64) {
	miss := &r.ctr.DCacheMisses
	if kind == ProfIMiss {
		miss = &r.ctr.ICacheMisses
	}
	for a := addr &^ (c.cfg.LineSize - 1); a < end; a += c.cfg.LineSize {
		if !r.tl.access(a) {
			r.ctr.TLBMisses++
			r.charge(ProfTLB, r.cfg.TLBMissCycles, r.cfg.TLBMissBus, 0)
		}
		if !c.access(a) {
			*miss++
			r.charge(kind, r.cfg.MissLatency, r.cfg.BusPerLine, 0)
		}
	}
}

// mixedStream drives eng and ref through the same seeded mix of address
// space switches, unaligned reads and writes, copies (including the empty
// one) and region fetches, calling check after each call.
func mixedStream(eng *Engine, ref *refEngine, seed uint64, calls int, check func(call, op int)) {
	rng := rand.New(rand.NewPCG(seed, uint64(ref.cfg.TLBEntries)))
	regions := []string{"alpha", "beta", "gamma"}
	for i := 0; i < calls; i++ {
		op := rng.IntN(8)
		switch op {
		case 0:
			next := rng.Uint64N(4)
			eng.SwitchAddressSpace(next)
			if next != ref.asid {
				ref.asid = next
				ref.tl.flush()
				ref.ctr.Switches++
				ref.charge(ProfSwitch, ref.cfg.SwitchCycles, 0, 0)
			}
		case 1: // unaligned, up to a few pages
			addr, size := rng.Uint64N(1<<22), 1+rng.Uint64N(9000)
			eng.Read(addr, size)
			ref.lines(ref.dc, ProfDMiss, addr, addr+size)
		case 2:
			addr, size := rng.Uint64N(1<<22), rng.Uint64N(70)
			eng.Write(addr, size)
			if size > 0 {
				ref.lines(ref.dc, ProfDMiss, addr, addr+size)
			}
		case 3: // both streams, including the empty copy
			src, dst, n := rng.Uint64N(1<<22), rng.Uint64N(1<<22), rng.Uint64N(6000)
			eng.Copy(src, dst, n)
			ref.instr(8 + n/4)
			ref.lines(ref.dc, ProfDMiss, src, src+n)
			ref.lines(ref.dc, ProfDMiss, dst, dst+n)
		default:
			r := Region{Name: regions[rng.IntN(len(regions))], Base: rng.Uint64N(1<<20) &^ 31, Size: 4 * (1 + rng.Uint64N(1200))}
			r.Instr = r.Size / 4
			eng.Exec(r)
			ref.region = r.Name
			ref.instr(r.Instr)
			ref.lines(ref.ic, ProfIMiss, r.Base, r.Base+r.Size)
		}
		check(i, op)
	}
}

// engineConfigs are the geometries the engine is checked on: the paper's
// machine, one with a two-entry TLB and a small D-cache so evictions
// dominate, and one with 4-way caches whose cache pages are smaller than
// a TLB page, so touch's runs take the general set loop a piece at a time.
func engineConfigs() []Config {
	small := Pentium133()
	small.TLBEntries = 2
	small.DCache.Sets = 32
	four := Pentium133()
	four.TLBEntries = 8
	four.ICache = CacheConfig{Sets: 64, Ways: 4, LineSize: 32}
	four.DCache = CacheConfig{Sets: 16, Ways: 4, LineSize: 32}
	return []Config{Pentium133(), small, four}
}

// cfgName tells engineConfigs apart in failure messages.
func cfgName(cfg Config) string {
	return fmt.Sprintf("TLBEntries=%d/ways=%d", cfg.TLBEntries, cfg.ICache.Ways)
}

// TestEngineMatchesReference drives whole engines — the recency-ordered
// structures and the page-run loop behind Exec/Read/Write/Copy/
// SwitchAddressSpace — against the reference models walked one line at a
// time, the way the engine used to, and requires the same counters after
// every call and the same resident lines in the same order at the end.
func TestEngineMatchesReference(t *testing.T) {
	for _, cfg := range engineConfigs() {
		eng, ref := NewEngine(cfg), newRefEngine(cfg)
		mixedStream(eng, ref, 7, 60000, func(i, op int) {
			if got, want := eng.Counters(), ref.ctr; got != want {
				t.Fatalf("%s, call %d (op %d): engine %v i$=%d d$=%d tlb=%d sw=%d, reference %v i$=%d d$=%d tlb=%d sw=%d",
					cfgName(cfg), i, op, got, got.ICacheMisses, got.DCacheMisses, got.TLBMisses, got.Switches,
					want, want.ICacheMisses, want.DCacheMisses, want.TLBMisses, want.Switches)
			}
		})
		what := cfgName(cfg)
		sameTLB(t, what+" TLB", eng.tlb, ref.tl)
		sameSets(t, what+" I-cache", eng.icache, ref.ic)
		sameSets(t, what+" D-cache", eng.dcache, ref.dc)
	}
}

// TestProfSinkMatchesReference: a page run's misses are charged to the
// counters at once, but an attached sink still receives one charge per
// miss, in the per-line order — the run's TLB miss, then its line misses
// — so every profile cell and charge count stays what it was.
func TestProfSinkMatchesReference(t *testing.T) {
	for _, cfg := range engineConfigs() {
		eng, ref := NewEngine(cfg), newRefEngine(cfg)
		sink := &recSink{}
		eng.SetProfSink(sink)
		var charges int
		mixedStream(eng, ref, 11, 20000, func(i, op int) {
			if !slices.Equal(sink.got, ref.charges) {
				t.Fatalf("%s, call %d (op %d): sink got %d charges %v,\nreference %d charges %v",
					cfgName(cfg), i, op, len(sink.got), sink.got, len(ref.charges), ref.charges)
			}
			charges += len(sink.got)
			sink.got, ref.charges = sink.got[:0], ref.charges[:0]
		})
		if charges == 0 {
			t.Fatalf("%s: no charges delivered", cfgName(cfg))
		}
	}
}

// TestStoreRowsMatchesRowLoop: StoreRows is the loop it replaces — a
// Write of each row and then its Instr — taken under one lock.  Over
// seeded geometries (rows from just below a page, widths crossing lines,
// strides of a row, a framebuffer line and more than a page, the
// small-TLB configs), with address-space switches and region fetches
// between them, it must leave the same counters after every call, hand a
// sink the same charges in the same order, credit a Complex binding the
// same cycles and leave the same lines and pages resident.
func TestStoreRowsMatchesRowLoop(t *testing.T) {
	for _, cfg := range engineConfigs() {
		for _, bound := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/bound=%v", cfgName(cfg), bound), func(t *testing.T) {
				got, want := NewEngine(cfg), NewEngine(cfg)
				gotEng, wantEng := got, want
				var gb, wb Binding
				if bound { // charge through routers into engine 1 of each
					gx, wx := NewComplex(cfg, 2), NewComplex(cfg, 2)
					got, want = gx.Router(), wx.Router()
					gotEng, wantEng = gx.Engines()[1], wx.Engines()[1]
					defer gx.Bind(&gb, gotEng)()
					defer wx.Bind(&wb, wantEng)()
				}
				gs, ws := &recSink{}, &recSink{}
				gotEng.SetProfSink(gs)
				wantEng.SetProfSink(ws)
				rng := rand.New(rand.NewPCG(uint64(cfg.TLBEntries)+1, 5))
				page := cfg.PageSize
				for i := 0; i < 4000; i++ {
					switch rng.IntN(6) {
					case 0:
						asid := rng.Uint64N(3)
						got.SwitchAddressSpace(asid)
						want.SwitchAddressSpace(asid)
					case 1:
						r := Region{Name: fmt.Sprint("r", rng.IntN(3)), Base: rng.Uint64N(1<<20) &^ 31, Size: 4 * (1 + rng.Uint64N(600))}
						r.Instr = r.Size / 4
						got.Exec(r)
						want.Exec(r)
					}
					addr := rng.Uint64N(1 << 22)
					if rng.IntN(2) == 0 {
						addr = (addr/page+1)*page - rng.Uint64N(64) - 1
					}
					width := rng.Uint64N(300)
					stride := []uint64{width, 640, page + rng.Uint64N(3*page), 32 * rng.Uint64N(8)}[rng.IntN(4)]
					rows, per := rng.IntN(40), width/4
					if rng.IntN(4) == 0 {
						per = rng.Uint64N(100)
					}
					got.StoreRows(addr, width, stride, rows, per)
					for r := range rows {
						want.Write(addr+uint64(r)*stride, width)
						want.Instr(per)
					}
					if g, w := gotEng.rawCounters(), wantEng.rawCounters(); g != w {
						t.Fatalf("call %d (%d rows of %d bytes at %#x, stride %d): StoreRows %v, row loop %v",
							i, rows, width, addr, stride, g, w)
					}
					if r := got.rawCounters(); bound && r != (Counters{}) {
						t.Fatalf("call %d: StoreRows charged the router, not the bound engine: %v", i, r)
					}
					if gb.Cycles() != wb.Cycles() {
						t.Fatalf("call %d: binding credited %d cycles, row loop's %d", i, gb.Cycles(), wb.Cycles())
					}
					if !slices.Equal(gs.got, ws.got) {
						t.Fatalf("call %d: sink got %d charges %v,\nrow loop %d charges %v", i, len(gs.got), gs.got, len(ws.got), ws.got)
					}
					gs.got, ws.got = gs.got[:0], ws.got[:0]
				}
				c := gotEng.rawCounters()
				if c.DCacheMisses == 0 || c.TLBMisses == 0 || bound && gb.Cycles() == 0 {
					t.Fatalf("degenerate stream: %v, binding %d cycles", c, gb.Cycles())
				}
				if !slices.Equal(gotEng.dcache.tags, wantEng.dcache.tags) || !slices.Equal(gotEng.tlb.pages, wantEng.tlb.pages) {
					t.Fatal("StoreRows left different lines or pages resident than the row loop")
				}
			})
		}
	}
}

// BenchmarkTouch times the engine's inner loop — TLB lookup, cache sets,
// miss charges — with no system booted around it: accessGen's seeded
// stream taken through Exec (the I-cache), Read and Copy (the D-cache),
// and from the same addresses through StoreRows in a framebuffer fill's
// shape (36 rows of 24 bytes, 640 apart), one sub-benchmark each on an
// engine of its own, reported per line touched.  Code fetch and data traffic reward different set
// representations, so a change that trades one for the other shows as
// one sub-benchmark gaining and another losing.  The loop is sensitive to
// code alignment, so compare runs of it with benchstat rather than by eye.
func BenchmarkTouch(b *testing.B) {
	type call struct{ a, c, n uint64 }
	gen := &accessGen{rng: rand.New(rand.NewPCG(1, 2))}
	calls := make([]call, 4096)
	for i := range calls {
		calls[i] = call{a: gen.next(), c: gen.next(), n: 4 + gen.rng.Uint64N(2048)}
	}
	span := func(a, n uint64) uint64 { return (a+n-1)/32 - a/32 + 1 }
	for _, bc := range []struct {
		name  string
		lines func(c call) uint64
		touch func(e *Engine, c call)
	}{
		{"exec", func(c call) uint64 { return span(c.a&^31, c.n) }, func(e *Engine, c call) {
			e.Exec(Region{Name: "bench", Base: c.a &^ 31, Size: c.n, Instr: c.n / 4})
		}},
		{"read", func(c call) uint64 { return span(c.a, c.n) }, func(e *Engine, c call) { e.Read(c.a, c.n) }},
		{"copy", func(c call) uint64 { return span(c.a, c.n) + span(c.c, c.n) }, func(e *Engine, c call) { e.Copy(c.a, c.c, c.n) }},
		{"rows", func(c call) (n uint64) {
			for r := range uint64(36) {
				n += span(c.a+r*640, 24)
			}
			return n
		}, func(e *Engine, c call) { e.StoreRows(c.a, 24, 640, 36, 6) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var lines uint64
			for _, c := range calls {
				lines += bc.lines(c)
			}
			eng := NewEngine(Pentium133())
			b.ResetTimer()
			for range b.N {
				for _, c := range calls {
					bc.touch(eng, c)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(lines*uint64(b.N)), "ns/line")
		})
	}
}
