package cpu

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// The map TLB and slice-of-slices cache the engine used before its
// structures were flattened, kept verbatim as reference models: the flat
// versions are an optimisation of the simulator, not a change to the
// model, so they must produce the same hit/miss sequence access for
// access — which is what keeps Tables 1 and 2 bit-identical.

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
						t.Fatalf("access %d (addr %#x, %d flushes in): flat TLB hit=%v, reference hit=%v", i, a, flushes, have, want)
					}
					if want {
						hits++
					}
				}
				if ref.tick != got.tick || len(ref.pages) != len(got.pages) {
					t.Fatalf("final state: tick %d vs %d, resident %d vs %d", got.tick, ref.tick, len(got.pages), len(ref.pages))
				}
				for i, p := range got.pages {
					if ref.pages[p] != got.stamps[i] {
						t.Fatalf("page %#x: stamp %d, reference %d", p, got.stamps[i], ref.pages[p])
					}
				}
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
						t.Fatalf("access %d (addr %#x): flat cache hit=%v, reference hit=%v", i, a, have, want)
					}
					if want {
						hits++
					}
				}
				if ref.tick != got.tick {
					t.Fatalf("tick %d, reference %d", got.tick, ref.tick)
				}
				for s := range ref.tags {
					for w := range ref.tags[s] {
						if ref.tags[s][w] != got.tags[s*cfg.Ways+w] || ref.age[s][w] != got.age[s*cfg.Ways+w] {
							t.Fatalf("set %d way %d: tag/age %#x/%d, reference %#x/%d", s, w,
								got.tags[s*cfg.Ways+w], got.age[s*cfg.Ways+w], ref.tags[s][w], ref.age[s][w])
						}
					}
				}
				if hits == 0 || hits == diffAccesses {
					t.Fatalf("degenerate stream: %d hits of %d", hits, diffAccesses)
				}
			})
		}
	}
}

// TestEngineMatchesReference drives whole engines — the flat structures
// and the page-run loop behind Exec/Read/Write/Copy/SwitchAddressSpace —
// against the reference models walked one line at a time, the way the
// engine used to, and requires the same counters after every call.
func TestEngineMatchesReference(t *testing.T) {
	small := Pentium133()
	small.TLBEntries = 2
	small.DCache.Sets = 32
	for _, cfg := range []Config{Pentium133(), small} {
		eng := NewEngine(cfg)
		ic, dc, tl := newRefCache(cfg.ICache), newRefCache(cfg.DCache), newRefTLB(cfg.TLBEntries, cfg.PageSize)
		var want Counters
		lines := func(c *refCache, miss *uint64, addr, end uint64) {
			for a := addr &^ 31; a < end; a += 32 {
				if !tl.access(a) {
					want.TLBMisses++
				}
				if !c.access(a) {
					*miss++
				}
			}
		}
		rng := rand.New(rand.NewPCG(7, uint64(cfg.TLBEntries)))
		asid := uint64(0)
		for i := 0; i < 60000; i++ {
			op := rng.IntN(8)
			switch op {
			case 0:
				if next := rng.Uint64N(4); next != asid {
					asid = next
					tl.flush()
					want.Switches++
				}
				eng.SwitchAddressSpace(asid)
			case 1: // unaligned, up to a few pages
				addr, size := rng.Uint64N(1<<22), 1+rng.Uint64N(9000)
				eng.Read(addr, size)
				lines(dc, &want.DCacheMisses, addr, addr+size)
			case 2:
				addr, size := rng.Uint64N(1<<22), rng.Uint64N(70)
				eng.Write(addr, size)
				if size > 0 {
					lines(dc, &want.DCacheMisses, addr, addr+size)
				}
			case 3: // both streams, including the empty copy
				src, dst, n := rng.Uint64N(1<<22), rng.Uint64N(1<<22), rng.Uint64N(6000)
				eng.Copy(src, dst, n)
				lines(dc, &want.DCacheMisses, src, src+n)
				lines(dc, &want.DCacheMisses, dst, dst+n)
			default:
				r := Region{Base: rng.Uint64N(1<<20) &^ 31, Size: 4 * (1 + rng.Uint64N(1200))}
				r.Instr = r.Size / 4
				eng.Exec(r)
				lines(ic, &want.ICacheMisses, r.Base, r.Base+r.Size)
			}
			got := eng.Counters()
			if got.ICacheMisses != want.ICacheMisses || got.DCacheMisses != want.DCacheMisses ||
				got.TLBMisses != want.TLBMisses || got.Switches != want.Switches {
				t.Fatalf("TLBEntries=%d, call %d (op %d): engine i$=%d d$=%d tlb=%d sw=%d, reference i$=%d d$=%d tlb=%d sw=%d",
					cfg.TLBEntries, i, op, got.ICacheMisses, got.DCacheMisses, got.TLBMisses, got.Switches,
					want.ICacheMisses, want.DCacheMisses, want.TLBMisses, want.Switches)
			}
		}
		if eng.tlb.tick != tl.tick {
			t.Fatalf("TLBEntries=%d: TLB tick %d, reference %d", cfg.TLBEntries, eng.tlb.tick, tl.tick)
		}
		for i, p := range eng.tlb.pages {
			if tl.pages[p] != eng.tlb.stamps[i] {
				t.Fatalf("TLBEntries=%d: page %#x stamp %d, reference %d", cfg.TLBEntries, p, eng.tlb.stamps[i], tl.pages[p])
			}
		}
	}
}
