package cpu

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCacheHitAfterFill(t *testing.T) {
	c := newCache(CacheConfig{Sets: 4, Ways: 2, LineSize: 32})
	if c.access(0x1000) {
		t.Fatal("cold cache should miss")
	}
	if !c.access(0x1000) {
		t.Fatal("second access should hit")
	}
	if !c.access(0x101f) {
		t.Fatal("same line should hit")
	}
	if c.access(0x1020) {
		t.Fatal("next line should miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 4 sets * 32B lines: addresses 0, 128, 256 map to set 0.
	c := newCache(CacheConfig{Sets: 4, Ways: 2, LineSize: 32})
	c.access(0)
	c.access(128)
	c.access(0) // make 128 the LRU
	c.access(256)
	if !c.access(0) {
		t.Fatal("0 should have survived (MRU)")
	}
	if c.access(128) {
		t.Fatal("128 should have been evicted (LRU)")
	}
}

func TestCacheFlush(t *testing.T) {
	c := newCache(CacheConfig{Sets: 4, Ways: 2, LineSize: 32})
	c.access(0x40)
	c.flush()
	if c.access(0x40) {
		t.Fatal("flushed cache must miss")
	}
}

// TestNewEngineRejectsNonPow2Geometry: the caches index by shift and
// mask and touch walks lines from addr &^ (LineSize-1), so any other
// geometry is refused up front, with the offending field named.  A zero
// PageSize is refused the same way rather than dividing by zero at the
// first charge.
func TestNewEngineRejectsNonPow2Geometry(t *testing.T) {
	for _, tc := range []struct {
		field string
		mod   func(*Config)
	}{
		{"ICache.Sets", func(c *Config) { c.ICache.Sets = 96 }},
		{"DCache.Sets", func(c *Config) { c.DCache.Sets = 0 }},
		{"ICache.LineSize", func(c *Config) { c.ICache.LineSize = 48 }},
		{"DCache.LineSize", func(c *Config) { c.DCache.LineSize = 24 }},
		{"PageSize", func(c *Config) { c.PageSize = 0 }},
	} {
		cfg := Pentium133()
		tc.mod(&cfg)
		func() {
			defer func() {
				r := recover()
				err, ok := r.(error)
				if !ok || !strings.Contains(err.Error(), tc.field) {
					t.Errorf("NewEngine with a bad %s: recovered %v, want a panic naming the field", tc.field, r)
				}
			}()
			NewEngine(cfg)
		}()
	}
	if err := Pentium133().Validate(); err != nil {
		t.Fatalf("Pentium133 rejected: %v", err)
	}
}

func TestTLBLRU(t *testing.T) {
	tb := newTLB(2, 4096)
	tb.access(0)
	tb.access(4096)
	tb.access(0)
	tb.access(8192) // evicts page 1
	if !tb.access(0) {
		t.Fatal("page 0 should hit")
	}
	if tb.access(4096) {
		t.Fatal("page 1 should have been evicted")
	}
}

func TestLayoutNonOverlapping(t *testing.T) {
	l := NewLayout(0x100000)
	a := l.Place("a", 100)
	b := l.Place("b", 200)
	if a.Base+a.Size > b.Base {
		t.Fatalf("regions overlap: %+v %+v", a, b)
	}
	if a.Base%32 != 0 || b.Base%32 != 0 {
		t.Fatal("regions must be 32-byte aligned")
	}
	if a.Instr != 25 {
		t.Fatalf("instr = %d, want 25", a.Instr)
	}
}

func TestEngineExecCounts(t *testing.T) {
	cfg := Pentium133()
	e := NewEngine(cfg)
	l := NewLayout(0)
	r := l.PlaceInstr("path", 100)
	e.Exec(r)
	c := e.Counters()
	if c.Instructions != 100 {
		t.Fatalf("instructions = %d, want 100", c.Instructions)
	}
	if c.ICacheMisses == 0 {
		t.Fatal("cold exec must miss the I-cache")
	}
	warmBase := c
	e.Exec(r)
	d := e.Counters().Sub(warmBase)
	if d.ICacheMisses != 0 {
		t.Fatalf("warm exec missed %d times", d.ICacheMisses)
	}
	if d.Cycles >= warmBase.Cycles {
		t.Fatal("warm exec should be cheaper than cold exec")
	}
}

func TestEngineBaseCPIFraction(t *testing.T) {
	cfg := Pentium133()
	cfg.BaseCPI100 = 150
	e := NewEngine(cfg)
	e.Instr(1)
	e.Instr(1)
	c := e.Counters()
	// 2 instructions at 1.5 CPI = exactly 3 cycles.
	if c.Cycles != 3 {
		t.Fatalf("cycles = %d, want 3", c.Cycles)
	}
}

// TestCountersCarryNoRemainder: a counter snapshot is its exported fields
// alone, so subtracting nothing from it, or comparing it with a copy
// rebuilt by Sub, gives it back even while a CPI remainder is pending; and
// Reset drops the remainder with the counters.
func TestCountersCarryNoRemainder(t *testing.T) {
	e := NewEngine(Pentium133()) // BaseCPI100 130: one instruction leaves 30 hundredths
	e.Instr(1)
	if c := e.Counters(); c != c.Sub(Counters{}) {
		t.Fatalf("Counters() = %+v, Counters().Sub(zero) = %+v", c, c.Sub(Counters{}))
	}
	e.Reset()
	e.Instr(1)
	if c := e.Counters().Cycles; c != 1 {
		t.Fatalf("one instruction after Reset charged %d cycles, want 1", c)
	}
}

func TestWorkingSetExceedingICacheMissesEveryPass(t *testing.T) {
	cfg := Pentium133() // 8 KiB I-cache
	e := NewEngine(cfg)
	l := NewLayout(0)
	big := l.Place("big", 16*1024) // 2x the cache
	e.Exec(big)
	before := e.Counters()
	e.Exec(big)
	d := e.Counters().Sub(before)
	// With LRU and a sequential sweep 2x the cache, every line misses.
	if d.ICacheMisses < big.Size/cfg.ICache.LineSize {
		t.Fatalf("expected thrashing, got %d misses for %d lines",
			d.ICacheMisses, big.Size/cfg.ICache.LineSize)
	}
}

func TestSwitchAddressSpaceFlushesTLB(t *testing.T) {
	e := NewEngine(Pentium133())
	e.Read(0x2000, 8)
	before := e.Counters()
	e.Read(0x2000, 8)
	if d := e.Counters().Sub(before); d.TLBMisses != 0 {
		t.Fatal("warm TLB should hit")
	}
	e.SwitchAddressSpace(2)
	before = e.Counters()
	e.Read(0x2000, 8)
	if d := e.Counters().Sub(before); d.TLBMisses != 1 {
		t.Fatalf("post-switch access should TLB-miss once, got %d", d.TLBMisses)
	}
}

func TestSwitchToSameSpaceIsFree(t *testing.T) {
	e := NewEngine(Pentium133())
	e.SwitchAddressSpace(3)
	before := e.Counters()
	e.SwitchAddressSpace(3)
	if d := e.Counters().Sub(before); d.Cycles != 0 || d.Switches != 0 {
		t.Fatal("re-loading the current space must be free")
	}
}

func TestCopyChargesBothSides(t *testing.T) {
	e := NewEngine(Pentium133())
	e.Copy(0x10000, 0x20000, 1024)
	c := e.Counters()
	wantLines := uint64(2 * 1024 / 32)
	if c.DCacheMisses != wantLines {
		t.Fatalf("d-misses = %d, want %d", c.DCacheMisses, wantLines)
	}
	if c.Instructions < 1024/4 {
		t.Fatalf("copy loop should charge at least %d instructions, got %d", 1024/4, c.Instructions)
	}
}

func TestCountersSubAndCPI(t *testing.T) {
	a := Counters{Instructions: 100, Cycles: 200, BusCycles: 50}
	b := Counters{Instructions: 300, Cycles: 900, BusCycles: 80}
	d := b.Sub(a)
	if d.Instructions != 200 || d.Cycles != 700 || d.BusCycles != 30 {
		t.Fatalf("bad delta: %+v", d)
	}
	if d.CPI() != 3.5 {
		t.Fatalf("CPI = %v, want 3.5", d.CPI())
	}
	if (Counters{}).CPI() != 0 {
		t.Fatal("zero counters must have CPI 0")
	}
}

func TestExecPartial(t *testing.T) {
	e := NewEngine(Pentium133())
	l := NewLayout(0)
	r := l.PlaceInstr("p", 1000)
	e.ExecPartial(r, 1, 4)
	if got := e.Counters().Instructions; got != 250 {
		t.Fatalf("partial instructions = %d, want 250", got)
	}
	e.Reset()
	e.ExecPartial(r, 0, 4)
	if got := e.Counters().Instructions; got != 0 {
		t.Fatalf("zero partial should charge nothing, got %d", got)
	}
}

func TestStallAddsCyclesOnly(t *testing.T) {
	e := NewEngine(Pentium133())
	e.Stall(500)
	c := e.Counters()
	if c.Cycles != 500 || c.Instructions != 0 {
		t.Fatalf("stall: %+v", c)
	}
}

func TestColdStartResetsEverything(t *testing.T) {
	e := NewEngine(Pentium133())
	l := NewLayout(0)
	r := l.PlaceInstr("p", 64)
	e.Exec(r)
	e.ColdStart()
	if c := e.Counters(); c.Instructions != 0 || c.Cycles != 0 {
		t.Fatalf("counters not reset: %+v", c)
	}
	e.Exec(r)
	if c := e.Counters(); c.ICacheMisses == 0 {
		t.Fatal("caches should be cold after ColdStart")
	}
}

// Property: counters are monotone non-decreasing under any operation mix.
func TestPropertyCountersMonotone(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(Pentium133())
		l := NewLayout(0)
		regions := []Region{
			l.PlaceInstr("a", 50),
			l.PlaceInstr("b", 500),
			l.Place("c", 4096),
		}
		prev := e.Counters()
		for _, op := range ops {
			switch op % 5 {
			case 0:
				e.Exec(regions[rng.Intn(len(regions))])
			case 1:
				e.Read(uint64(rng.Intn(1<<20)), uint64(rng.Intn(256)))
			case 2:
				e.Copy(uint64(rng.Intn(1<<20)), uint64(rng.Intn(1<<20)), uint64(rng.Intn(512)))
			case 3:
				e.SwitchAddressSpace(uint64(rng.Intn(4)))
			case 4:
				e.Instr(uint64(rng.Intn(100)))
			}
			cur := e.Counters()
			if cur.Instructions < prev.Instructions || cur.Cycles < prev.Cycles || cur.BusCycles < prev.BusCycles {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: executing the same region twice from warm state is
// deterministic — identical deltas.
func TestPropertyWarmExecDeterministic(t *testing.T) {
	f := func(nInstr uint16) bool {
		n := uint64(nInstr%2000) + 1
		e := NewEngine(Pentium133())
		l := NewLayout(0)
		r := l.PlaceInstr("r", n)
		e.Exec(r) // warm
		a0 := e.Counters()
		e.Exec(r)
		d1 := e.Counters().Sub(a0)
		a1 := e.Counters()
		e.Exec(r)
		d2 := e.Counters().Sub(a1)
		return d1.Instructions == d2.Instructions && d1.ICacheMisses == d2.ICacheMisses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCountersString(t *testing.T) {
	c := Counters{Instructions: 10, Cycles: 20}
	if c.String() == "" {
		t.Fatal("String must not be empty")
	}
}

func TestConfigSizeBytes(t *testing.T) {
	cfg := Pentium133()
	if cfg.ICache.SizeBytes() != 8192 {
		t.Fatalf("I-cache size = %d, want 8192", cfg.ICache.SizeBytes())
	}
}

func TestOverheadChargesCyclesAndBusOnly(t *testing.T) {
	e := NewEngine(Pentium133())
	e.Overhead(100, 40)
	c := e.Counters()
	if c.Cycles != 100 || c.BusCycles != 40 || c.Instructions != 0 {
		t.Fatalf("overhead: %+v", c)
	}
}

func TestReadZeroBytesFree(t *testing.T) {
	e := NewEngine(Pentium133())
	e.Read(0x1000, 0)
	if c := e.Counters(); c.Cycles != 0 {
		t.Fatalf("zero-size read charged: %+v", c)
	}
}
