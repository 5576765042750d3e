package cpu

import (
	"sync"
	"testing"
	"time"
)

// TestComplexUnboundRoutesToSlot0: charges issued by a goroutine with no
// binding land on engine 0, and the router's Counters() view sums every
// engine.
func TestComplexUnboundRoutesToSlot0(t *testing.T) {
	cx := NewComplex(Pentium133(), 4)
	r := cx.Router()
	if r.Slot() != 0 || r.Complex() != cx {
		t.Fatal("router must be slot 0 of its complex")
	}
	l := NewLayout(0)
	reg := l.PlaceInstr("path", 100)
	r.Exec(reg)
	if got := cx.EngineCounters(0).Instructions; got != 100 {
		t.Fatalf("engine 0 retired %d instructions, want 100", got)
	}
	for slot := 1; slot < 4; slot++ {
		if c := cx.EngineCounters(slot); c.Cycles != 0 {
			t.Fatalf("engine %d has %d cycles with nothing bound", slot, c.Cycles)
		}
	}
	if sum, tot := cx.EngineCounters(0).Cycles, r.Counters().Cycles; sum != tot {
		t.Fatalf("router view %d != engine sum %d", tot, sum)
	}
}

// TestComplexBindRoutesCharges: a bound goroutine's charges land on its
// engine; the binding nests (save/restore) and unbinding restores the
// previous target.
func TestComplexBindRoutesCharges(t *testing.T) {
	cx := NewComplex(Pentium133(), 4)
	r := cx.Router()
	l := NewLayout(0)
	reg := l.PlaceInstr("path", 100)
	done := make(chan struct{})
	go func() {
		defer close(done)
		undo2 := cx.Bind(new(Binding), cx.Engines()[2])
		r.Exec(reg)
		if got := r.CurrentSlot(); got != 2 {
			t.Errorf("CurrentSlot = %d under a slot-2 binding", got)
		}
		// Nested binding: charges move to slot 1, then back after undo.
		undo1 := cx.Bind(new(Binding), cx.Engines()[1])
		r.Instr(10)
		undo1()
		r.Instr(7)
		undo2()
	}()
	<-done
	if got := cx.EngineCounters(2).Instructions; got != 107 {
		t.Fatalf("engine 2 retired %d instructions, want 107", got)
	}
	if got := cx.EngineCounters(1).Instructions; got != 10 {
		t.Fatalf("engine 1 retired %d instructions, want 10", got)
	}
	if got := cx.EngineCounters(0).Instructions; got != 0 {
		t.Fatalf("engine 0 retired %d instructions, want 0", got)
	}
}

// TestComplexMigrateCharges: Migrate pays the configured coherence cost
// on the routed engine.
func TestComplexMigrateCharges(t *testing.T) {
	cfg := Pentium133()
	cx := NewComplex(cfg, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		undo := cx.Bind(new(Binding), cx.Engines()[1])
		cx.Router().Migrate()
		undo()
	}()
	<-done
	c := cx.EngineCounters(1)
	if c.Cycles != cfg.MigrateCycles || c.BusCycles != cfg.MigrateBus {
		t.Fatalf("migrate charged %d cycles / %d bus, want %d / %d",
			c.Cycles, c.BusCycles, cfg.MigrateCycles, cfg.MigrateBus)
	}
	if cx.EngineCounters(0).Cycles != 0 {
		t.Fatal("migrate leaked cycles onto engine 0")
	}
}

// TestComplexSingleEngineEquivalence: a plain engine and an unbound
// 4-engine complex charge identically for the same operation sequence —
// the byte-identity obligation behind CPUs=1 defaulting to NewEngine.
func TestComplexSingleEngineEquivalence(t *testing.T) {
	cfg := Pentium133()
	plain := NewEngine(cfg)
	cx := NewComplex(cfg, 4)
	l := NewLayout(0)
	reg := l.PlaceInstr("path", 300)
	drive := func(e *Engine) Counters {
		e.Exec(reg)
		e.Read(0x9000_0000, 4096)
		e.SwitchAddressSpace(7)
		e.Exec(reg)
		e.Write(0x9000_2000, 512)
		e.Stall(100)
		return e.Counters()
	}
	a, b := drive(plain), drive(cx.Router())
	if a != b {
		t.Fatalf("unbound complex diverged from plain engine:\n  plain   %+v\n  complex %+v", a, b)
	}
}

// TestComplexBindRace hammers the binding table and counters from many
// goroutines at once; under -race this is the tier-2 gate for the
// routing layer.  Afterward no cycles may be lost: per-engine sums must
// equal the router's total view.
func TestComplexBindRace(t *testing.T) {
	cx := NewComplex(Pentium133(), 4)
	r := cx.Router()
	l := NewLayout(0)
	regs := []Region{
		l.PlaceInstr("a", 120), l.PlaceInstr("b", 80),
		l.PlaceInstr("c", 200), l.PlaceInstr("d", 60),
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				undo := cx.Bind(new(Binding), cx.Engines()[(g+i)%4])
				r.Exec(regs[g%4])
				r.Read(uint64(0x9000_0000+g*8192), 256)
				if i%3 == 0 {
					r.Migrate()
				}
				undo()
			}
		}()
	}
	// Concurrent readers of the aggregate views.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			_ = r.Counters()
			_ = cx.TotalCounters()
		}
	}()
	wg.Wait()
	var sum uint64
	for slot := 0; slot < cx.Size(); slot++ {
		sum += cx.EngineCounters(slot).Cycles
	}
	if tot := r.Counters().Cycles; tot != sum {
		t.Fatalf("router total %d != per-engine sum %d", tot, sum)
	}
}

// TestBindingCountsOwnCharges: a binding counts exactly the cycles charged
// through it while another goroutine charges the same engine, whatever
// the interleaving; a nested binding takes its cycles out of the outer
// one, and the counts sum to the engine's delta.
func TestBindingCountsOwnCharges(t *testing.T) {
	cx := NewComplex(Pentium133(), 2)
	r := cx.Router()
	e1 := cx.Engines()[1]
	reg := NewLayout(0).PlaceInstr("path", 150)
	const rounds = 500
	var mine, other, inner Binding
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		undo := cx.Bind(&mine, e1)
		defer undo()
		for i := 0; i < rounds; i++ {
			r.Stall(3)
		}
		if got := mine.Cycles(); got != 3*rounds {
			t.Errorf("binding counted %d cycles, charged %d", got, 3*rounds)
		}
	}()
	go func() {
		defer wg.Done()
		undo := cx.Bind(&other, e1)
		defer undo()
		for i := 0; i < rounds; i++ {
			r.Exec(reg)
			r.Read(0x9000_0000+uint64(i)*64, 64)
			if i%50 == 0 {
				undoInner := cx.Bind(&inner, e1)
				r.Stall(11)
				if got := inner.Cycles(); got != 11 {
					t.Errorf("nested binding counted %d cycles, charged 11", got)
				}
				undoInner()
			}
		}
	}()
	wg.Wait()
	if got := mine.Cycles(); got != 3*rounds {
		t.Fatalf("binding counted %d cycles after its undo, charged %d", got, 3*rounds)
	}
	// Each cycle on e1 landed in exactly one binding; the nested ones
	// (11 each, 10 of them) in none of the outer counts.
	if sum, delta := mine.Cycles()+other.Cycles()+10*11, cx.EngineCounters(1).Cycles; sum != delta {
		t.Fatalf("bindings sum to %d cycles, engine 1 gained %d", sum, delta)
	}
}

// TestComplexBindLeavesNoRoute: a binding ends with its undo.  Goroutines
// that bind, charge, undo and exit leave nothing in the table, so fresh
// goroutines — which the runtime builds from the exited ones' recycled
// records — land every charge on slot 0; and a nested bind's undo hands
// the route back to the outer binding, not to slot 0.
func TestComplexBindLeavesNoRoute(t *testing.T) {
	cx := NewComplex(Pentium133(), 4)
	r := cx.Router()
	reg := NewLayout(0).PlaceInstr("path", 100)
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outer := cx.Engines()[1+g%3]
			undo := cx.Bind(new(Binding), outer)
			r.Exec(reg)
			undoInner := cx.Bind(new(Binding), cx.Engines()[1+(g+1)%3])
			r.Exec(reg)
			undoInner()
			if got := r.CurrentSlot(); got != outer.Slot() {
				t.Errorf("after a nested undo charges route to slot %d, want the outer binding's slot %d", got, outer.Slot())
			}
			r.Exec(reg)
			undo()
		}()
	}
	wg.Wait()
	cx.bind.Range(func(k, _ any) bool {
		t.Errorf("binding for key %v outlived its undo", k)
		return true
	})
	before := make([]Counters, cx.Size())
	for slot := range before {
		before[slot] = cx.EngineCounters(slot)
	}
	const fresh = 256
	for g := 0; g < fresh; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e := cx.BoundEngine(); e != nil {
				t.Errorf("an unbound goroutine sees slot %d", e.Slot())
			}
			if got := r.CurrentSlot(); got != 0 {
				t.Errorf("an unbound goroutine's charges route to slot %d", got)
			}
			r.Exec(reg)
		}()
	}
	wg.Wait()
	if got := cx.EngineCounters(0).Instructions - before[0].Instructions; got != fresh*100 {
		t.Fatalf("slot 0 retired %d instructions from unbound goroutines, want %d", got, fresh*100)
	}
	for slot := 1; slot < cx.Size(); slot++ {
		if c := cx.EngineCounters(slot); c != before[slot] {
			t.Fatalf("slot %d charged by unbound goroutines: %+v -> %+v", slot, before[slot], c)
		}
	}
}

// BenchmarkRoutedCharge times one Exec through a Complex's router by a
// bound goroutine against the same Exec on a standalone engine, in
// alternating blocks so a change of host speed hits both alike, and
// reports routed/standalone: what routing adds to a charge.
func BenchmarkRoutedCharge(b *testing.B) {
	reg := NewLayout(0).PlaceInstr("path", 16)
	plain := NewEngine(Pentium133())
	cx := NewComplex(Pentium133(), 2)
	undo := cx.Bind(new(Binding), cx.Engines()[1])
	defer undo()
	r := cx.Router()
	r.Exec(reg)
	plain.Exec(reg)
	const block = 1024
	var routed, standalone time.Duration
	b.ResetTimer()
	for done := 0; done < b.N; done += block {
		n := min(block, b.N-done)
		start := time.Now()
		for i := 0; i < n; i++ {
			r.Exec(reg)
		}
		mid := time.Now()
		for i := 0; i < n; i++ {
			plain.Exec(reg)
		}
		routed += mid.Sub(start)
		standalone += time.Since(mid)
	}
	b.ReportMetric(float64(routed.Nanoseconds())/float64(b.N), "routed-ns/charge")
	b.ReportMetric(float64(standalone.Nanoseconds())/float64(b.N), "standalone-ns/charge")
	b.ReportMetric(float64(routed)/float64(standalone), "routed/standalone")
}
