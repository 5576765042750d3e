package kprof

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kstat"
)

// rig builds an engine with an attached, enabled profiler and two placed
// code regions.
func rig(t *testing.T) (*cpu.Engine, *Profiler, cpu.Region, cpu.Region) {
	t.Helper()
	eng := cpu.NewEngine(cpu.Pentium133())
	l := cpu.NewLayout(0x10_0000)
	ra := l.PlaceInstr("alpha", 400)
	rb := l.PlaceInstr("beta", 700)
	p := Attach(eng)
	t.Cleanup(func() { Detach(eng) })
	p.Enable()
	return eng, p, ra, rb
}

// TestExactAttribution is the package-level exactness contract: the sum of
// every profile cell equals the engine's counter deltas cycle-for-cycle,
// and each stall kind's cycles equal the corresponding counter's cost.
func TestExactAttribution(t *testing.T) {
	eng, p, ra, rb := rig(t)
	cfg := eng.Config()

	base := eng.Counters()
	eng.ExecN(ra, 3)
	eng.ExecN(rb, 2)
	eng.Read(0x9000_0000, 256)
	eng.Write(0x9000_2000, 64)
	eng.SwitchAddressSpace(7)
	eng.Exec(ra)
	eng.Stall(230)
	eng.Overhead(10, 4)
	eng.Instr(55)
	d := eng.Counters().Sub(base)

	prof := p.Snapshot()
	cycles, bus, instr := prof.Totals()
	if cycles != d.Cycles || bus != d.BusCycles || instr != d.Instructions {
		t.Fatalf("profile totals (%d cyc, %d bus, %d instr) != counter deltas (%d, %d, %d)",
			cycles, bus, instr, d.Cycles, d.BusCycles, d.Instructions)
	}

	// Per-kind exactness against the model's cost constants.
	if got, want := prof.KindCycles(cpu.ProfIMiss), d.ICacheMisses*cfg.MissLatency; got != want {
		t.Errorf("imiss cycles = %d, want %d (%d misses x %d)", got, want, d.ICacheMisses, cfg.MissLatency)
	}
	if got, want := prof.KindCycles(cpu.ProfDMiss), d.DCacheMisses*cfg.MissLatency; got != want {
		t.Errorf("dmiss cycles = %d, want %d", got, want)
	}
	if got, want := prof.KindCycles(cpu.ProfTLB), d.TLBMisses*cfg.TLBMissCycles; got != want {
		t.Errorf("tlb cycles = %d, want %d", got, want)
	}
	if got, want := prof.KindCycles(cpu.ProfSwitch), d.Switches*cfg.SwitchCycles; got != want {
		t.Errorf("switch cycles = %d, want %d", got, want)
	}
	if got, want := prof.KindCycles(cpu.ProfStall), uint64(230+10); got != want {
		t.Errorf("stall cycles = %d, want %d", got, want)
	}
	// Base is the remainder — everything not claimed by a stall kind.
	claimed := prof.KindCycles(cpu.ProfIMiss) + prof.KindCycles(cpu.ProfDMiss) +
		prof.KindCycles(cpu.ProfTLB) + prof.KindCycles(cpu.ProfSwitch) + prof.KindCycles(cpu.ProfStall)
	if got, want := prof.KindCycles(cpu.ProfBase), d.Cycles-claimed; got != want {
		t.Errorf("base cycles = %d, want %d", got, want)
	}

	// Region attribution: both regions appear, and the hottest rows carry
	// real instruction counts.
	regions := prof.ByRegion()
	seen := map[string]bool{}
	for _, a := range regions {
		seen[a.Name] = true
	}
	if !seen["alpha"] || !seen["beta"] {
		t.Fatalf("regions missing from profile: %v", regions)
	}
}

// TestObservationOnly checks the attach/detach invariance directly at the
// engine level: the same instruction stream charges identical cycles with
// the profiler attached or not.
func TestObservationOnly(t *testing.T) {
	run := func(attach bool) cpu.Counters {
		eng := cpu.NewEngine(cpu.Pentium133())
		l := cpu.NewLayout(0x10_0000)
		ra := l.PlaceInstr("alpha", 400)
		rb := l.PlaceInstr("beta", 700)
		if attach {
			p := Attach(eng)
			defer Detach(eng)
			p.Enable()
		}
		eng.ExecN(ra, 10)
		eng.SwitchAddressSpace(3)
		eng.ExecN(rb, 10)
		eng.Read(0x9000_0000, 4096)
		eng.Stall(500)
		return eng.Counters()
	}
	with, without := run(true), run(false)
	if with != without {
		t.Fatalf("profiler perturbed the model: with=%+v without=%+v", with, without)
	}
}

// open opens a record carrying a profile frame on eng.
func open(eng *cpu.Engine, typ cpu.EventType, name string, arg uint64) *cpu.Span {
	return eng.Planes().Open(cpu.Event{Type: typ, Subsystem: "trap", Name: name, Arg: arg}, nil)
}

// TestContextStack verifies cycles are attributed under the frames of the
// open records, and that closing a record out of order takes exactly its
// own frame off the stack.
func TestContextStack(t *testing.T) {
	eng, p, ra, _ := rig(t)

	rpc := open(eng, cpu.EvRPC, "vfs", 0)
	serve := open(eng, cpu.EvRPCServe, "serve:fs", 0x0201)
	eng.Exec(ra)
	serve.End()
	eng.Exec(ra)
	rpc.End()
	eng.Exec(ra)

	prof := p.Snapshot()
	var deep, mid, top bool
	for _, s := range prof.Samples {
		switch strings.Join(s.Stack, ";") {
		case "rpc:vfs;serve:fs;op:0x0201":
			deep = true
		case "rpc:vfs":
			mid = true
		case "":
			top = true
		}
	}
	if !deep || !mid || !top {
		t.Fatalf("missing context levels (deep=%v mid=%v top=%v): %+v", deep, mid, top, prof.Samples)
	}

	outer := open(eng, cpu.EvRPC, "fs", 0)
	inner := open(eng, cpu.EvKernel, "region_map", 0)
	outer.End()
	if ctx := eng.ProfContext(); ctx != "trap:region_map" {
		t.Fatalf("context after the outer record closed first = %q, want the inner frame alone", ctx)
	}
	inner.End()
	if ctx := eng.ProfContext(); ctx != "" {
		t.Fatalf("context with nothing open = %q", ctx)
	}
}

// TestWindows checks enable/disable/reset window semantics.
func TestWindows(t *testing.T) {
	eng, p, ra, _ := rig(t)

	eng.Exec(ra)
	if c, _, _ := p.Snapshot().Totals(); c == 0 {
		t.Fatal("enabled window attributed nothing")
	}

	p.Disable()
	before, _, _ := p.Snapshot().Totals()
	eng.Exec(ra)
	if after, _, _ := p.Snapshot().Totals(); after != before {
		t.Fatalf("disabled window attributed cycles: %d -> %d", before, after)
	}

	p.Reset()
	if n := len(p.Snapshot().Samples); n != 0 {
		t.Fatalf("reset left %d samples", n)
	}
	p.Enable()
	base := eng.Counters()
	eng.Exec(ra)
	d := eng.Counters().Sub(base)
	if c, _, _ := p.Snapshot().Totals(); c != d.Cycles {
		t.Fatalf("window after reset = %d cycles, want %d", c, d.Cycles)
	}
}

// TestFoldedAndJSON checks the folded-stack exporter's line format and the
// JSON round trip.
func TestFoldedAndJSON(t *testing.T) {
	eng, p, ra, _ := rig(t)
	rpc := open(eng, cpu.EvRPC, "vfs", 0)
	eng.Exec(ra)
	rpc.End()
	prof := p.Snapshot()

	var folded bytes.Buffer
	if err := prof.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(folded.String()), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("folded line %q: want 'stack count'", line)
		}
		if strings.HasPrefix(fields[0], "rpc:vfs;alpha;") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no rpc:vfs;alpha;<kind> line in folded output:\n%s", folded.String())
	}

	js, err := json.Marshal(prof)
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Samples) != len(prof.Samples) {
		t.Fatalf("JSON round trip: %d samples, want %d", len(back.Samples), len(prof.Samples))
	}
	c0, b0, i0 := prof.Totals()
	c1, b1, i1 := back.Totals()
	if c0 != c1 || b0 != b1 || i0 != i1 {
		t.Fatalf("JSON round trip changed totals")
	}
}

// TestSelfMetrics checks that the engine's kstat Set reads the kprof.*
// families from the profiler itself, with no Snapshot in between:
// kprof.charges stays monotone across a detach and a re-attach, and
// kprof.cells and kprof.enabled read 0 once the profiler is detached.
func TestSelfMetrics(t *testing.T) {
	eng, _, ra, _ := rig(t)
	Detach(eng)
	st := kstat.Attach(eng)
	defer kstat.Detach(eng)
	p := Attach(eng)
	p.Enable()

	eng.Exec(ra)
	snap := st.Snapshot()
	charges := snap.Counters["kprof.charges"]
	if charges == 0 {
		t.Error("kprof.charges does not read the profiler")
	}
	if snap.Gauges["kprof.cells"] == 0 {
		t.Error("kprof.cells does not read the profiler")
	}
	if snap.Gauges["kprof.enabled"] != 1 {
		t.Error("kprof.enabled != 1 while enabled")
	}
	p.Disable()
	if st.Snapshot().Gauges["kprof.enabled"] != 0 {
		t.Error("kprof.enabled != 0 while disabled")
	}

	Detach(eng)
	snap = st.Snapshot()
	if c, g := snap.Gauges["kprof.cells"], snap.Gauges["kprof.enabled"]; c != 0 || g != 0 {
		t.Errorf("detached profiler reads kprof.cells = %d, kprof.enabled = %d, want 0 and 0", c, g)
	}
	if got := snap.Counters["kprof.charges"]; got != charges {
		t.Errorf("kprof.charges = %d after detach, want %d", got, charges)
	}
	Attach(eng).Enable()
	eng.Exec(ra)
	snap = st.Snapshot()
	if got := snap.Counters["kprof.charges"]; got <= charges {
		t.Errorf("kprof.charges = %d after a re-attach and more charges, want more than %d", got, charges)
	}
	if snap.Gauges["kprof.enabled"] != 1 {
		t.Error("re-attached profiler's kprof.enabled != 1")
	}
}

// TestConcurrent exercises charges, framed records and snapshots from several
// goroutines at once; the race detector is the assertion.
func TestConcurrent(t *testing.T) {
	eng, p, ra, rb := rig(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				rec := open(eng, cpu.EvRPC, "worker", 0)
				if i%2 == 0 {
					eng.Exec(ra)
				} else {
					eng.Exec(rb)
				}
				rec.End()
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			p.Snapshot()
		}
	}()
	wg.Wait()

	// Totals stay exact even though contexts interleaved.
	d := eng.Counters()
	if c, _, _ := p.Snapshot().Totals(); c != d.Cycles {
		t.Fatalf("concurrent totals = %d cycles, want %d", c, d.Cycles)
	}
}

// TestAttachIdempotent checks Attach returns the existing profiler.
func TestAttachIdempotent(t *testing.T) {
	eng := cpu.NewEngine(cpu.Pentium133())
	p1 := Attach(eng)
	p2 := Attach(eng)
	defer Detach(eng)
	if p1 != p2 {
		t.Fatal("Attach created a second profiler for the same engine")
	}
}
