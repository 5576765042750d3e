// Package kprof is the exact cycle-attribution profiler — the third leg
// of the observability plane.  kstat says how many cycles, ktrace says
// which spans; kprof says **which code regions those cycles landed in and
// why**.  Because the cost model is deterministic there is no sampling:
// the profiler hooks every charge point of a cpu.Engine and attributes
// each charged cycle, exactly once, to a key of
//
//	(context stack, region, stall kind)
//
// where the stall kind is one of base (useful instruction issue), imiss
// (I-cache refill), dmiss (D-cache refill), tlb (TLB reload), switch
// (address-space switch) or stall (raw interrupt/device latency), and the
// context stack is a lightweight server/op call context pushed by the
// mach dispatch path ("rpc:<server>"), trap entries ("trap:<path>"), and
// server loops / pool workers ("serve:<task>", "op:0x....").  Summing any
// slice of the profile reproduces the engine's counter deltas
// cycle-for-cycle — the E-PROF experiment gates on that exactness.
//
// Like kstat and ktrace, kprof is observation-only: the sink reads what
// the engine charges but never charges anything itself, so modeled cycle
// counts are bit-identical with the profiler attached or detached (gated
// by TestWorkloadObservationOnly/kprof).  When detached the engine's hook
// is a nil check.
//
// Exactness contract, precisely: the *region* and *kind* dimensions are
// deterministic and exact — they are recorded under the engine lock at
// the charge site.  The *context stack* is best-effort under concurrency:
// records from concurrently running threads interleave on one stack, so
// with a multi-threaded workload a cycle can land under a neighbor's
// frame.  Under the client-blocks-on-RPC serial discipline (every Table 2
// measurement, the E-PROF rig, a single-client workload) the context is
// exact too: a serve span closes at its reply commit, before the reply
// wakes the client, so the client's resume never lands under it.
package kprof

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"repro/internal/cpu"
	"repro/internal/kstat"
)

// cellKey is one attribution bucket.
type cellKey struct {
	ctx    string // joined context stack, ";"-separated, "" at top level
	region string // code region the engine was executing
	kind   cpu.ProfKind
	engine int // engine slot the charge landed on (0 on single-CPU)
}

// cell accumulates the costs attributed to one key.
type cell struct {
	cycles, bus, instr, count uint64
}

// Profiler is an exact profiler attached to one engine.  All methods are
// safe for concurrent use.
type Profiler struct {
	eng *cpu.Engine

	mu      sync.Mutex
	enabled bool
	cells   map[cellKey]*cell

	charges uint64 // total ProfCharge calls, never reset (kprof.charges)
}

// ProfCharge implements cpu.ProfSink on every engine the profiler
// observes: each charge carries the slot it landed on.  It runs under the
// engine lock at every charge site; it must not take an engine lock or
// charge costs (the context it reads is one atomic load).
func (p *Profiler) ProfCharge(slot int, region string, kind cpu.ProfKind, cycles, bus, instr uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.charges++
	if !p.enabled {
		return
	}
	k := cellKey{ctx: p.eng.ProfContext(), region: region, kind: kind, engine: slot}
	c := p.cells[k]
	if c == nil {
		c = &cell{}
		p.cells[k] = c
	}
	c.cycles += cycles
	c.bus += bus
	c.instr += instr
	c.count++
}

// Enable starts attributing charges.  Charges arriving while disabled are
// counted (the kprof.charges self-metric) but not attributed, which is
// what makes start/stop windows cheap.
func (p *Profiler) Enable() {
	p.mu.Lock()
	p.enabled = true
	p.mu.Unlock()
}

// Disable stops attributing charges; the accumulated profile is kept.
func (p *Profiler) Disable() {
	p.mu.Lock()
	p.enabled = false
	p.mu.Unlock()
}

// Reset clears the accumulated profile (the kprof.charges self-metric is
// monotonic and survives).
func (p *Profiler) Reset() {
	p.mu.Lock()
	p.cells = make(map[cellKey]*cell)
	p.mu.Unlock()
}

// Snapshot captures the profile as a stable, sorted sample list.
func (p *Profiler) Snapshot() Profile {
	p.mu.Lock()
	prof := Profile{Samples: make([]Sample, 0, len(p.cells))}
	for k, c := range p.cells {
		var stack []string
		if k.ctx != "" {
			stack = strings.Split(k.ctx, ";")
		}
		prof.Samples = append(prof.Samples, Sample{
			Stack:  stack,
			Region: k.region,
			Kind:   k.kind.String(),
			Engine: k.engine,
			Cycles: c.cycles,
			Bus:    c.bus,
			Instr:  c.instr,
			Count:  c.count,
		})
	}
	p.mu.Unlock()

	slices.SortFunc(prof.Samples, func(a, b Sample) int {
		return cmp.Or(cmp.Compare(strings.Join(a.Stack, ";"), strings.Join(b.Stack, ";")),
			cmp.Compare(a.Region, b.Region), cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Engine, b.Engine))
	})
	return prof
}

// register has the engine's Set read the profiler's own state (self).
// Its charges never go backwards, and a later profiler's add to them, so
// kprof.charges stays monotone across a detach and a re-attach.
func (p *Profiler) register(st *kstat.Set) {
	st.CounterFunc("kprof.charges", func() uint64 { c, _, _ := p.self(); return c })
	st.GaugeFunc("kprof.cells", func() int64 { _, n, _ := p.self(); return n })
	st.GaugeFunc("kprof.enabled", func() int64 { _, _, on := p.self(); return on })
}

// self reads the profiler's charge count and, while it is the engine's
// attached profiler, its cell count and whether it is enabled (both 0
// once it is detached).
func (p *Profiler) self() (charges uint64, cells, enabled int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if For(p.eng) == p {
		cells = int64(len(p.cells))
		if p.enabled {
			enabled = 1
		}
	}
	return p.charges, cells, enabled
}

// --- engine attachment -----------------------------------------------------

// Attach returns the engine's Profiler, attaching one if none is: it is
// installed as the ProfSink of every engine eng observes, so samples carry
// the engine the charge landed on, and its slot makes the open-record
// stack keep the frames.  The kstat Set attached at that moment, if any,
// reads its kprof.* families from it.  The profiler starts disabled; call
// Enable to open an attribution window.
func Attach(eng *cpu.Engine) *Profiler {
	return eng.AttachPlane(cpu.PlaneProf, func() any {
		p := &Profiler{eng: eng, cells: make(map[cellKey]*cell)}
		for _, e := range eng.Engines() {
			e.SetProfSink(p)
		}
		p.register(kstat.For(eng))
		return p
	}).(*Profiler)
}

// Detach removes the engine's profiler; charge sites revert to the nil
// fast path.
func Detach(eng *cpu.Engine) {
	eng.DetachPlane(cpu.PlaneProf, func() {
		for _, e := range eng.Engines() {
			e.SetProfSink(nil)
		}
	})
}

// For returns the engine's Profiler, or nil when profiling is detached.
func For(eng *cpu.Engine) *Profiler { return cpu.PlaneOf[*Profiler](eng.Planes(), cpu.PlaneProf) }
