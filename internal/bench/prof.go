package bench

// E-PROF: explain Table 2's CPI with the exact profiler.
//
// Table 2 shows the 32-byte RPC retiring 2.8x the trap's instructions but
// costing 5.3x its cycles — CPI 3.9 against 2.0 — and the paper attributes
// the blow-up "largely to I-cache misses": the RPC path walks far more
// code (client stub, kernel send, server stub, reply) through caches it
// shares with everything else, where the trap's short path stays resident.
// kstat's E-CTR derived the ratios from counters; E-PROF goes one level
// deeper and *decomposes* them.  It profiles exactly one RPC and exactly
// one trap with kprof attached, checks the per-region cycle ledger sums to
// the direct counter measurements cycle-for-cycle (the profiler's
// exactness contract), and splits the RPC-minus-trap cycle gap by stall
// kind — turning the paper's prose attribution into a gated number: the
// I-cache refill share must be the single largest component of the gap.
//
// The single-op bracket is deterministic: every charge of an RPC happens
// before the server's reply commit or in the client's resume path, both
// inside the bracket, and the idle server loop charges nothing between
// replying and blocking in the next receive.

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/kprof"
)

// OpProfile is the exact profile of one operation.
type OpProfile struct {
	Name     string
	Counters cpu.Counters  // bracketed counter delta of the single op
	Profile  kprof.Profile // kprof attribution of the same window
	ByKind   [cpu.NumProfKinds]uint64
	Exact    bool // profile totals == counter delta, cycle-for-cycle
}

// ProfResult is the E-PROF experiment outcome.
type ProfResult struct {
	RPC  OpProfile
	Trap OpProfile

	// GapCycles is the RPC-minus-trap cycle difference; GapByKind splits
	// it by stall kind (signed: a kind can in principle shrink).
	GapCycles int64
	GapByKind [cpu.NumProfKinds]int64

	// Largest is the stall kind contributing the most gap cycles, and
	// LargestShare its fraction of the gap.  The paper's claim is that
	// this is the I-cache ("largely to I-cache misses").
	Largest      cpu.ProfKind
	LargestShare float64
	IMissShare   float64
}

// EPROF builds the Table 2 rig (echo server, 32-byte messages, warmed
// caches), then profiles exactly one RPC and one thread_self trap.
func EPROF() (ProfResult, error) {
	r, err := newRig(false, echoBody)
	if err != nil {
		return ProfResult{}, err
	}
	p := kprof.Attach(r.k.CPU)
	defer kprof.Detach(r.k.CPU)

	// Warm each path to Table 2's steady state, then profile one call.
	res := ProfResult{}
	if res.RPC, err = profileOne(p, r.k.CPU, "rpc32", r.rpc32); err != nil {
		return ProfResult{}, err
	}
	if res.Trap, err = profileOne(p, r.k.CPU, "thread_self", r.trap); err != nil {
		return ProfResult{}, err
	}

	res.GapCycles = int64(res.RPC.Counters.Cycles) - int64(res.Trap.Counters.Cycles)
	for kind := cpu.ProfKind(0); kind < cpu.NumProfKinds; kind++ {
		res.GapByKind[kind] = int64(res.RPC.ByKind[kind]) - int64(res.Trap.ByKind[kind])
		if res.GapByKind[kind] > res.GapByKind[res.Largest] {
			res.Largest = kind
		}
	}
	if res.GapCycles != 0 {
		res.LargestShare = float64(res.GapByKind[res.Largest]) / float64(res.GapCycles)
		res.IMissShare = float64(res.GapByKind[cpu.ProfIMiss]) / float64(res.GapCycles)
	}
	return res, nil
}

// profileOne warms op as Table 2 does, then brackets a single call of it
// with an exclusive attribution window and the engine's counters, and
// checks the two agree exactly.
func profileOne(p *kprof.Profiler, eng *cpu.Engine, name string, op func() error) (OpProfile, error) {
	d, err := bracket(eng, table2Warm, 1, op, func() func() {
		p.Reset()
		p.Enable()
		return p.Disable
	})
	if err != nil {
		return OpProfile{}, fmt.Errorf("%s: %w", name, err)
	}
	prof := p.Snapshot()
	out := OpProfile{Name: name, Counters: d, Profile: prof}
	for kind := cpu.ProfKind(0); kind < cpu.NumProfKinds; kind++ {
		out.ByKind[kind] = prof.KindCycles(kind)
	}
	cyc, bus, instr := prof.Totals()
	out.Exact = cyc == d.Cycles && bus == d.BusCycles && instr == d.Instructions
	return out, nil
}
