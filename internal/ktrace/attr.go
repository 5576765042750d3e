package ktrace

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/cpu"
)

// SpanCost is one reconstructed span with its counter deltas.
type SpanCost struct {
	Type      cpu.EventType
	Subsystem string
	Name      string
	TraceID   uint64
	SpanID    uint64
	ParentID  uint64
	// Begin/End are the bounding counter snapshots.
	Begin, End uint64 // cycles
	BeginSeq   uint64
	// Inclusive is End-Begin in each counter.
	InclInstr, InclCycles, InclBus uint64
	// Exclusive subtracts the inclusive costs of child spans, leaving
	// only cycles burned in this span's own code — the boundary-crossing
	// cost itself for RPC and driver spans.
	ExclInstr, ExclCycles, ExclBus uint64
	Children                       []*SpanCost
}

// BuildSpans pairs begin/end events into spans and computes inclusive and
// exclusive counter deltas.  Spans whose begin or end fell out of the ring
// are discarded.  The result is ordered by begin sequence.
func BuildSpans(events []cpu.Event) []*SpanCost {
	open := make(map[uint64]cpu.Event) // SpanID -> begin event
	byID := make(map[uint64]*SpanCost)
	var spans []*SpanCost
	for _, e := range events {
		switch e.Phase {
		case cpu.PhaseBegin:
			open[e.SpanID] = e
		case cpu.PhaseEnd:
			b, ok := open[e.SpanID]
			if !ok {
				continue // begin wrapped out of the ring
			}
			delete(open, e.SpanID)
			sc := &SpanCost{
				Type: e.Type, Subsystem: e.Subsystem, Name: e.Name,
				TraceID: e.TraceID, SpanID: e.SpanID, ParentID: e.ParentID,
				Begin: b.Ctr.Cycles, End: e.Ctr.Cycles, BeginSeq: b.Seq,
				InclInstr:  e.Ctr.Instructions - b.Ctr.Instructions,
				InclCycles: e.Ctr.Cycles - b.Ctr.Cycles,
				InclBus:    e.Ctr.BusCycles - b.Ctr.BusCycles,
			}
			byID[sc.SpanID] = sc
			spans = append(spans, sc)
		}
	}
	for _, sc := range spans {
		sc.ExclInstr, sc.ExclCycles, sc.ExclBus = sc.InclInstr, sc.InclCycles, sc.InclBus
		if p, ok := byID[sc.ParentID]; ok {
			p.Children = append(p.Children, sc)
		}
	}
	for _, sc := range spans {
		for _, c := range sc.Children {
			sc.ExclInstr -= min(sc.ExclInstr, c.InclInstr)
			sc.ExclCycles -= min(sc.ExclCycles, c.InclCycles)
			sc.ExclBus -= min(sc.ExclBus, c.InclBus)
		}
		sort.Slice(sc.Children, func(i, j int) bool { return sc.Children[i].BeginSeq < sc.Children[j].BeginSeq })
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].BeginSeq < spans[j].BeginSeq })
	return spans
}

// SubsystemCost aggregates exclusive costs for one subsystem.
type SubsystemCost struct {
	Subsystem string
	Spans     int
	Instr     uint64
	Cycles    uint64
	Bus       uint64
}

// CPI returns the subsystem's exclusive cycles per instruction.
func (s SubsystemCost) CPI() float64 {
	if s.Instr == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instr)
}

// Attribute sums exclusive span costs per subsystem, most expensive
// first.  Because exclusive costs subtract nested spans, the cycle totals
// partition the traced work: each simulated cycle inside any span is
// attributed to exactly one subsystem.
func Attribute(events []cpu.Event) []SubsystemCost {
	agg := make(map[string]*SubsystemCost)
	for _, sc := range BuildSpans(events) {
		a, ok := agg[sc.Subsystem]
		if !ok {
			a = &SubsystemCost{Subsystem: sc.Subsystem}
			agg[sc.Subsystem] = a
		}
		a.Spans++
		a.Instr += sc.ExclInstr
		a.Cycles += sc.ExclCycles
		a.Bus += sc.ExclBus
	}
	out := make([]SubsystemCost, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	slices.SortFunc(out, func(a, b SubsystemCost) int {
		return cmp.Or(cmp.Compare(b.Cycles, a.Cycles), cmp.Compare(a.Subsystem, b.Subsystem))
	})
	return out
}

// Roots returns the spans with no reconstructed parent — the tops of the
// causal trees (e.g. one per personality API call).
func Roots(spans []*SpanCost) []*SpanCost {
	byID := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		byID[s.SpanID] = true
	}
	var roots []*SpanCost
	for _, s := range spans {
		if !byID[s.ParentID] {
			roots = append(roots, s)
		}
	}
	return roots
}
