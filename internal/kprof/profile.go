package kprof

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/cpu"
)

// Sample is one attribution bucket of a Profile: the costs that landed in
// one (context stack, region, stall kind) key.
type Sample struct {
	Stack  []string `json:"stack,omitempty"`  // context frames, outermost first
	Region string   `json:"region"`           // code region ("" for stalls outside any region)
	Kind   string   `json:"kind"`             // base, imiss, dmiss, tlb, switch, stall, migrate
	Engine int      `json:"engine,omitempty"` // engine slot (0 on single-CPU, omitted)
	Cycles uint64   `json:"cycles"`
	Bus    uint64   `json:"bus"`
	Instr  uint64   `json:"instr"`
	Count  uint64   `json:"count"` // number of charges folded into this bucket
}

// Profile is a point-in-time snapshot of a Profiler, the wire unit of the
// monitor's profile query.  Samples are sorted by (stack, region, kind).
type Profile struct {
	Samples []Sample `json:"samples"`
}

// Totals sums the whole profile.  By the exactness contract this equals
// the engine's counter deltas over the attribution window.
func (p Profile) Totals() (cycles, bus, instr uint64) {
	for i := range p.Samples {
		cycles += p.Samples[i].Cycles
		bus += p.Samples[i].Bus
		instr += p.Samples[i].Instr
	}
	return
}

// Agg is one row of an aggregated view.
type Agg struct {
	Name   string
	Cycles uint64
	Bus    uint64
	Instr  uint64
	Count  uint64
	// ByKind splits this row's cycles by stall kind, indexed by
	// cpu.ProfKind.
	ByKind [cpu.NumProfKinds]uint64
}

// aggregate folds samples by a key function, dropping samples keyed "".
func (p Profile) aggregate(key func(*Sample) string) []Agg {
	idx := map[string]*Agg{}
	for i := range p.Samples {
		s := &p.Samples[i]
		k := key(s)
		a := idx[k]
		if a == nil {
			a = &Agg{Name: k}
			idx[k] = a
		}
		a.Cycles += s.Cycles
		a.Bus += s.Bus
		a.Instr += s.Instr
		a.Count += s.Count
		for kind := cpu.ProfKind(0); kind < cpu.NumProfKinds; kind++ {
			if s.Kind == kind.String() {
				a.ByKind[kind] += s.Cycles
			}
		}
	}
	out := make([]Agg, 0, len(idx))
	for _, a := range idx {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ByRegion rolls the profile up by code region, hottest first.
func (p Profile) ByRegion() []Agg {
	return p.aggregate(func(s *Sample) string {
		if s.Region == "" {
			return "(outside regions)"
		}
		return s.Region
	})
}

// ByKind rolls the profile up by stall kind, hottest first.
func (p Profile) ByKind() []Agg {
	return p.aggregate(func(s *Sample) string { return s.Kind })
}

// ByServer rolls the profile up by outermost context frame — the
// server/op context mach pushed ("rpc:vfs", "serve:os2", "trap:...") —
// hottest first.  Cycles charged outside any context report as "(top)".
func (p Profile) ByServer() []Agg {
	return p.aggregate(func(s *Sample) string {
		if len(s.Stack) == 0 {
			return "(top)"
		}
		return s.Stack[0]
	})
}

// KindCycles returns the cycles attributed to one stall kind across the
// whole profile.
func (p Profile) KindCycles(kind cpu.ProfKind) uint64 {
	want := kind.String()
	var sum uint64
	for i := range p.Samples {
		if p.Samples[i].Kind == want {
			sum += p.Samples[i].Cycles
		}
	}
	return sum
}

// WriteFolded writes the profile in folded-stack ("flamegraph") format:
// one line per sample, semicolon-separated frames ending in the region
// and stall kind, then a space and the cycle count — the input format of
// the standard flamegraph toolchain.
func (p Profile) WriteFolded(w io.Writer) error {
	for i := range p.Samples {
		s := &p.Samples[i]
		parts := make([]string, 0, len(s.Stack)+2)
		parts = append(parts, s.Stack...)
		region := s.Region
		if region == "" {
			region = "(outside regions)"
		}
		parts = append(parts, region, s.Kind)
		if _, err := fmt.Fprintf(w, "%s %d\n", strings.Join(parts, ";"), s.Cycles); err != nil {
			return err
		}
	}
	return nil
}
