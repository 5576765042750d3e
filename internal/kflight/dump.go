package kflight

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"strings"

	"repro/internal/cpu"
	"repro/internal/klat"
	"repro/internal/kprof"
	"repro/internal/kstat"
)

// EngineSnap is one engine's scheduler state (mach.EngineStats), as a
// dump carries it; empty on single-CPU kernels.
type EngineSnap struct {
	Slot       int    `json:"slot"`
	Cycles     uint64 `json:"cycles"`
	Virtual    uint64 `json:"virtual"` // latest modeled burst completion
	RunQueue   int64  `json:"runq"`
	Reserved   int64  `json:"reserved"` // in-flight burst reservations (0 when quiescent)
	Dispatches uint64 `json:"dispatches"`
	Migrations uint64 `json:"migrations"`
	Steals     uint64 `json:"steals"`
}

// EngineDump is one engine's flight ring in a dump.
type EngineDump struct {
	Slot    int         `json:"slot"`
	Emitted uint64      `json:"emitted"`
	Dropped uint64      `json:"dropped"`
	Events  []cpu.Event `json:"events"`
}

// Dump is the one snapshot of the observation planes, a postmortem and a
// monitor answer alike: why it was taken, the last-K events per engine,
// the wait-for graph with any cycles named, scheduler state, the kstat
// counter/gauge fabric (which includes the pool worker busy/workers
// gauges — the pool worker states), and the tail-latency dump and the
// profile.  A detached plane's section is absent: no engine rings, nil
// stat maps, no tail or profile.
type Dump struct {
	Reason  string         `json:"reason"`
	Engines []EngineDump   `json:"engines"`
	Waits   []WaitEdge     `json:"waits"`
	Cycles  [][]WaitEdge   `json:"cycles,omitempty"`
	Sched   []EngineSnap   `json:"sched,omitempty"`
	Stats   kstat.Snapshot `json:"stats"`
	Tail    *klat.Dump     `json:"tail,omitempty"`
	Profile *kprof.Profile `json:"profile,omitempty"`
}

// Collect assembles a dump from the plane's parts.  rec may be nil (no
// ring section); stats may be the zero snapshot.  Cycle detection runs
// here so every dump that reaches a human already names its deadlocks.
func Collect(reason string, rec *Recorder, waits []WaitEdge, sched []EngineSnap, stats kstat.Snapshot) *Dump {
	d := &Dump{Reason: reason, Waits: waits, Cycles: FindCycles(waits), Sched: sched, Stats: stats}
	if rec != nil {
		d.Engines = rec.EngineDumps()
	}
	return d
}

// TotalEvents sums the buffered events across engines.
func (d *Dump) TotalEvents() int {
	n := 0
	for _, e := range d.Engines {
		n += len(e.Events)
	}
	return n
}

// WriteText renders the human-readable postmortem: deadlock cycles first
// (the thing a hang report needs), then the wait-for graph split into
// blocked senders and parked workers, scheduler state, the busy/pending
// gauges, and the tail of each engine's flight ring.
func (d *Dump) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "kflight postmortem — %s\n", d.Reason)

	if len(d.Cycles) > 0 {
		fmt.Fprintf(w, "\nDEADLOCK: %d cycle(s) in the wait-for graph\n", len(d.Cycles))
		for i, cyc := range d.Cycles {
			fmt.Fprintf(w, "  cycle %d: %s\n", i+1, RenderCycle(cyc))
		}
	} else {
		fmt.Fprintf(w, "\nno cycles in the wait-for graph\n")
	}

	var blocked, parked []WaitEdge
	for _, e := range d.Waits {
		if e.Kind.Blocking() {
			blocked = append(blocked, e)
		} else {
			parked = append(parked, e)
		}
	}
	fmt.Fprintf(w, "\nwait-for edges (%d total, %d blocked, %d parked workers)\n",
		len(d.Waits), len(blocked), len(parked))
	for _, e := range blocked {
		fmt.Fprintf(w, "  BLOCKED %s\n", e)
	}
	for _, e := range parked {
		fmt.Fprintf(w, "  parked  %s\n", e)
	}

	if len(d.Sched) > 0 {
		fmt.Fprintf(w, "\nscheduler\n")
		for _, s := range d.Sched {
			fmt.Fprintf(w, "  e%d: cycles=%d runq=%d reserved=%d dispatches=%d migrations=%d steals=%d\n",
				s.Slot, s.Cycles, s.RunQueue, s.Reserved, s.Dispatches, s.Migrations, s.Steals)
		}
	}

	if occ := Outstanding(d.Stats); len(occ) > 0 {
		fmt.Fprintf(w, "\noutstanding work\n")
		for _, s := range occ {
			fmt.Fprintf(w, "  %s\n", s)
		}
	}

	for _, eng := range d.Engines {
		fmt.Fprintf(w, "\nengine %d: %d events buffered (%d emitted, %d dropped)\n",
			eng.Slot, len(eng.Events), eng.Emitted, eng.Dropped)
		for _, ev := range eng.Events {
			fmt.Fprintf(w, "  [%8d] %10d %-9s %-12s %s arg=%#x\n",
				ev.Seq, ev.Ctr.Cycles, ev.Type, ev.Subsystem, ev.Name, ev.Arg)
		}
	}
	return nil
}

// Outstanding lists the nonzero pool-busy and port-set-pending gauges,
// "name=level", sorted: the work a stalled system still holds.
func Outstanding(snap kstat.Snapshot) []string {
	var out []string
	for name, v := range snap.Gauges {
		if v != 0 && (strings.HasSuffix(name, ".busy") || strings.HasSuffix(name, ".pending")) {
			out = append(out, fmt.Sprintf("%s=%d", name, v))
		}
	}
	sort.Strings(out)
	return out
}

// Diff renders what changed between two dumps of the same system: counter
// deltas, gauge movements, and per-engine event-flow — the "did anything
// move between these two snapshots" question.
func Diff(w io.Writer, a, b *Dump) {
	fmt.Fprintf(w, "kflight diff — %q -> %q\n", a.Reason, b.Reason)

	moved := b.Stats.Delta(a.Stats).Counters
	maps.DeleteFunc(moved, func(_ string, v uint64) bool { return v == 0 })
	fmt.Fprintf(w, "\ncounters moved (%d)\n", len(moved))
	for _, name := range kstat.SortedKeys(moved) {
		fmt.Fprintf(w, "  %-40s %+d\n", name, int64(b.Stats.Counters[name])-int64(a.Stats.Counters[name]))
	}

	levels := maps.Clone(a.Stats.Gauges)
	maps.Copy(levels, b.Stats.Gauges)
	maps.DeleteFunc(levels, func(name string, _ int64) bool {
		v, inB := b.Stats.Gauges[name]
		return inB && v == a.Stats.Gauges[name]
	})
	names := kstat.SortedKeys(levels)
	fmt.Fprintf(w, "\ngauges moved (%d)\n", len(names))
	for _, name := range names {
		fmt.Fprintf(w, "  %-40s %d -> %d\n", name, a.Stats.Gauges[name], b.Stats.Gauges[name])
	}

	fmt.Fprintf(w, "\nevent flow\n")
	for i, eb := range b.Engines {
		var ea EngineDump
		if i < len(a.Engines) {
			ea = a.Engines[i]
		}
		fmt.Fprintf(w, "  e%d: %+d events emitted\n", eb.Slot, int64(eb.Emitted)-int64(ea.Emitted))
	}

	fmt.Fprintf(w, "\nwait edges: %d -> %d; cycles: %d -> %d\n",
		len(a.Waits), len(b.Waits), len(a.Cycles), len(b.Cycles))
}
