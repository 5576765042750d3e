package klat

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/kstat"
)

// Dump is a self-contained tail-latency snapshot: every (server, op)
// family's histograms plus the retained exemplar ledgers.  It travels
// the same three ways kflight's does: the monitor's tail view over RPC,
// `kobs tail`, and plain JSON files.
type Dump struct {
	Families []FamilyDump `json:"families"`
}

// FamilyDump is one (server, op) pair's latency distribution and its
// slowest complete request ledgers.
type FamilyDump struct {
	Server string `json:"server"`
	Op     uint32 `json:"op"`

	E2E     kstat.HistSnapshot `json:"e2e"`
	Queue   kstat.HistSnapshot `json:"queue"`
	Service kstat.HistSnapshot `json:"service"`
	Cross   kstat.HistSnapshot `json:"cross"`

	// Exemplars are the top-K root hops by end-to-end cycles, slowest
	// first, full hop tree retained.
	Exemplars []HopDump `json:"exemplars,omitempty"`
}

// HopDump is one hop of an exemplar ledger, segment cycles materialized
// from the stamps.  The invariants the tests gate on:
//
//	E2E = Send + Queue + Service + Resume   (plain hops; subs: E2E = Service)
//	Service = Own + Σ children E2E
//	Σ Components() = root E2E               (exact, no sampling error)
type HopDump struct {
	ID     uint64 `json:"id"`
	Server string `json:"server"`
	Op     uint32 `json:"op"`
	Width  int    `json:"width,omitempty"`
	Sub    bool   `json:"sub,omitempty"`
	// Failed marks a nested call that failed: its whole window is one
	// failed.<server> component.
	Failed bool `json:"failed,omitempty"`

	// Off is the hop's start offset in cycles from the root's entry —
	// the waterfall x-coordinate.
	Off uint64 `json:"off"`

	E2E     uint64 `json:"e2e"`
	Send    uint64 `json:"send"`
	Queue   uint64 `json:"queue"`
	Service uint64 `json:"service"`
	// Own is the service window minus the children's windows: cycles
	// this server spent itself, not waiting on a deeper hop.
	Own    uint64 `json:"own"`
	Resume uint64 `json:"resume"`

	// Marks are the kernel-lock waits, by lock name, made while serving
	// this hop (wait.* component rows); Notes are annotation counts (cache
	// hits, sectors) for drill-downs.
	Marks map[string]uint64 `json:"marks,omitempty"`
	Notes map[string]uint64 `json:"notes,omitempty"`

	// SchedBurst/SchedPoolWait/SchedCPUWait are the modeled schedule of
	// the hop's server burst, in virtual cycles (SMP boots only): pure
	// handler charges, wait behind the destination pool's virtual
	// capacity (the block driver's single slot is the disk arm), and
	// wait behind engine capacity.  They live OUTSIDE the wall-segment
	// partition above: on a multi-engine run the wall segments measure
	// global work during the hop's windows, so per-request queue
	// attribution must reason over these instead.
	SchedBurst    uint64 `json:"sched_burst,omitempty"`
	SchedPoolWait uint64 `json:"sched_pool_wait,omitempty"`
	SchedCPUWait  uint64 `json:"sched_cpu_wait,omitempty"`

	// Critical marks membership in the ledger's critical path: every
	// sequential hop, but only the SLOWEST sub of a vectored carrier —
	// the carrier's latency is that sub's path.
	Critical bool `json:"critical,omitempty"`

	Children []HopDump `json:"children,omitempty"`
}

// Dump snapshots the tracker.  Exemplar hops are sealed before they
// enter the reservoir, so reading them here races nothing; the family
// and reservoir locks order the snapshot against live recorders.
func (t *Tracker) Dump() *Dump {
	t.mu.Lock()
	keys := make([]famKey, 0, len(t.fams))
	fams := make([]*family, 0, len(t.fams))
	for k := range t.fams {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b famKey) int {
		return cmp.Or(cmp.Compare(a.server, b.server), cmp.Compare(a.op, b.op))
	})
	for _, k := range keys {
		fams = append(fams, t.fams[k])
	}
	t.mu.Unlock()

	d := &Dump{}
	for i, f := range fams {
		fd := FamilyDump{
			Server: keys[i].server, Op: keys[i].op,
			E2E: f.e2e.Snapshot(), Queue: f.queue.Snapshot(),
			Service: f.service.Snapshot(), Cross: f.cross.Snapshot(),
		}
		f.mu.Lock()
		exs := append([]*Hop(nil), f.exemplars...)
		f.mu.Unlock()
		sort.Slice(exs, func(a, b int) bool { return exs[a].E2E() > exs[b].E2E() })
		for _, h := range exs {
			fd.Exemplars = append(fd.Exemplars, dumpHop(h, h.stamps[h.start()].cycles.Load(), true))
		}
		d.Families = append(d.Families, fd)
	}
	return d
}

// dumpHop materializes one hop (and its subtree) into dump form.
func dumpHop(h *Hop, rootStart uint64, critical bool) HopDump {
	d := HopDump{
		ID: h.ID, Server: h.Server, Op: h.Op, Width: h.Width, Sub: h.Sub, Failed: h.failed.Load(),
		Off:      h.stamps[h.start()].cycles.Load() - rootStart,
		E2E:      h.E2E(),
		Service:  h.seg(pRecv, pServed),
		Critical: critical,
	}
	if !h.Sub {
		d.Send = h.seg(pEntry, pSend)
		d.Queue = h.seg(pSend, pRecv)
		d.Resume = h.seg(pServed, pReturn)
	}
	h.mu.Lock()
	children := append([]*Hop(nil), h.children...)
	d.SchedBurst = h.schedBurst
	d.SchedPoolWait = h.schedPoolWait
	d.SchedCPUWait = h.schedCPUWait
	d.Marks, d.Notes = maps.Clone(h.marks), maps.Clone(h.notes)
	h.mu.Unlock()

	// Critical-path reduction: sequential children (nested calls) are
	// all on the path, but a carrier's subs overlap one crossing — only
	// the slowest sub carries the carrier's latency.
	slowest := -1
	if h.Width > 0 && critical {
		var max uint64
		for i, c := range children {
			if c.Sub && c.E2E() >= max {
				max, slowest = c.E2E(), i
			}
		}
	}
	var childSum uint64
	for i, c := range children {
		onPath := critical
		if h.Width > 0 && c.Sub {
			onPath = critical && i == slowest
		}
		cd := dumpHop(c, rootStart, onPath)
		childSum += cd.E2E
		d.Children = append(d.Children, cd)
	}
	d.Own = d.Service - childSum
	return d
}

// Components rolls an exemplar ledger up into attribution buckets that
// sum exactly to the root's end-to-end cycles:
//
//	cross            every hop's Send + Resume (AS switches, I-cache refill)
//	queue.<server>   rendezvous wait per destination server
//	wait.<mark>      waits for a kernel lock, by lock name (volume:/fat)
//	service.<server> own handler cycles per server, marks subtracted
//	failed.<server>  the whole window of a nested call that failed
//
// "Why was this p99 8x the median" is answered by diffing these buckets
// against a median exemplar's.
func (d *HopDump) Components() map[string]uint64 {
	out := make(map[string]uint64)
	d.addComponents(out)
	return out
}

func (d *HopDump) addComponents(out map[string]uint64) {
	if d.Failed {
		out["failed."+d.Server] += d.E2E
		return
	}
	if v := d.Send + d.Resume; v > 0 {
		out["cross"] += v
	}
	if d.Queue > 0 {
		out["queue."+d.Server] += d.Queue
	}
	var marks uint64
	for k, v := range d.Marks {
		out["wait."+k] += v
		marks += v
	}
	// Marks lie inside the own-service window by construction; the
	// subtraction keeps the buckets a partition of the root E2E.
	out["service."+d.Server] += d.Own - marks
	for i := range d.Children {
		d.Children[i].addComponents(out)
	}
}

// WriteText renders the per-family histogram table: count, mean, and
// the latency quantiles with their queue/service/cross split at p99 —
// the "which family has a tail" overview.  `kobs tail` layers the exemplar
// and waterfall views on top.
func (d *Dump) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "%-12s %-8s %8s %10s %10s %10s %10s %10s %10s %10s\n",
		"SERVER", "OP", "COUNT", "MEAN", "P50", "P90", "P99", "Q.P99", "SVC.P99", "X.P99")
	for i := range d.Families {
		f := &d.Families[i]
		if f.E2E.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "%-12s %#06x %8d %10.0f %10d %10d %10d %10d %10d %10d\n",
			f.Server, f.Op, f.E2E.Count, f.E2E.Mean(),
			f.E2E.Quantile(0.50), f.E2E.Quantile(0.90), f.E2E.Quantile(0.99),
			f.Queue.Quantile(0.99), f.Service.Quantile(0.99), f.Cross.Quantile(0.99))
	}
	return nil
}

// WriteExemplar renders one ledger as an indented hop waterfall: offset
// and width in cycles, segment split, marks and notes, the critical
// path starred.
func (h *HopDump) WriteExemplar(w io.Writer) {
	h.writeHop(w, 0)
}

func (h *HopDump) writeHop(w io.Writer, depth int) {
	star := " "
	if h.Critical {
		star = "*"
	}
	kind := "call"
	if h.Failed {
		kind = "failed"
	} else if h.Sub {
		kind = "sub"
	} else if h.Width > 0 {
		kind = fmt.Sprintf("callv[%d]", h.Width)
	}
	fmt.Fprintf(w, "%s%s%-*s%s %s %#06x  @%-9d e2e=%-9d send=%d queue=%d svc=%d own=%d resume=%d",
		star, strings.Repeat("  ", depth), 0, "", kind, h.Server, h.Op,
		h.Off, h.E2E, h.Send, h.Queue, h.Service, h.Own, h.Resume)
	if h.SchedBurst > 0 || h.SchedPoolWait > 0 || h.SchedCPUWait > 0 {
		fmt.Fprintf(w, " vt[burst=%d pool-wait=%d cpu-wait=%d]",
			h.SchedBurst, h.SchedPoolWait, h.SchedCPUWait)
	}
	for _, k := range kstat.SortedKeys(h.Marks) {
		fmt.Fprintf(w, " wait.%s=%d", k, h.Marks[k])
	}
	for _, k := range kstat.SortedKeys(h.Notes) {
		fmt.Fprintf(w, " %s=%d", k, h.Notes[k])
	}
	fmt.Fprintln(w)
	for i := range h.Children {
		h.Children[i].writeHop(w, depth+1)
	}
}
