// Package kstat is the system-wide metrics fabric: cheap, always-on,
// queryable counters — the complement of ktrace's heavyweight event
// capture.  Where ktrace answers "what happened, in causal order, at what
// cost", kstat answers "how many, how big, how fast, right now" without
// capturing anything.
//
// The fabric has three metric kinds, collected into named families inside
// a Set:
//
//   - Counter: a sharded, lock-free monotonic count (operations, bytes).
//   - Gauge: an instantaneous level (pool workers busy, queue depth).
//   - Histogram: a mergeable log-bucketed (HDR-style) distribution of
//     latencies or sizes, readable as quantiles.
//
// Like ktrace, kstat is observation-only: hook points all over the
// simulated system read the cpu.Engine's performance counters but never
// charge them, so modeled cycle counts — the Table 1 and Table 2
// reproductions — are bit-identical with kstat enabled or disabled
// (gated by bench.CounterTable2 and TestKstatObservationOnly).  When no
// Set is attached to an engine the hooks reduce to one atomic load.
//
// Family naming convention (dotted, lower-case):
//
//	mach.trap.*        the Table 2 thread_self trap (count/instr/cycles/bus)
//	mach.rpc.*         reworked-RPC client round trips, plus
//	mach.rpc.to.<srv>  per-destination-server call counts
//	mach.pool.<t>/<p>  server-pool occupancy (workers/busy gauges, ops)
//	mach.portset.*     port-set queue depth
//	vfs.* os2.* registry.* netsvc.* drivers.* pager.* vm.* names.*
//	ksync.* ktime.*    per-subsystem operation counts
//
// The per-operation instr/cycles families are exact when operations are
// serial (the engine's counters are global, so concurrent operations
// interleave their deltas); counts and bytes are always exact.
package kstat

import (
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/cpu"
)

// numShards is the shard count of a Counter; a power of two.
const numShards = 16

// shard is one padded counter cell.  The padding keeps shards on separate
// cache lines so concurrent writers do not false-share.
type shard struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a sharded, lock-free monotonic counter.  The zero value is
// ready to use.
type Counter struct {
	shards [numShards]shard
}

// shardIndex spreads concurrent writers across shards using the
// goroutine's stack address: goroutines live on distinct stacks, so this
// needs no shared state and no per-goroutine registration.  Any skew only
// costs contention, never correctness.
func shardIndex() uint64 {
	var probe byte
	return (uint64(uintptr(unsafe.Pointer(&probe))) >> 10) & (numShards - 1)
}

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { c.shards[shardIndex()].v.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards.  Concurrent with writers it is a weakly
// consistent snapshot, like any multi-word counter read.
func (c *Counter) Value() uint64 {
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Gauge is an instantaneous signed level.
type Gauge struct {
	v atomic.Int64
}

// Set stores the level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the level by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc raises the level by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec lowers the level by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value reads the level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Set is a registry of named metric families.  All methods are safe for
// concurrent use; families are created on first touch.
type Set struct {
	counters sync.Map // name -> *Counter
	gauges   sync.Map // name -> *Gauge
	hists    sync.Map // name -> *Histogram
}

// NewSet creates an empty metric set.
func NewSet() *Set { return &Set{} }

// Counter returns the named counter, creating it if needed.
func (s *Set) Counter(name string) *Counter {
	if v, ok := s.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := s.counters.LoadOrStore(name, new(Counter))
	return v.(*Counter)
}

// Gauge returns the named gauge, creating it if needed.
func (s *Set) Gauge(name string) *Gauge {
	if v, ok := s.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := s.gauges.LoadOrStore(name, new(Gauge))
	return v.(*Gauge)
}

// Histogram returns the named histogram, creating it if needed.
func (s *Set) Histogram(name string) *Histogram {
	if v, ok := s.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := s.hists.LoadOrStore(name, new(Histogram))
	return v.(*Histogram)
}

// Snapshot captures every family's current value.  It is weakly
// consistent under concurrent recording (each family is read atomically,
// the set is not frozen as a whole), which is the usual contract of a
// live metrics scrape.
func (s *Set) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	s.counters.Range(func(k, v any) bool {
		snap.Counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	s.gauges.Range(func(k, v any) bool {
		snap.Gauges[k.(string)] = v.(*Gauge).Value()
		return true
	})
	s.hists.Range(func(k, v any) bool {
		snap.Histograms[k.(string)] = v.(*Histogram).Snapshot()
		return true
	})
	return snap
}

// Snapshot is a point-in-time copy of a Set, the wire unit of the monitor
// protocol.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Delta returns the change since prev: counters and histogram buckets
// subtract (a family absent from prev passes through whole); gauges are
// levels, not totals, so the current level is kept.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistSnapshot, len(s.Histograms)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v - prev.Counters[k]
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range s.Histograms {
		out.Histograms[k] = v.Sub(prev.Histograms[k])
	}
	return out
}

// Filter returns the snapshot restricted to families whose name starts
// with prefix.
func (s Snapshot) Filter(prefix string) Snapshot {
	out := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	for k, v := range s.Counters {
		if hasPrefix(k, prefix) {
			out.Counters[k] = v
		}
	}
	for k, v := range s.Gauges {
		if hasPrefix(k, prefix) {
			out.Gauges[k] = v
		}
	}
	for k, v := range s.Histograms {
		if hasPrefix(k, prefix) {
			out.Histograms[k] = v
		}
	}
	return out
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// Names returns all family names in the snapshot, sorted.
func (s Snapshot) Names() []string {
	out := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for k := range s.Counters {
		out = append(out, k)
	}
	for k := range s.Gauges {
		out = append(out, k)
	}
	for k := range s.Histograms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- engine attachment -----------------------------------------------------

// Attach returns the engine's Set, attaching a fresh one if none is
// (Detach first for a fresh one).
func Attach(eng *cpu.Engine) *Set {
	return eng.AttachPlane(cpu.PlaneStat, func() any { return NewSet() }).(*Set)
}

// Detach removes the engine's Set; hooks become no-ops again.
func Detach(eng *cpu.Engine) { eng.DetachPlane(cpu.PlaneStat, nil) }

// For returns the engine's Set, or nil when metrics are detached.
func For(eng *cpu.Engine) *Set { return From(eng.Planes()) }

// From returns the Set in an engine's plane set, or nil: the hook-point
// fast path for sites that read several planes from one load.
func From(ps *cpu.Planes) *Set { return cpu.PlaneOf[*Set](ps, cpu.PlaneStat) }
