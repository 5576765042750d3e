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
//   - Gauge: an instantaneous level (pool workers busy, queue depth),
//     always read where its owner keeps it (GaugeFunc).
//   - Histogram: a mergeable log-bucketed (HDR-style) distribution of
//     latencies or sizes, readable as quantiles.
//
// Three ways in: a Set consumes the engine's observation records
// (Observe: RPC calls, the thread_self trap, VM faults, cache outcomes);
// counts that are not stamp points — operation counts — go through the
// direct Counter/Histogram API; and state some other component already
// keeps — scheduler, pool, port-set, cache and profiler levels — is read
// where it lives, by a func its owner registers (GaugeFunc, CounterFunc)
// and Snapshot calls, so no second copy of it can drift.
//
// A family a per-operation path touches is declared once, at package
// level, as a Key (NewKey); a Set resolves it on first touch into a slot
// of its own, so the count is an index and a load, not a lookup by name.
// By-name Counter and Histogram serve tests and registration where a
// component is built.
//
// Like ktrace, kstat is observation-only: nothing here charges the
// cpu.Engine, so modeled cycle counts — the Table 1 and Table 2
// reproductions — are bit-identical with kstat enabled or disabled (gated
// by bench.CounterTable2 and TestKstatObservationOnly).
//
// Family naming convention (dotted, lower-case):
//
//	mach.trap.*        the Table 2 thread_self trap (count/instr/cycles/bus)
//	mach.rpc.*         reworked-RPC client round trips, plus
//	mach.rpc.to.<srv>  per-destination-server call counts
//	mach.pool.<t>/<p>  server-pool occupancy (workers/busy gauges, ops)
//	mach.portset.*     port-set queue depth
//	cpu.e<i>.*         per-engine scheduler state (multi-engine kernels)
//	vfs.* os2.* registry.* netsvc.* drivers.* pager.* vm.* names.*
//	ksync.* ktime.*    per-subsystem operation counts
//
// The per-operation instr/cycles families are exact when operations are
// serial (the engine's counters are global, so concurrent operations
// interleave their deltas); counts and bytes are always exact.
package kstat

import (
	"maps"
	"strings"
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

// Add adds n to the counter; a nil counter (from a nil Set) drops it.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.shards[shardIndex()].v.Add(n)
	}
}

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

// Key names a family a per-operation path touches, declared once at
// package level: each Set resolves it on first touch into its own slot.
type Key struct {
	name string
	slot int
}

// maxKeys bounds the Keys a program declares; a Set holds a slot for
// each of them.
const maxKeys = 128

// keys counts the declared Keys; package initialization declares them.
var keys atomic.Int32

// NewKey declares the family name.  Call it at package level.
func NewKey(name string) *Key {
	slot := int(keys.Add(1)) - 1
	if slot >= maxKeys {
		panic("kstat: more than maxKeys keys declared")
	}
	return &Key{name: name, slot: slot}
}

// Set is a registry of named metric families.  All methods are safe for
// concurrent use; families are created on first touch.  A nil Set — a
// detached engine's — hands out nil metrics that drop what they are
// given, so a count site is one line whether or not kstat is attached.
type Set struct {
	counters sync.Map // name -> *Counter
	hists    sync.Map // name -> *Histogram
	rpcTo    sync.Map // server -> its mach.rpc.to.<srv>.calls *Counter

	// keyed holds each Key's resolved families, filled on first touch.
	keyed [maxKeys]struct {
		c atomic.Pointer[Counter]
		h atomic.Pointer[Histogram]
	}

	// reads are the registered reads of owners' state, each adding its
	// value into a snapshot; mu guards the slice, never a call.
	mu    sync.Mutex
	reads []func(Snapshot)
}

// NewSet creates an empty metric set.
func NewSet() *Set { return &Set{} }

// Counter returns the named counter, creating it if needed.
func (s *Set) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	if v, ok := s.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := s.counters.LoadOrStore(name, new(Counter))
	return v.(*Counter)
}

// Histogram returns the named histogram, creating it if needed.
func (s *Set) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	if v, ok := s.hists.Load(name); ok {
		return v.(*Histogram)
	}
	v, _ := s.hists.LoadOrStore(name, new(Histogram))
	return v.(*Histogram)
}

// Count returns k's counter, resolving it on the Set's first touch.
func (s *Set) Count(k *Key) *Counter {
	if s == nil {
		return nil
	}
	slot := &s.keyed[k.slot].c
	if c := slot.Load(); c != nil {
		return c
	}
	c := s.Counter(k.name)
	slot.Store(c)
	return c
}

// Hist returns k's histogram, resolving it on the Set's first touch.
func (s *Set) Hist(k *Key) *Histogram {
	if s == nil {
		return nil
	}
	slot := &s.keyed[k.slot].h
	if h := slot.Load(); h != nil {
		return h
	}
	h := s.Histogram(k.name)
	slot.Store(h)
	return h
}

// GaugeFunc registers f as a read of the named gauge family: Snapshot
// calls it, and a family with several funcs reads their sum.  f reads
// state its owner keeps anyway — atomics, or a leaf mutex at most — and
// never blocks, because a flight dump of a stalled system snapshots
// through it.  A func stays registered for the Set's life; a nil Set
// drops it.
func (s *Set) GaugeFunc(name string, f func() int64) {
	s.register(func(snap Snapshot) { snap.Gauges[name] += f() })
}

// CounterFunc registers f as a read of the named counter family, summed
// like GaugeFunc's.  f must never go backwards — Snapshot.Delta subtracts
// — so an owner that dies keeps reading its final count.
func (s *Set) CounterFunc(name string, f func() uint64) {
	s.register(func(snap Snapshot) { snap.Counters[name] += f() })
}

func (s *Set) register(read func(Snapshot)) {
	if s != nil {
		s.mu.Lock()
		s.reads = append(s.reads, read)
		s.mu.Unlock()
	}
}

// The families of the stamp points.
var (
	rpcCalls    = NewKey("mach.rpc.calls")
	rpcBytesIn  = NewKey("mach.rpc.bytes_in")
	rpcBatched  = NewKey("mach.rpc.batched")
	rpcSize     = NewKey("mach.rpc.size_bytes")
	rpcErrors   = NewKey("mach.rpc.errors")
	rpcReplies  = NewKey("mach.rpc.replies")
	rpcBytesOut = NewKey("mach.rpc.bytes_out")
	oolMapped   = NewKey("mach.ool.bytes_mapped")
	trapCount   = NewKey("mach.trap.count")
	vmFaults    = NewKey("vm.faults")

	cacheHits      = NewKey("bcache.hits")
	cacheMisses    = NewKey("bcache.misses")
	cacheReadahead = NewKey("bcache.readahead")
	cacheWriteback = NewKey("bcache.writeback")
)

// cacheFamily is the counter of a buffer-cache outcome record.
func cacheFamily(outcome string) *Key {
	switch outcome {
	case "hit":
		return cacheHits
	case "miss":
		return cacheMisses
	case "readahead":
		return cacheReadahead
	}
	return cacheWriteback
}

// Observe implements cpu.Observer: the families of the stamp points.  An
// RPC call counts at dispatch — so a server taking a snapshot while
// handling this very call (the monitor serving its own query) already
// sees it — and its latency and reply at return.  A vectored carrier is
// ONE call (the conservation law calls == replies + errors holds per
// crossing, and the chaos harness checks it after each fault epoch); its
// width lands on mach.rpc.batched.  The per-call instr/cycles deltas are
// exact for serial callers and interleave under concurrency.
func (s *Set) Observe(e cpu.Event) {
	switch e.Type {
	case cpu.EvRPC:
		if e.Phase == cpu.PhaseBegin {
			s.Count(rpcCalls).Inc()
			s.Count(rpcBytesIn).Add(e.Bytes)
			if e.Width > 0 {
				s.Count(rpcBatched).Add(uint64(e.Width))
			}
			if e.Mapped > 0 {
				s.Count(oolMapped).Add(e.Mapped)
			}
			if e.Name != "" {
				s.callsTo(e.Name).Inc()
			}
			return
		}
		s.delta(&rpcFamilies, &e)
		s.Hist(rpcSize).Observe(e.Span.Bytes)
		if e.Err != "" {
			s.Count(rpcErrors).Inc()
			return
		}
		s.Count(rpcReplies).Inc()
		s.Count(rpcBytesOut).Add(e.Bytes)
		if e.Mapped > 0 {
			s.Count(oolMapped).Add(e.Mapped)
		}
	case cpu.EvTrap:
		// The mach.trap family is Table 2's trap column accumulated live:
		// E-CTR (bench.CounterTable2) derives the trap-vs-RPC ratios from
		// these counters alone.
		if e.Phase == cpu.PhaseEnd {
			s.Count(trapCount).Inc()
			s.delta(&trapFamilies, &e)
		}
	case cpu.EvVMFault:
		s.Count(vmFaults).Inc()
	case cpu.EvCache:
		s.Count(cacheFamily(e.Name)).Add(e.Arg)
	}
}

// callsTo returns the mach.rpc.to.<server>.calls counter: one load keyed
// by the server, the family's name built on its first call only.
func (s *Set) callsTo(server string) *Counter {
	c, ok := s.rpcTo.Load(server)
	if !ok {
		c, _ = s.rpcTo.LoadOrStore(server, s.Counter("mach.rpc.to."+server+".calls"))
	}
	return c.(*Counter)
}

// spanFamilies names the families a span's counter deltas land on.
type spanFamilies struct{ instr, cycles, bus, latency *Key }

func newSpanFamilies(prefix string) spanFamilies {
	return spanFamilies{NewKey(prefix + ".instr"), NewKey(prefix + ".cycles"),
		NewKey(prefix + ".bus"), NewKey(prefix + ".latency_cycles")}
}

var (
	rpcFamilies  = newSpanFamilies("mach.rpc")
	trapFamilies = newSpanFamilies("mach.trap")
)

// delta records a span's counter deltas, begin to end.
func (s *Set) delta(f *spanFamilies, end *cpu.Event) {
	d := end.Ctr.Sub(end.Span.Ctr)
	s.Count(f.instr).Add(d.Instructions)
	s.Count(f.cycles).Add(d.Cycles)
	s.Count(f.bus).Add(d.BusCycles)
	s.Hist(f.latency).Observe(d.Cycles)
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
	s.hists.Range(func(k, v any) bool {
		snap.Histograms[k.(string)] = v.(*Histogram).Snapshot()
		return true
	})
	s.mu.Lock()
	reads := s.reads
	s.mu.Unlock()
	for _, read := range reads {
		read(snap)
	}
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
	return Snapshot{
		Counters:   filter(s.Counters, prefix),
		Gauges:     filter(s.Gauges, prefix),
		Histograms: filter(s.Histograms, prefix),
	}
}

func filter[V any](m map[string]V, prefix string) map[string]V {
	out := maps.Clone(m)
	maps.DeleteFunc(out, func(k string, _ V) bool { return !strings.HasPrefix(k, prefix) })
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
