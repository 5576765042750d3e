package kstat

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/cpu"
)

// TestCounterConcurrent hammers one counter from many goroutines; the
// sharded sum must be exact.
func TestCounterConcurrent(t *testing.T) {
	const workers, per = 16, 10000
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

// testKey is a family declared the way a per-op path declares one.
var testKey = NewKey("k.ops")

// TestKeyResolvesPerSet: a Key lands on its Set's by-name family, which
// the Set lists only once something has touched it; a fresh Set — a
// detach and re-attach — resolves it afresh; a nil Set drops the count.
func TestKeyResolvesPerSet(t *testing.T) {
	s := NewSet()
	if _, ok := s.Snapshot().Counters["k.ops"]; ok {
		t.Fatal("an untouched key's family is listed")
	}
	s.Count(testKey).Add(2)
	s.Counter("k.ops").Inc()
	s.Hist(testKey).Observe(7)
	snap := s.Snapshot()
	if c, h := snap.Counters["k.ops"], snap.Histograms["k.ops"].Count; c != 3 || h != 1 {
		t.Fatalf("k.ops counter = %d, histogram count = %d, want 3 and 1", c, h)
	}
	fresh := NewSet()
	fresh.Count(testKey).Inc()
	if got := fresh.Counter("k.ops").Value(); got != 1 {
		t.Fatalf("fresh set's k.ops = %d, want 1", got)
	}
	if got := s.Counter("k.ops").Value(); got != 3 {
		t.Fatalf("first set's k.ops = %d after the fresh set counted, want 3", got)
	}
	var none *Set // a detached engine's
	none.Count(testKey).Inc()
	none.Hist(testKey).Observe(1)
}

// TestKeyFirstTouchRace: goroutines racing to resolve a key on a fresh Set
// all land on one counter, so none of their counts is lost.
func TestKeyFirstTouchRace(t *testing.T) {
	const workers, per = 8, 1000
	s := NewSet()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Count(testKey).Inc()
			}
		}()
	}
	wg.Wait()
	if got := s.Counter("k.ops").Value(); got != workers*per {
		t.Fatalf("k.ops = %d, want %d", got, workers*per)
	}
}

// TestSetSnapshotDelta exercises family creation, snapshotting, and the
// delta semantics the monitor protocol relies on.
func TestSetSnapshotDelta(t *testing.T) {
	s := NewSet()
	busy := int64(3)
	s.Counter("a.calls").Add(10)
	s.GaugeFunc("a.busy", func() int64 { return busy })
	s.Histogram("a.lat").Observe(100)
	base := s.Snapshot()

	s.Counter("a.calls").Add(7)
	s.Counter("b.new").Inc()
	busy = 1
	s.Histogram("a.lat").Observe(200)
	d := s.Snapshot().Delta(base)

	if d.Counters["a.calls"] != 7 {
		t.Errorf("delta a.calls = %d, want 7", d.Counters["a.calls"])
	}
	if d.Counters["b.new"] != 1 {
		t.Errorf("delta of family born after baseline = %d, want 1", d.Counters["b.new"])
	}
	if d.Gauges["a.busy"] != 1 {
		t.Errorf("gauge delta should be current level, got %d", d.Gauges["a.busy"])
	}
	if d.Histograms["a.lat"].Count != 1 || d.Histograms["a.lat"].Sum != 200 {
		t.Errorf("hist delta = %+v", d.Histograms["a.lat"])
	}
}

func TestSnapshotFilter(t *testing.T) {
	s := NewSet()
	s.Counter("mach.rpc.calls").Inc()
	s.Counter("vfs.ops.read").Inc()
	s.Histogram("mach.rpc.latency").Observe(1)
	f := s.Snapshot().Filter("mach.rpc")
	if len(f.Counters) != 1 || len(f.Histograms) != 1 {
		t.Fatalf("filter kept %d counters, %d hists", len(f.Counters), len(f.Histograms))
	}
	if _, ok := f.Counters["vfs.ops.read"]; ok {
		t.Error("filter leaked foreign family")
	}
}

// TestRegistry checks the attach contract every plane shares: Attach
// keeps an attached Set, and Detach first is how to get a fresh one.
func TestRegistry(t *testing.T) {
	eng := cpu.NewEngine(cpu.Pentium133())
	if For(eng) != nil {
		t.Fatal("fresh engine has a Set")
	}
	s := Attach(eng)
	if For(eng) != s {
		t.Fatal("For did not return the attached Set")
	}
	if Attach(eng) != s {
		t.Fatal("second Attach replaced the attached Set")
	}
	Detach(eng)
	if For(eng) != nil {
		t.Fatal("Detach left the Set attached")
	}
	if fresh := Attach(eng); fresh == s {
		t.Fatal("Attach after Detach returned the old Set")
	}
	Detach(eng)
}

// TestSnapshotJSONRoundTrip: the monitor protocol ships snapshots as
// JSON; quantiles must survive the trip.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := NewSet()
	s.Counter("x.calls").Add(3)
	s.Histogram("x.lat").Observe(1000)
	s.Histogram("x.lat").Observe(2000)
	b, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["x.calls"] != 3 {
		t.Errorf("counter lost in round trip")
	}
	if back.Histograms["x.lat"].Count != 2 {
		t.Errorf("hist count lost in round trip")
	}
	if q := back.Histograms["x.lat"].Quantile(0.99); q < 2000 {
		t.Errorf("p99 after round trip = %d, want >= 2000", q)
	}
}

// TestExpositions sanity-checks all three formats.
func TestExpositions(t *testing.T) {
	s := NewSet()
	s.Counter("mach.rpc.calls").Add(42)
	s.GaugeFunc("mach.pool.files/control.busy", func() int64 { return 2 })
	s.Histogram("mach.rpc.latency_cycles").Observe(5163)
	snap := s.Snapshot()

	var text, prom bytes.Buffer
	if err := WriteText(&text, snap); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteProm(&prom, snap); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "mach.rpc.calls") {
		t.Errorf("text output missing counter:\n%s", text.String())
	}
	var parsed Snapshot
	if err := json.Unmarshal(js, &parsed); err != nil {
		t.Fatalf("json output does not parse: %v", err)
	}
	p := prom.String()
	for _, want := range []string{
		"mach_rpc_calls_total 42",
		"# TYPE mach_rpc_calls_total counter",
		"mach_pool_files_control_busy 2",
		"mach_rpc_latency_cycles_bucket{le=\"+Inf\"} 1",
		"mach_rpc_latency_cycles_count 1",
	} {
		if !strings.Contains(p, want) {
			t.Errorf("prom output missing %q:\n%s", want, p)
		}
	}
}

// TestFuncFamilies: a snapshot calls every registered read and sums the
// reads of one name, with a plain counter of that name too; a nil Set
// drops a registration.
func TestFuncFamilies(t *testing.T) {
	s := NewSet()
	level, count := int64(2), uint64(5)
	s.GaugeFunc("c.dirty", func() int64 { return level })
	s.GaugeFunc("c.dirty", func() int64 { return 3 })
	s.CounterFunc("p.ops", func() uint64 { return count })
	s.CounterFunc("p.ops", func() uint64 { return 4 })
	s.Counter("p.ops").Add(1)
	base := s.Snapshot()
	if g, c := base.Gauges["c.dirty"], base.Counters["p.ops"]; g != 5 || c != 10 {
		t.Fatalf("c.dirty = %d, p.ops = %d, want 5 and 10", g, c)
	}
	level, count = 0, 7
	d := s.Snapshot().Delta(base)
	if g, c := d.Gauges["c.dirty"], d.Counters["p.ops"]; g != 3 || c != 2 {
		t.Fatalf("delta c.dirty = %d, p.ops = %d, want the level 3 and 2 more", g, c)
	}
	var nilSet *Set
	nilSet.GaugeFunc("x", func() int64 { return 1 })
	nilSet.CounterFunc("y", func() uint64 { return 1 })
}
