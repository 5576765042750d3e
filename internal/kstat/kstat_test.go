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

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Set(2)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	var none *Gauge // a detached Set's
	none.Set(1)
}

// TestSetSnapshotDelta exercises family creation, snapshotting, and the
// delta semantics the monitor protocol relies on.
func TestSetSnapshotDelta(t *testing.T) {
	s := NewSet()
	s.Counter("a.calls").Add(10)
	s.Gauge("a.busy").Set(3)
	s.Histogram("a.lat").Observe(100)
	base := s.Snapshot()

	s.Counter("a.calls").Add(7)
	s.Counter("b.new").Inc()
	s.Gauge("a.busy").Set(1)
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
	s.Gauge("mach.pool.files/control.busy").Set(2)
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
// reads of one name, with a plain metric of that name too; a nil Set
// drops a registration.
func TestFuncFamilies(t *testing.T) {
	s := NewSet()
	level, count := int64(2), uint64(5)
	s.GaugeFunc("c.dirty", func() int64 { return level })
	s.GaugeFunc("c.dirty", func() int64 { return 3 })
	s.Gauge("c.dirty").Set(1)
	s.CounterFunc("p.ops", func() uint64 { return count })
	s.CounterFunc("p.ops", func() uint64 { return 4 })
	base := s.Snapshot()
	if g, c := base.Gauges["c.dirty"], base.Counters["p.ops"]; g != 6 || c != 9 {
		t.Fatalf("c.dirty = %d, p.ops = %d, want 6 and 9", g, c)
	}
	level, count = 0, 7
	d := s.Snapshot().Delta(base)
	if g, c := d.Gauges["c.dirty"], d.Counters["p.ops"]; g != 4 || c != 2 {
		t.Fatalf("delta c.dirty = %d, p.ops = %d, want the level 4 and 2 more", g, c)
	}
	var nilSet *Set
	nilSet.GaugeFunc("x", func() int64 { return 1 })
	nilSet.CounterFunc("y", func() uint64 { return 1 })
}
