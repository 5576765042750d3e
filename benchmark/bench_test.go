package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"testing"
)

func TestSameSeedSameStream(t *testing.T) {
	for _, m := range []mix{readMix, writeMix, smpMix} {
		a := genOps(rngFor(7, "w", 0), m)
		b := genOps(rngFor(7, "w", 0), m)
		if !slices.Equal(a, b) {
			t.Fatalf("seed 7 generated two different streams")
		}
		if c := genOps(rngFor(8, "w", 0), m); slices.Equal(a, c) {
			t.Fatalf("seeds 7 and 8 generated the same stream")
		}
		if c := genOps(rngFor(7, "w", 1), m); slices.Equal(a, c) {
			t.Fatalf("clients 0 and 1 generated the same stream")
		}
		// The seed moves operations around; it never changes how many of
		// each kind a pass issues.
		var count [numOpKinds]int
		for _, op := range a {
			count[op.kind]++
		}
		for k, n := range m.count {
			if count[k] != n*m.rounds {
				t.Fatalf("stream has %v operations by kind, the mix says %v in each of %d rounds", count, m.count, m.rounds)
			}
		}
	}

	var a, b, c rpcMix
	for _, w := range []*rpcMix{&a, &b} {
		if err := w.setup(7); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.setup(8); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.stream, b.stream) || !slices.Equal(a.fills, b.fills) {
		t.Fatalf("rpc_mix: seed 7 generated two different streams")
	}
	if slices.Equal(a.stream, c.stream) {
		t.Fatalf("rpc_mix: seeds 7 and 8 generated the same stream")
	}
}

func TestNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not of the form the contract allows", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadSpecs {
		use(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range specs {
			use(s.Name)
			if !unit.MatchString(s.Unit) {
				t.Errorf("%s: unit %q", s.Name, s.Unit)
			}
			if s.Better != lower && s.Better != higher {
				t.Errorf("%s: direction %q", s.Name, s.Better)
			}
			if s.Bound < 0 || s.Bound > 0.25 {
				t.Errorf("%s: bound %v", s.Name, s.Bound)
			}
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract", len(endToEnd), len(perLayer))
	}
}

func TestSpecMatchesManifest(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatal(err)
	}
	if want := newManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Fatalf("BENCHMARK.json differs from the benchmark's tables; regenerate it with `go run ./benchmark -manifest`")
	}
}

// smokeOptions is the smallest real run: one set-up, no warm-up, one
// pass.
func smokeOptions(name string) options {
	return options{workload: name, seed: 1, passes: 1, setups: 1}
}

// TestSmoke runs one pass of every workload end to end, verification
// included: the pinned Table 1 cells, the shadow read-back, the echoes.
func TestSmoke(t *testing.T) {
	for _, w := range workloadSpecs {
		res, err := runWorkload(smokeOptions(w.Name))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed", w.Name, res.Failed, res.Attempted)
		}
		for _, spec := range endToEnd {
			if m, ok := res.Metrics[spec.Name]; !ok || m.Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, spec.Name, m.Value)
			}
		}
	}
}

// TestTracedPassIsObservationOnly checks the traced pass's invariants on
// the workload that uses the most layers: attaching the planes moves no
// modeled cycle, kprof accounts for every cycle the counters saw, one
// cause per cycle, and every charged region belongs to a layer.
func TestTracedPassIsObservationOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("one more boot and pass")
	}
	o := smokeOptions("fileops_write")
	w, err := newWorkload(o.workload)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{opts: o, w: w, h: newHarness()}
	if _, err := r.setup(); err != nil {
		t.Fatal(err)
	}
	untraced := newPassSeries(true)
	if err := r.passes(1, untraced.add); err != nil {
		t.Fatal(err)
	}
	tr, err := r.traced(untraced)
	if err != nil {
		t.Fatal(err)
	}
	if tr.failed != 0 || untraced.failed != 0 {
		t.Fatalf("verification failed: untraced %d, traced %d", untraced.failed, tr.failed)
	}
	get := func(name string) float64 {
		m, ok := tr.metrics[name]
		if !ok {
			t.Fatalf("%s was not measured", name)
		}
		return m.Value
	}
	cycles := untraced.values["model_cycles"][0]
	for _, zero := range []string{"kobs.model_delta_cycles", "kobs.kprof_gap_cycles"} {
		if v := get(zero); v != 0 {
			t.Errorf("%s = %v, want 0", zero, v)
		}
	}
	var kinds float64
	for _, k := range []string{"base", "imiss", "dmiss", "tlb", "switch", "stall", "migrate"} {
		kinds += get("cpu." + k + "_cycles")
	}
	if kinds != cycles {
		t.Errorf("cpu.*_cycles sum to %v, model_cycles is %v", kinds, cycles)
	}
	if other := get("other.model_cycles"); other >= cycles/100 {
		t.Errorf("other.model_cycles = %v, 1%% of model_cycles or more", other)
	}
	if get("bcache.hits") == 0 || get("drivers.requests") == 0 || get("vfs.ops") == 0 {
		t.Errorf("a layer fileops_write must use saw no work")
	}
	if len(tr.spans) == 0 || tr.spans[0].Parent != 0 {
		t.Errorf("no pass span was recorded")
	}
}

func TestSelfTimeIsDurationLessCoveredPart(t *testing.T) {
	var l spanLog
	win := l.open(0, "window", 0, 100, false)
	l.open(win, "api", 10, 40, true)
	l.open(win, "api", 30, 60, true) // overlaps the first: two clients at once
	l.open(win, "api", 70, 80, true)
	l.setSelf()
	if got := l.spans[0].SelfNS; got != 40 {
		t.Errorf("window self time = %d, want 100 - (50 + 10)", got)
	}
	if got := l.spans[1].SelfNS; got != 30 {
		t.Errorf("leaf self time = %d, want its duration", got)
	}
}

func TestJudge(t *testing.T) {
	spec := metricSpec{Name: "host_pass_ms_p50", Better: lower, Bound: 0.10}
	up := metricSpec{Name: "host_mcycles_per_s", Better: higher, Bound: 0.10}
	for _, c := range []struct {
		spec      metricSpec
		base, cur metric
		want      string
	}{
		{spec, metric{Value: 100}, metric{Value: 105}, verdictSame},
		{spec, metric{Value: 100}, metric{Value: 120}, verdictWorse},
		{spec, metric{Value: 100}, metric{Value: 80}, verdictBetter},
		{up, metric{Value: 100}, metric{Value: 80}, verdictWorse},
		{up, metric{Value: 100}, metric{Value: 120}, verdictBetter},
		// Passes that disagree with each other by more than the bound
		// cannot resolve a change smaller than their own spread.
		{spec, metric{Value: 100, Spread: 0.3}, metric{Value: 120}, verdictUnresolved},
		{spec, metric{Value: 100, Spread: 0.3}, metric{Value: 150}, verdictWorse},
	} {
		if _, got := judge(c.spec, c.base, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.spec.Name, c.base, c.cur, got, c.want)
		}
	}
}
