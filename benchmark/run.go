package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// options selects one run of one workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64 // how long the timed passes measure
	passes   int     // when > 0, a fixed number of timed passes instead
	trace    bool    // the traced run: per-layer metrics instead of end-to-end
	setups   int     // set-ups timed for setup_s; the last one is used
	warmups  int     // discarded passes that end each set-up
}

const (
	defaultSetups  = 3
	defaultWarmups = 3
	// minPasses keeps a median meaningful when a host is slow.
	minPasses = 5
)

// metric is one reported number.  Samples is how many passes (or probe
// calls) stand behind it, Spread their interquartile range over the
// median.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Spread  float64 `json:"spread,omitempty"`
}

// result is one run's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Threads   int               `json:"gomaxprocs"`
	Passes    int               `json:"passes"`
	HostScale float64           `json:"host_scale"` // median calibration factor of the passes
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Note      string            `json:"note,omitempty"`
	Metrics   map[string]metric `json:"metrics"`

	spans []span
}

// passSeries collects each end-to-end metric's value pass by pass.
type passSeries struct {
	values    map[string][]float64
	unsteady  map[string][]float64 // host times of passes the host changed speed in
	attempted int
	failed    int
	repeats   bool     // every pass must model the first pass's cycles exactly
	first     []uint64 // per-part modeled cycles of the first pass
}

func newPassSeries(repeats bool) *passSeries {
	return &passSeries{values: map[string][]float64{}, unsteady: map[string][]float64{}, repeats: repeats}
}

// add folds one pass in.  apiFailed is the wrapper's count of calls that
// returned an error.
func (s *passSeries) add(pr *passResult, apiFailed int) {
	var cyc, ns, scales []float64
	var mallocs, bytes uint64
	for i := range pr.parts {
		p := &pr.parts[i]
		mallocs += p.mallocs
		bytes += p.bytes
		scales = append(scales, p.scale)
		for _, op := range p.ops {
			cyc = append(cyc, float64(op.cycles))
			ns = append(ns, float64(op.ns)*p.scale)
		}
	}
	slices.Sort(cyc)
	slices.Sort(ns)
	ops := float64(len(ns))
	host := pr.hostNS()
	put := func(k string, v float64) { s.values[k] = append(s.values[k], v) }
	put("model_cycles", float64(pr.cycles()))
	put("model_ratio", pr.ratio)
	put("model_op_cycles_p50", quantile(cyc, 0.50))
	put("model_op_cycles_p90", quantile(cyc, 0.90))
	put("host_allocs_per_op", ratio(float64(mallocs), ops))
	put("host_bytes_per_op", ratio(float64(bytes), ops))
	// A pass during which the host changed speed keeps its modeled
	// numbers and counts; its wall times are set aside, and used only by
	// a run that has no steady pass at all.
	if !pr.steady() {
		put = func(k string, v float64) { s.unsteady[k] = append(s.unsteady[k], v) }
	}
	put("host_pass_ms_p50", host/1e6)
	put("host_op_us_p95", quantile(ns, 0.95)/1e3)
	put("host_mcycles_per_s", ratio(float64(pr.cycles())/1e6, host/1e9))
	put("host_scale", median(scales))

	s.attempted += len(ns) + pr.check.attempted
	s.failed += apiFailed + pr.check.failed
	if s.repeats {
		var now []uint64
		for i := range pr.parts {
			now = append(now, pr.parts[i].ctr.Cycles)
		}
		if s.first == nil {
			s.first = now
		}
		s.attempted++
		if !slices.Equal(now, s.first) {
			s.failed++
		}
	}
}

// of returns a metric's pass-by-pass values.
func (s *passSeries) of(name string) []float64 {
	if v := s.values[name]; len(v) > 0 {
		return v
	}
	return s.unsteady[name]
}

func (s *passSeries) metric(spec metricSpec) metric {
	v := s.of(spec.Name)
	return metric{Value: median(v), Unit: spec.Unit, Samples: len(v), Spread: spread(v)}
}

// runner drives one workload: set-up, then passes.
type runner struct {
	opts options
	w    workloadImpl
	h    *harness
}

// pass runs one pass with the recorders emptied first, and returns the
// wrapper's failure count with it.
func (r *runner) pass() (passResult, int, error) {
	for _, rec := range r.h.recs {
		rec.ops = rec.ops[:0]
		rec.failed = 0
	}
	// Collect between passes, not inside them: a pass's garbage is then
	// paid for by the pass that made it.
	runtime.GC()
	start := time.Now()
	pr, err := r.w.pass(r.h)
	pr.start = start.Sub(r.h.epoch).Nanoseconds()
	pr.end = time.Since(r.h.epoch).Nanoseconds()
	failed := 0
	for _, rec := range r.h.recs {
		failed += rec.failed
	}
	return pr, failed, err
}

// setup performs one full set-up and returns how long it took, in
// calibrated seconds.
func (r *runner) setup() (float64, error) {
	speed := hostSpeed()
	start := time.Now()
	if err := r.w.setup(r.opts.seed); err != nil {
		return 0, fmt.Errorf("%s: set-up: %w", r.opts.workload, err)
	}
	for i := 0; i < r.opts.warmups; i++ {
		if _, _, err := r.pass(); err != nil {
			return 0, fmt.Errorf("%s: warm-up: %w", r.opts.workload, err)
		}
	}
	scale, _ := calibration(speed, hostSpeed())
	return time.Since(start).Seconds() * scale, nil
}

// passes runs timed passes for the given share of the run's seconds (or
// the fixed pass count) and hands each to fn.
func (r *runner) passes(share float64, fn func(*passResult, int)) error {
	start := time.Now()
	for n := 0; ; n++ {
		if r.opts.passes > 0 {
			if n >= r.opts.passes {
				return nil
			}
		} else if n >= minPasses && time.Since(start).Seconds() >= r.opts.seconds*share {
			return nil
		}
		pr, failed, err := r.pass()
		if err != nil {
			return fmt.Errorf("%s: pass %d: %w", r.opts.workload, n, err)
		}
		fn(&pr, failed)
	}
}

// hostThreads is the GOMAXPROCS a workload runs at.  The five
// single-client workloads are chains of closed-loop hand-offs between
// goroutines, nothing in them can run in parallel, and on one host thread
// a hand-off never crosses OS threads: pass times of separate processes
// then agree within 2%, against 9-23% on two threads.  clients_smp has
// work to overlap and gets two.  A GOMAXPROCS set in the environment
// wins, for checking that no modeled number moves with it.
func hostThreads(workload string) int {
	if os.Getenv("GOMAXPROCS") != "" {
		return runtime.GOMAXPROCS(0)
	}
	if workload == "clients_smp" {
		return min(runtime.NumCPU(), 2)
	}
	return 1
}

// runWorkload is the whole of one run: what the driver's one command
// does for one workload.
func runWorkload(o options) (*result, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(hostThreads(o.workload)))
	r := &runner{opts: o, w: w, h: newHarness()}
	res := &result{Workload: o.workload, Seed: o.seed, Threads: runtime.GOMAXPROCS(0), Metrics: map[string]metric{}}
	if !deterministic(o.workload) {
		res.Note = "modeled cycles depend on the host scheduler (ROADMAP item 1)"
	}

	// The traced run reports no setup_s: it sets up once.
	setups := max(o.setups, 1)
	if o.trace {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		s, err := r.setup()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, s)
	}

	series := newPassSeries(deterministic(o.workload))
	if !o.trace {
		if err := r.passes(1, series.add); err != nil {
			return nil, err
		}
		for _, spec := range endToEnd {
			res.Metrics[spec.Name] = series.metric(spec)
		}
		res.Metrics["setup_s"] = metric{Value: median(setupS), Unit: "s", Samples: len(setupS), Spread: spread(setupS)}
	} else {
		// Untraced passes first, in the same process, so the traced ones
		// have something to be compared with.
		if err := r.passes(0.35, series.add); err != nil {
			return nil, err
		}
		tr, err := r.traced(series)
		if err != nil {
			return nil, err
		}
		if err := runProbes(tr.put); err != nil {
			return nil, err
		}
		tr.putShares()
		if err := tr.complete(); err != nil {
			return nil, err
		}
		res.Metrics = tr.metrics
		res.spans = tr.spans
		series.attempted += tr.attempted
		series.failed += tr.failed
	}
	res.Passes = len(series.values["model_cycles"])
	res.HostScale = median(series.of("host_scale"))
	res.Attempted, res.Failed = series.attempted, series.failed
	res.Correct = res.Failed == 0
	return res, nil
}
