// Command benchmark is wposbench: the one instrument every performance
// claim about this repository is measured with.  From one process it
// drives the system through its public API only, on six workloads and two
// clocks — modeled cycles and host time — and reads each layer from
// outside.  See README.md in this directory.
//
// One workload, as BENCHMARK.json's command runs it:
//
//	go run ./benchmark --workload fileops_read --seed 1 --seconds 10 --trace 0
//
// The whole suite into a record, two records compared, the suite checked
// against itself:
//
//	go run ./benchmark -seed 1 -out A.json [-trace-out spans.json]
//	go run ./benchmark -compare A.json B.json
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload and print one result line (default: the whole suite)")
		seed      = flag.Uint64("seed", 1, "seed of the generated operation streams")
		seconds   = flag.Float64("seconds", runSeconds, "how long one run's timed passes measure")
		trace     = flag.Int("trace", 0, "with -workload: 1 = the traced run, printing the per-layer metrics")
		passes    = flag.Int("passes", 0, "run exactly this many timed passes instead of measuring for -seconds")
		out       = flag.String("out", "", "suite: write the record to this file")
		traceOut  = flag.String("trace-out", "", "write the traced run's spans to this file when the run ends")
		compare   = flag.Bool("compare", false, "compare two records: -compare A.json B.json")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice and fail if the two disagree beyond a bound")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json as the benchmark's own tables define it")
	)
	flag.Parse()

	opts := options{
		workload: *name, seed: *seed, seconds: *seconds, passes: *passes,
		trace: *trace != 0, setups: defaultSetups, warmups: defaultWarmups,
	}
	var err error
	switch {
	case *manifest:
		var b []byte
		if b, err = json.MarshalIndent(newManifest(), "", "  "); err == nil {
			fmt.Println(string(b))
		}
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two record files")
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = selfCheck(opts)
	case *name != "":
		err = runOne(opts, *traceOut)
	default:
		var rec *record
		if rec, err = runSuite(opts, *traceOut); err == nil {
			err = rec.finish(*out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wposbench:", err)
		os.Exit(1)
	}
}

// resultLine is the last line of standard output of a one-workload run.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload, prints its metrics by name and then the
// result line.  A run whose output was wrong still prints, and fails.
func runOne(o options, traceOut string) error {
	res, err := runWorkload(o)
	if err != nil {
		return err
	}
	if traceOut != "" && o.trace {
		if err := writeSpans(traceOut, map[string][]span{o.workload: res.spans}); err != nil {
			return err
		}
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	printMetrics(res, specs)
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lineMetric{}}
	for _, spec := range specs {
		m := res.Metrics[spec.Name]
		line.Metrics[spec.Name] = lineMetric{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d checks failed", o.workload, res.Failed, res.Attempted)
	}
	return nil
}

// printMetrics lists every metric with unit, sample count and direction.
func printMetrics(res *result, specs []metricSpec) {
	fmt.Printf("%s seed=%d passes=%d attempted=%d failed=%d", res.Workload, res.Seed, res.Passes, res.Attempted, res.Failed)
	if res.Note != "" {
		fmt.Printf("  (%s)", res.Note)
	}
	fmt.Println()
	for _, spec := range specs {
		m := res.Metrics[spec.Name]
		fmt.Printf("  %-32s %16.4f %-10s n=%-6d %s is better\n", spec.Name, m.Value, m.Unit, m.Samples, spec.Better)
	}
}

// record is the suite's output: every workload's end-to-end and
// per-layer metrics and what they were measured on.
type record struct {
	Seed      uint64             `json:"seed"`
	Commit    string             `json:"commit"`
	NumCPU    int                `json:"nproc"`
	GoVersion string             `json:"go_version"`
	Seconds   float64            `json:"seconds"`
	Caches    string             `json:"caches"`
	Workloads map[string]*suites `json:"workloads"`
}

// suites pairs one workload's two runs.
type suites struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runSuite runs every workload twice: untraced for the end-to-end
// metrics, then traced for the per-layer ones.
func runSuite(o options, traceOut string) (*record, error) {
	rec := &record{
		Seed: o.seed, Commit: commit(), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Seconds: o.seconds,
		Caches:    "statistics start after set-up and 3 discarded passes; every pass boots afresh, so modeled caches start as boot and volume population left them",
		Workloads: map[string]*suites{},
	}
	spans := map[string][]span{}
	for _, w := range workloadSpecs {
		o.workload = w.Name
		o.trace = false
		e2e, err := runWorkload(o)
		if err != nil {
			return nil, err
		}
		printMetrics(e2e, endToEnd)
		o.trace = true
		layers, err := runWorkload(o)
		if err != nil {
			return nil, err
		}
		printMetrics(layers, perLayer)
		spans[w.Name] = layers.spans
		rec.Workloads[w.Name] = &suites{e2e, layers}
	}
	if traceOut != "" {
		if err := writeSpans(traceOut, spans); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// finish writes the record and fails when any output was wrong.
func (rec *record) finish(path string) error {
	if path != "" {
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	for name, s := range rec.Workloads {
		for _, r := range []*result{s.EndToEnd, s.PerLayer} {
			if !r.Correct {
				return fmt.Errorf("%s: %d of %d checks failed", name, r.Failed, r.Attempted)
			}
		}
	}
	return nil
}
