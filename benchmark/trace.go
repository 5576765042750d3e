package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cpu"
	"repro/internal/klat"
	"repro/internal/kstat"
)

// The traced run.  Per-layer numbers come from here and only from here:
// passes with kprof attached, the kstat delta and a fresh klat tracker
// around every timed window, a Go CPU profile over all of them, spans
// around every pass, window and API call kept in memory, and then the
// layer probes.  End-to-end metrics are never taken from these passes.

// span is one interval the benchmark recorded around a call it made.
// Spans of one API call (one request) share Req; a window's and a pass's
// spans have Req 0.  SelfNS is the span's duration less its children's.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// spanLog is the in-memory span buffer; nothing is written before the
// run ends.
type spanLog struct {
	spans []span
	reqs  int
}

// open appends a span and returns its ID.
func (l *spanLog) open(parent int, name string, start, end int64, request bool) int {
	s := span{ID: len(l.spans) + 1, Parent: parent, Name: name, StartNS: start, EndNS: end}
	if request {
		l.reqs++
		s.Req = l.reqs
	}
	l.spans = append(l.spans, s)
	return s.ID
}

// addPass records one traced pass as a three-level tree: pass, timed
// windows, API calls.
func (l *spanLog) addPass(n int, pr *passResult) {
	pass := l.open(0, fmt.Sprintf("pass %d", n), pr.start, pr.end, false)
	for i := range pr.parts {
		p := &pr.parts[i]
		win := l.open(pass, p.name, p.start, p.end, false)
		for _, op := range p.ops {
			l.open(win, "api", op.start, op.start+op.ns, true)
		}
	}
}

// setSelf fills every span's self time: its duration less the part of it
// its children cover.  Children may overlap (clients_smp's four clients
// call at once), so what counts is the union of their intervals.
func (l *spanLog) setSelf() {
	children := map[int][]int{}
	for i, s := range l.spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	for i := range l.spans {
		s := &l.spans[i]
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b int) int { return cmp.Compare(l.spans[a].StartNS, l.spans[b].StartNS) })
		covered, until := int64(0), s.StartNS
		for _, k := range kids {
			from, to := max(l.spans[k].StartNS, until), l.spans[k].EndNS
			if to > from {
				covered += to - from
				until = to
			}
		}
		s.SelfNS = s.EndNS - s.StartNS - covered
	}
}

// writeSpans writes the span trees of the traced runs, by workload.
func writeSpans(path string, spans map[string][]span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traceResult is what the traced passes produced: per-layer metrics by
// name, the span log, the raw CPU profile, and their share of the run's
// verification counts.
type traceResult struct {
	metrics   map[string]metric
	spans     []span
	profile   []byte
	attempted int
	failed    int
}

func (t *traceResult) put(name string, v float64, samples int) {
	t.metrics[name] = metric{Value: v, Samples: samples}
}

// complete gives every metric its unit and fails if the run measured
// fewer metrics than the benchmark declares.
func (t *traceResult) complete() error {
	for _, spec := range perLayer {
		m, ok := t.metrics[spec.Name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", spec.Name)
		}
		m.Unit = spec.Unit
		t.metrics[spec.Name] = m
	}
	return nil
}

// layerSums accumulates everything the traced windows observed.
type layerSums struct {
	passes   int
	layer    map[string]uint64 // kprof cycles by layer
	kind     map[string]uint64 // kprof cycles by stall kind
	imissX   uint64            // I-cache refill cycles inside mach's crossing regions
	devStall uint64            // stall cycles inside the driver regions
	profSum  uint64
	ctr      cpu.Counters
	counters map[string]uint64 // kstat counter deltas, summed
	disk     uint64            // sectors the disk moved

	fsService, drvService kstat.HistSnapshot
	queueSum              uint64
	fsSelf                []float64 // Own cycles of retained fileserver exemplars
	drvQueue              uint64    // pool wait behind the driver's one slot
	poolWait, cpuWait     uint64
}

func (a *layerSums) addPart(p *part) {
	a.ctr.Cycles += p.ctr.Cycles
	a.ctr.Instructions += p.ctr.Instructions
	a.ctr.BusCycles += p.ctr.BusCycles
	a.disk += p.disk
	for i := range p.prof.Samples {
		s := &p.prof.Samples[i]
		layer, ok := regionLayer[s.Region]
		if !ok {
			layer = layerOther
		}
		a.layer[layer] += s.Cycles
		a.profSum += s.Cycles
		a.kind[s.Kind] += s.Cycles
		if layer == layerMach && s.Kind == cpu.ProfIMiss.String() {
			a.imissX += s.Cycles
		}
		if layer == layerDrivers && s.Kind == cpu.ProfStall.String() {
			a.devStall += s.Cycles
		}
	}
	for name, v := range p.stats.Counters {
		a.counters[name] += v
	}
	if p.tail == nil {
		return
	}
	for i := range p.tail.Families {
		f := &p.tail.Families[i]
		a.queueSum += f.Queue.Sum
		switch f.Server {
		case "fileserver":
			a.fsService = a.fsService.Merge(f.Service)
		case "blockdrv":
			a.drvService = a.drvService.Merge(f.Service)
		}
		for j := range f.Exemplars {
			if f.Server == "fileserver" {
				a.fsSelf = append(a.fsSelf, float64(f.Exemplars[j].Own))
			}
			a.addSched(&f.Exemplars[j])
		}
	}
}

// addSched walks one exemplar's hop tree for the modeled schedule the
// dispatcher settled: the driver's pool has one slot, the disk arm, so
// waiting on it is arm queueing.
func (a *layerSums) addSched(h *klat.HopDump) {
	if h.Server == "blockdrv" {
		a.drvQueue += h.SchedPoolWait
	} else {
		a.poolWait += h.SchedPoolWait
	}
	a.cpuWait += h.SchedCPUWait
	for i := range h.Children {
		a.addSched(&h.Children[i])
	}
}

// prefixSum adds up the counters whose name starts with prefix and ends
// with suffix.
func (a *layerSums) prefixSum(prefix, suffix string) (t uint64) {
	for name, v := range a.counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			t += v
		}
	}
	return t
}

// traced runs the traced passes and builds every per-layer metric that
// comes from them; the probes and the folded CPU profile are added by
// the caller.
func (r *runner) traced(untraced *passSeries) (*traceResult, error) {
	out := &traceResult{metrics: map[string]metric{}}
	put := out.put

	var cpuProf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuProf); err != nil {
		return nil, err
	}
	r.h.trace = true
	tracedSeries := newPassSeries(deterministic(r.opts.workload))
	sums := &layerSums{layer: map[string]uint64{}, kind: map[string]uint64{}, counters: map[string]uint64{}}
	var log spanLog
	var makespans, opVT, opUS []float64
	var last passResult
	mem0 := readMem()
	err := r.passes(0.35, func(pr *passResult, failed int) {
		tracedSeries.add(pr, failed)
		log.addPass(sums.passes, pr)
		sums.passes++
		for i := range pr.parts {
			sums.addPart(&pr.parts[i])
			for _, op := range pr.parts[i].ops {
				opUS = append(opUS, float64(op.ns)/1e3)
				if pr.makespan > 0 {
					opVT = append(opVT, float64(op.cycles))
				}
			}
		}
		makespans = append(makespans, float64(pr.makespan))
		sums.counters["sched.migrations"] += pr.migrations
		sums.counters["sched.steals"] += pr.steals
		last = *pr
	})
	mem1 := readMem()
	r.h.trace = false
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	log.setSelf()
	out.spans = log.spans
	out.profile = cpuProf.Bytes()
	out.attempted, out.failed = tracedSeries.attempted, tracedSeries.failed

	n := float64(sums.passes)
	perPass := func(v uint64) float64 { return float64(v) / n }
	count := func(name string) float64 { return perPass(sums.counters[name]) }
	layer := func(l string) float64 { return perPass(sums.layer[l]) }
	slices.Sort(opUS)
	slices.Sort(opVT)
	apiCalls := float64(len(opUS)) / n

	put("model.validated_cells", float64(last.cells), sums.passes)
	put("model.accuracy_err", last.accErr, sums.passes)

	put("os2.api_calls", perPass(sums.prefixSum("os2.api.", "")), sums.passes)
	put("os2.model_cycles", layer(layerOS2), sums.passes)
	put("os2.op_host_us_p50", quantile(opUS, 0.5), len(opUS))

	put("mach.rpc_calls", count("mach.rpc.calls"), sums.passes)
	put("mach.kernel_entries", count("mach.kernel.entries"), sums.passes)
	put("mach.rpc_batched", count("mach.rpc.batched"), sums.passes)
	put("mach.ool_bytes_mapped", count("mach.ool.bytes_mapped"), sums.passes)
	put("mach.crossings_per_op", ratio(count("mach.rpc.calls"), apiCalls), sums.passes)
	put("mach.crossing_model_cycles", layer(layerMach), sums.passes)
	put("mach.crossing_imiss_cycles", perPass(sums.imissX), sums.passes)
	put("mach.klat_queue_cycles", perPass(sums.queueSum), sums.passes)

	sortedSpans := sortedCopy(makespans)
	put("mach.sched_makespan_cycles_p50", quantile(sortedSpans, 0.5), sums.passes)
	put("mach.sched_makespan_spread",
		ratio(sortedSpans[len(sortedSpans)-1]-sortedSpans[0], quantile(sortedSpans, 0.5)), sums.passes)
	put("mach.sched_migrations", count("sched.migrations"), sums.passes)
	put("mach.sched_steals", count("sched.steals"), sums.passes)
	put("mach.sched_pool_wait_vcycles", perPass(sums.poolWait), sums.passes)
	put("mach.sched_cpu_wait_vcycles", perPass(sums.cpuWait), sums.passes)
	put("mach.sched_op_vcycles_p50", quantile(opVT, 0.5), len(opVT))
	put("mach.sched_op_vcycles_p99", quantile(opVT, 0.99), len(opVT))

	put("cpu.instr", perPass(sums.ctr.Instructions), sums.passes)
	put("cpu.cpi", sums.ctr.CPI(), sums.passes)
	put("cpu.bus_cycles", perPass(sums.ctr.BusCycles), sums.passes)
	for k := cpu.ProfKind(0); k < cpu.NumProfKinds; k++ {
		put("cpu."+k.String()+"_cycles", perPass(sums.kind[k.String()]), sums.passes)
	}

	put("vm.faults", count("vm.faults"), sums.passes)
	put("pager.pageins", count("pager.pageins"), sums.passes)

	vfsOps := perPass(sums.prefixSum("vfs.ops.", ""))
	requests := perPass(sums.prefixSum("drivers.io.", ":handle"))
	put("vfs.ops", vfsOps, sums.passes)
	put("vfs.model_cycles", layer(layerVFS), sums.passes)
	put("vfs.service_cycles_p50", float64(sums.fsService.Quantile(0.5)), int(sums.fsService.Count))
	put("vfs.service_cycles_p99", float64(sums.fsService.Quantile(0.99)), int(sums.fsService.Count))
	put("vfs.exemplar_self_cycles_p50", median(sums.fsSelf), len(sums.fsSelf))
	put("vfs.driver_calls_per_op", ratio(requests, vfsOps), sums.passes)

	hits, misses := count("bcache.hits"), count("bcache.misses")
	put("bcache.hits", hits, sums.passes)
	put("bcache.misses", misses, sums.passes)
	put("bcache.hit_ratio", ratio(hits, hits+misses), sums.passes)
	put("bcache.readahead", count("bcache.readahead"), sums.passes)
	put("bcache.writeback", count("bcache.writeback"), sums.passes)
	put("bcache.writeback_per_write", ratio(count("bcache.writeback"), count("vfs.ops.write")), sums.passes)
	put("bcache.model_cycles", layer(layerBcache), sums.passes)

	put("drivers.requests", requests, sums.passes)
	put("drivers.sectors_per_request", ratio(perPass(sums.disk), requests), sums.passes)
	put("drivers.model_cycles", layer(layerDrivers)-perPass(sums.devStall), sums.passes)
	put("drivers.service_cycles_p50", float64(sums.drvService.Quantile(0.5)), int(sums.drvService.Count))
	put("drivers.queue_vcycles", perPass(sums.drvQueue), sums.passes)

	put("iosys.model_cycles", layer(layerIOSys), sums.passes)
	put("device.stall_cycles", perPass(sums.devStall), sums.passes)
	put("mono.model_cycles", float64(last.native), 1)
	put("other.model_cycles", layer(layerOther), sums.passes)

	base := median(untraced.of("host_pass_ms_p50"))
	put("kobs.trace_overhead_share", ratio(median(tracedSeries.of("host_pass_ms_p50"))-base, base), sums.passes)
	put("kobs.model_delta_cycles",
		median(tracedSeries.values["model_cycles"])-median(untraced.values["model_cycles"]), sums.passes)
	put("kobs.kprof_gap_cycles", perPass(sums.profSum)-perPass(sums.ctr.Cycles), sums.passes)
	var passNS, selfNS int64
	for _, s := range log.spans {
		if s.Req == 0 {
			selfNS += s.SelfNS
		}
		if s.Parent == 0 {
			passNS += s.EndNS - s.StartNS
		}
	}
	put("kobs.harness_self_share", ratio(float64(selfNS), float64(passNS)), sums.passes)

	put("host.gc_count", float64(mem1.gcs-mem0.gcs), sums.passes)
	put("host.gc_pause_ms", float64(mem1.pauseNS-mem0.pauseNS)/1e6, sums.passes)
	return out, nil
}

// putShares folds the traced passes' CPU profile into host.cpu_share.*.
func (t *traceResult) putShares() {
	shares, samples := foldProfile(t.profile)
	for _, bucket := range []string{"mach", "cpu", "vfs", "bcache", "drivers", "os2", "kobs", "runtime", "other"} {
		t.put("host.cpu_share."+bucket, shares[bucket], samples)
	}
}

// foldProfile folds a Go CPU profile by package with `go tool pprof
// -top` and returns each host.cpu_share bucket's share of the samples.
// A host without the tool gets zeros and a note on standard error: the
// modeled metrics do not depend on it.
func foldProfile(profile []byte) (map[string]float64, int) {
	shares := map[string]float64{}
	// Inside the build directory run.sh uses, which .gitignore names.
	err := os.MkdirAll(".bench_build", 0o755)
	var dir string
	if err == nil {
		dir, err = os.MkdirTemp(".bench_build", "pprof")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wposbench: cpu profile not folded:", err)
		return shares, 0
	}
	defer os.RemoveAll(dir)
	file := filepath.Join(dir, "cpu.pb.gz")
	if err := os.WriteFile(file, profile, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "wposbench: cpu profile not folded:", err)
		return shares, 0
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		abs = dir
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0", "-unit=ms", file)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+abs)
	text, err := cmd.Output()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wposbench: go tool pprof -top:", err)
		return shares, 0
	}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(text))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		shares[shareBucket(strings.Join(f[5:], " "))] += flat
		total += flat
	}
	for k := range shares {
		shares[k] = ratio(shares[k], total)
	}
	// The profiler samples at 100 Hz: 10 ms of CPU per sample.
	return shares, int(total / 10)
}

// shareBucket names the host.cpu_share bucket of one profiled function.
func shareBucket(fn string) string {
	// The package path ends at the first dot after the last slash.
	pkg := fn
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if b, ok := packageShare[pkg]; ok {
		return b
	}
	if !strings.Contains(pkg, ".") && !strings.HasPrefix(pkg, "repro/") && pkg != "main" {
		return "runtime" // standard library and runtime
	}
	return "other"
}
