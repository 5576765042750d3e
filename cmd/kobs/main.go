// Command kobs is the one observation command.  It boots Workplace OS,
// drives a workload, fetches the one dump of the observation planes from
// the monitor server — found through the name service, spoken to over the
// system's own RPC, like any other shared service — and renders one view
// of it.
//
// Usage:
//
//	kobs stat   [-format text|json|prom] [-family PREFIX] [-read FILE]
//	kobs top    [-iters N] [-interval D]                    live delta frames
//	kobs prof   [-format regions|servers|kinds|folded|json] [-top N] [-eprof]
//	kobs trace  [-format summary|tree|chrome|attr] [-ring N] [-trees N]
//	kobs flight [-format text|json] [-read FILE | -diff A B]
//	kobs tail   [-format text|json] [-top N] [-read FILE]
//
// Every subcommand takes the boot flags -workload, -cpus, -pool, -cache
// and -clients; `-workload none` observes the booted system alone.  The
// family filter and top's frame deltas are computed here, from the dump.
// The trace view is the one that does not go through the monitor: the
// event ring is attached in-process for the run.  flight and tail
// -format json write the whole dump; -read renders a dump saved that way
// or by the chaos harness as a stat, flight or tail view, and -diff
// compares two.  A view whose plane is not attached exits 1 naming it.
//
// Exit status is 2 for usage errors (unknown subcommand, workload or
// format) and 1 for everything else that fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kflight"
	"repro/internal/kprof"
	"repro/internal/kstat"
	"repro/internal/ktrace"
	"repro/internal/monitor"
	"repro/internal/workload"
)

var workloads = map[string]workload.Row{
	"file1":    workload.FileIntensive1,
	"file2":    workload.FileIntensive2,
	"gfx-low":  workload.GraphicsLow,
	"gfx-med":  workload.GraphicsMedium,
	"gfx-high": workload.GraphicsHigh,
	"pm-med":   workload.PMTaskingMedium,
	"pm-high":  workload.PMTaskingHigh,
}

// commands maps each subcommand to its setup: it registers the
// subcommand's own flags and returns what runs once they are parsed.
var commands = map[string]func(fs *flag.FlagSet, b *boot) func(){
	"stat":   statCmd,
	"top":    topCmd,
	"prof":   profCmd,
	"trace":  traceCmd,
	"flight": flightCmd,
	"tail":   tailCmd,
}

func main() {
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: kobs stat|top|prof|trace|flight|tail [flags]  (kobs <subcommand> -h for flags)")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("kobs "+os.Args[1], flag.ExitOnError)
	b := &boot{}
	fs.StringVar(&b.workload, "workload", "file1", "traffic source: file1, file2, gfx-low, gfx-med, gfx-high, pm-med, pm-high, none")
	fs.IntVar(&b.cpus, "cpus", 1, "processing engines (SMP complex when > 1)")
	fs.IntVar(&b.pool, "pool", 1, "server threads per RPC server")
	fs.IntVar(&b.cache, "cache", 0, "file-server buffer cache size in sectors (0 = off)")
	fs.IntVar(&b.clients, "clients", 1, "concurrent copies of the workload (exercises the SMP dispatcher)")
	run := commands[os.Args[1]](fs, b)
	fs.Parse(os.Args[2:])
	run()
}

// boot is the flag set every subcommand shares.
type boot struct {
	workload                   string
	cpus, pool, cache, clients int
}

// row resolves -workload; ok is false for "none", which is a usage
// error where a view needs traffic, as is an unknown name.
func (b *boot) row(need bool) (row workload.Row, ok bool) {
	row, ok = workloads[b.workload]
	switch {
	case ok:
	case b.workload != "none":
		usageErr("unknown workload %q", b.workload)
	case need:
		usageErr("this view needs a workload to observe")
	}
	return row, ok
}

// system boots Workplace OS with the boot flags.
func (b *boot) system() *core.System {
	cfg := core.DefaultConfig()
	cfg.CPUs, cfg.ServerPool, cfg.CacheSectors = b.cpus, b.pool, b.cache
	s, err := core.Boot(cfg)
	check(err)
	return s
}

// connect finds the monitor through the name service and connects to it
// over RPC — the observation plane uses the shared-service plumbing it
// observes.
func connect(s *core.System) *monitor.Client {
	bind, err := s.Names.Lookup("/servers/monitor")
	check(err)
	th, err := s.Kernel.NewTask("kobs").NewBoundThread("main")
	check(err)
	c, err := monitor.Connect(th, bind.Task, bind.Port)
	check(err)
	return c
}

// drive runs -clients concurrent copies of the workload, each against its
// own processes (on an SMP boot the dispatcher spreads the resulting RPC
// bursts across the engines), and returns the first copy's result.
func (b *boot) drive(s *core.System, row workload.Row) workload.Result {
	res := make([]workload.Result, max(b.clients, 1))
	check(bench.Clients(len(res), func(i int) (err error) {
		res[i], err = workload.Run(row, s.WorkloadEnv())
		return err
	}))
	return res[0]
}

// format registers -format with its allowed values; the returned getter
// rejects anything else as a usage error.
func format(fs *flag.FlagSet, def string, allowed ...string) func() string {
	f := fs.String("format", def, "output: "+strings.Join(allowed, ", "))
	return func() string {
		for _, a := range allowed {
			if *f == a {
				return a
			}
		}
		usageErr("unknown format %q", *f)
		return ""
	}
}

func statCmd(fs *flag.FlagSet, b *boot) func() {
	form := format(fs, "text", "text", "json", "prom")
	family := fs.String("family", "", "restrict output to metrics with this name prefix")
	read := readFlag(fs)
	return func() {
		f := form()
		d := b.dump(*read)
		attached(d.Stats.Counters != nil, "kstat")
		snap := d.Stats.Filter(*family) // "" matches every family
		switch f {
		case "text":
			check(kstat.WriteText(os.Stdout, snap))
		case "json":
			writeJSON(snap)
		case "prom":
			check(kstat.WriteProm(os.Stdout, snap))
		}
	}
}

// topCmd renders a live view: each frame drives the workload once,
// fetches a dump, takes its delta against the previous frame's, and
// redraws.
func topCmd(fs *flag.FlagSet, b *boot) func() {
	iters := fs.Int("iters", 5, "workload iterations (one frame each)")
	interval := fs.Duration("interval", 500*time.Millisecond, "delay between frames")
	return func() {
		row, _ := b.row(true)
		s := b.system()
		c := connect(s)
		prev := stats(c)
		for i := 0; i < *iters; i++ {
			start := time.Now()
			res := b.drive(s, row)
			cur := stats(c)
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
			renderFrame(cur.Delta(prev), prev, res, i+1, *iters, time.Since(start))
			prev = cur
			if i < *iters-1 {
				time.Sleep(*interval)
			}
		}
	}
}

// stats fetches a dump and returns its kstat section.
func stats(c *monitor.Client) kstat.Snapshot {
	d, err := c.Dump()
	check(err)
	attached(d.Stats.Counters != nil, "kstat")
	return d.Stats
}

// renderFrame draws one frame from its delta d; gauges are levels, so the
// per-engine cycle gauges take their frame delta against prev.
func renderFrame(d, prev kstat.Snapshot, res workload.Result, frame, iters int, wall time.Duration) {
	fmt.Printf("kobs top — %s  frame %d/%d  (%d modeled cycles, %v wall)\n\n",
		res.Row, frame, iters, res.Cycles, wall.Round(time.Millisecond))

	calls := d.Counters["mach.rpc.calls"]
	fmt.Printf("RPC       %8d calls  %6d errors  %10d B in  %10d B out  kernel entries %d\n",
		calls, d.Counters["mach.rpc.errors"],
		d.Counters["mach.rpc.bytes_in"], d.Counters["mach.rpc.bytes_out"],
		d.Counters["mach.kernel.entries"])
	fmt.Printf("fastpath  %8d batched sub-calls  %10d B OOL-mapped\n",
		d.Counters["mach.rpc.batched"], d.Counters["mach.ool.bytes_mapped"])
	if h, ok := d.Histograms["mach.rpc.latency_cycles"]; ok && h.Count > 0 {
		fmt.Printf("latency   p50=%d  p99=%d  max=%d cycles  (n=%d, mean=%.0f)\n",
			h.Quantile(0.5), h.Quantile(0.99), h.Max(), h.Count, h.Mean())
	}

	// Per-server call split, busiest first.
	type srvRow struct {
		name  string
		calls uint64
	}
	var srvs []srvRow
	for name, v := range d.Counters {
		if rest, ok := strings.CutPrefix(name, "mach.rpc.to."); ok {
			srvs = append(srvs, srvRow{strings.TrimSuffix(rest, ".calls"), v})
		}
	}
	sort.Slice(srvs, func(i, j int) bool {
		if srvs[i].calls != srvs[j].calls {
			return srvs[i].calls > srvs[j].calls
		}
		return srvs[i].name < srvs[j].name
	})
	if len(srvs) > 0 {
		fmt.Printf("\n%-16s %10s %8s\n", "SERVER", "CALLS", "SHARE")
		for _, r := range srvs {
			fmt.Printf("%-16s %10d %7.1f%%\n", r.name, r.calls, pct(r.calls, calls))
		}
	}

	// Engines: per-CPU share of the frame's modeled cycles plus dispatch
	// traffic — present only on SMP boots (cpu.engines gauge).
	if n, ok := d.Gauges["cpu.engines"]; ok && n > 0 {
		deltas := make([]int64, n)
		var total int64
		for i := int64(0); i < n; i++ {
			name := fmt.Sprintf("cpu.e%d.cycles", i)
			deltas[i] = d.Gauges[name] - prev.Gauges[name]
			total += deltas[i]
		}
		fmt.Printf("\n%-8s %14s %8s %6s %10s %10s %8s\n",
			"ENGINE", "CYCLES", "UTIL", "RUNQ", "DISPATCH", "MIGRATE", "STEAL")
		for i := int64(0); i < n; i++ {
			fmt.Printf("e%-7d %14d %7.1f%% %6d %10d %10d %8d\n", i, deltas[i],
				pct(uint64(deltas[i]), uint64(total)),
				d.Gauges[fmt.Sprintf("cpu.e%d.runq", i)],
				d.Counters[fmt.Sprintf("cpu.e%d.dispatches", i)],
				d.Counters[fmt.Sprintf("cpu.e%d.migrations", i)],
				d.Counters[fmt.Sprintf("cpu.e%d.steals", i)])
		}
	}

	// Server pools: current occupancy (gauges) and ops this frame.
	var pools []string
	for name := range d.Gauges {
		if rest, ok := strings.CutPrefix(name, "mach.pool."); ok {
			if p, ok := strings.CutSuffix(rest, ".workers"); ok {
				pools = append(pools, p)
			}
		}
	}
	sort.Strings(pools)
	if len(pools) > 0 {
		fmt.Printf("\n%-24s %8s %8s %10s\n", "POOL", "BUSY", "WORKERS", "OPS")
		for _, p := range pools {
			fmt.Printf("%-24s %8d %8d %10d\n", p,
				d.Gauges["mach.pool."+p+".busy"],
				d.Gauges["mach.pool."+p+".workers"],
				d.Counters["mach.pool."+p+".ops"])
		}
	}

	// Buffer cache: hit ratio plus the dirty-sector level, keyed on the
	// bcache.dirty gauge the cache pre-registers at construction.
	if dirty, ok := d.Gauges["bcache.dirty"]; ok {
		hits, misses := d.Counters["bcache.hits"], d.Counters["bcache.misses"]
		fmt.Printf("\n%-8s %8d hits %8d misses  %5.1f%% hit  ra=%d wb=%d  bcache_dirty=%d\n",
			"bcache", hits, misses, pct(hits, hits+misses),
			d.Counters["bcache.readahead"], d.Counters["bcache.writeback"], dirty)
	}

	// Subsystem one-liners, only when the frame touched them.
	sub := []struct{ label, a, b string }{
		{"vfs", "vfs.ops.read", "vfs.ops.write"},
		{"pager", "pager.pageins", "pager.pageouts"},
		{"netsvc", "netsvc.sent", "netsvc.delivered"},
		{"ksync", "ksync.kernel_ops", "ksync.user_ops"},
	}
	fmt.Println()
	for _, r := range sub {
		if d.Counters[r.a]+d.Counters[r.b] > 0 {
			fmt.Printf("%-8s %s=%d %s=%d\n", r.label, r.a, d.Counters[r.a], r.b, d.Counters[r.b])
		}
	}
}

// profCmd opens a profile window over the monitor, drives the workload
// inside it, and renders the exact cycle attribution: which code regions
// the cycles landed in and why (base issue, I-cache, D-cache, TLB,
// switch, stall).
func profCmd(fs *flag.FlagSet, b *boot) func() {
	form := format(fs, "regions", "regions", "servers", "kinds", "folded", "json")
	topN := fs.Int("top", 20, "rows to show in table formats (0 = all)")
	eprof := fs.Bool("eprof", false, "run the E-PROF experiment instead of a workload profile")
	return func() {
		if *eprof {
			runEPROF()
			return
		}
		f := form()
		row, _ := b.row(true)
		s := b.system()
		c := connect(s)
		check(c.ProfStart())
		res := b.drive(s, row)
		check(c.ProfStop())
		d, err := c.Dump()
		check(err)
		attached(d.Profile != nil, "kprof")
		prof := *d.Profile
		switch f {
		case "folded":
			check(prof.WriteFolded(os.Stdout))
		case "json":
			writeJSON(prof)
		case "regions":
			profTable("REGION", prof, res, prof.ByRegion(), *topN)
		case "servers":
			profTable("CONTEXT", prof, res, prof.ByServer(), *topN)
		case "kinds":
			profTable("KIND", prof, res, prof.ByKind(), 0)
		}
	}
}

// profTable prints the window summary — how much of the workload's
// modeled cost the profile attributed: all of it, by the exactness
// contract, minus only the cycles of the prof.stop query itself — then an
// aggregated view with a per-kind percentage breakdown.
func profTable(label string, p kprof.Profile, res workload.Result, rows []kprof.Agg, topN int) {
	cycles, bus, instr := p.Totals()
	fmt.Printf("kprof — %s: attributed %d cycles (%d bus, %d instr) in %d samples; workload modeled %d cycles\n\n",
		res.Row, cycles, bus, instr, len(p.Samples), res.Cycles)
	var total uint64
	for _, r := range rows {
		total += r.Cycles
	}
	fmt.Printf("%-28s %12s %6s  %5s %5s %5s %5s %5s %5s\n",
		label, "CYCLES", "SHARE", "base", "imiss", "dmiss", "tlb", "switch", "stall")
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	for _, r := range rows {
		name := r.Name
		if len(name) > 28 {
			name = name[:25] + "..."
		}
		fmt.Printf("%-28s %12d %5.1f%%  ", name, r.Cycles, pct(r.Cycles, total))
		var pcts []string
		for kind := cpu.ProfKind(0); kind < cpu.NumProfKinds; kind++ {
			pcts = append(pcts, fmt.Sprintf("%4.0f%%", pct(r.ByKind[kind], r.Cycles)))
		}
		fmt.Println(strings.Join(pcts, " "))
	}
}

// runEPROF prints the E-PROF ledger: the exact decomposition of Table 2's
// trap-vs-RPC cycle gap.
func runEPROF() {
	res, err := bench.EPROF()
	check(err)
	fmt.Println("E-PROF — exact profile of one thread_self trap vs one 32-byte RPC")
	fmt.Printf("(paper Table 2: trap 970 cycles CPI 2.0, RPC 5163 cycles CPI 3.9, gap blamed on I-cache misses)\n\n")
	fmt.Printf("%-12s %10s %10s %10s   exact\n", "OP", "CYCLES", "INSTR", "BUS")
	for _, op := range []bench.OpProfile{res.Trap, res.RPC} {
		fmt.Printf("%-12s %10d %10d %10d   %v\n", op.Name,
			op.Counters.Cycles, op.Counters.Instructions, op.Counters.BusCycles, op.Exact)
	}
	fmt.Printf("\nRPC - trap gap: %d cycles, by stall kind:\n", res.GapCycles)
	for kind := cpu.ProfKind(0); kind < cpu.NumProfKinds; kind++ {
		share := 0.0
		if res.GapCycles != 0 {
			share = 100 * float64(res.GapByKind[kind]) / float64(res.GapCycles)
		}
		marker := ""
		if kind == res.Largest {
			marker = "  <- largest"
		}
		fmt.Printf("  %-6s %+7d cycles  %5.1f%%%s\n", kind, res.GapByKind[kind], share, marker)
	}
	fmt.Printf("\nI-cache share of the gap: %.1f%% — the paper's attribution, now a number.\n",
		100*res.IMissShare)
}

// traceCmd runs the workload with kernel event tracing attached and
// dumps the trace.  Tracing is observation-only: the traced run consumes
// exactly the cycles an untraced run would.
func traceCmd(fs *flag.FlagSet, b *boot) func() {
	form := format(fs, "summary", "summary", "tree", "chrome", "attr")
	ring := fs.Int("ring", ktrace.DefaultRingSize, "trace ring capacity in events")
	trees := fs.Int("trees", 5, "causal trees to print in tree format")
	return func() {
		f := form()
		row, _ := b.row(true)
		w := os.Stdout
		if f == "attr" {
			// E-ATTR boots its own pair of systems (WPOS and native).
			res, err := bench.Attribution(row)
			check(err)
			printAttribution(w, res)
			return
		}
		s := b.system()
		tr := ktrace.AttachSized(s.Kernel.CPU, *ring)
		res := b.drive(s, row)
		switch f {
		case "chrome":
			// Buffer the per-event stream: a full ring is hundreds of
			// thousands of small writes, but never the whole JSON in memory.
			bw := bufio.NewWriter(w)
			check(ktrace.WriteChromeTrace(bw, tr.Events()))
			check(bw.Flush())
		case "summary":
			fmt.Fprintf(w, "%s on %s: %d cycles\n\n", res.Row, res.Env, res.Cycles)
			check(ktrace.WriteSummary(w, tr))
		case "tree":
			ktrace.WriteTree(w, tr.Events(), *trees)
		}
	}
}

func printAttribution(w io.Writer, res bench.AttributionResult) {
	fmt.Fprintf(w, "E-ATTR: %s\n", res.Row)
	fmt.Fprintf(w, "  WPOS cycles    %12d (traced run: %d, dropped events: %d)\n",
		res.WPOSCycles, res.TracedCycles, res.Dropped)
	fmt.Fprintf(w, "  native cycles  %12d\n", res.NativeCycles)
	fmt.Fprintf(w, "  gap            %12d\n\n", res.Gap)
	fmt.Fprintf(w, "  %-12s %7s %14s %9s\n", "subsystem", "spans", "cycles(excl)", "crossing")
	for _, s := range res.Subsystems {
		mark := ""
		switch s.Subsystem { // bench's crossing classification
		case "mach.rpc", "mach.ipc", "iosys", "drivers":
			mark = "yes"
		}
		fmt.Fprintf(w, "  %-12s %7d %14d %9s\n", s.Subsystem, s.Spans, s.Cycles, mark)
	}
	fmt.Fprintf(w, "\n  crossing cycles %d = %.1f%% of the gap\n",
		res.CrossingCycles, 100*res.CrossingShare)
}

// flightCmd fetches a postmortem flight dump and renders it: the last-K
// events per engine, the wait-for graph with any deadlock cycles named,
// scheduler state and the outstanding-work gauges.
func flightCmd(fs *flag.FlagSet, b *boot) func() {
	form := format(fs, "text", "text", "json")
	read := readFlag(fs)
	diff := fs.Bool("diff", false, "diff two saved dump files (args: a.json b.json)")
	return func() {
		f := form()
		if *diff {
			if fs.NArg() != 2 {
				usageErr("-diff needs exactly two dump files")
			}
			kflight.Diff(os.Stdout, readDump(fs.Arg(0)), readDump(fs.Arg(1)))
			return
		}
		d := b.dump(*read)
		attached(d.Engines != nil, "kflight")
		if f == "json" {
			writeJSON(d)
			return
		}
		check(d.WriteText(os.Stdout))
	}
}

// tailCmd fetches the tail-latency dump and renders the per-(server, op)
// latency histograms with their queue/service/cross decompositions, then
// hop-by-hop waterfalls of the slowest retained exemplars — who the p99
// request waited on, hop by hop.
func tailCmd(fs *flag.FlagSet, b *boot) func() {
	form := format(fs, "text", "text", "json")
	top := fs.Int("top", 1, "exemplar waterfalls to show per (server, op) family")
	read := readFlag(fs)
	return func() {
		f := form()
		d := b.dump(*read)
		attached(d.Tail != nil, "klat")
		if f == "json" {
			writeJSON(d)
			return
		}
		tail := d.Tail
		check(tail.WriteText(os.Stdout))
		for i := range tail.Families {
			fam := &tail.Families[i]
			for j := 0; j < len(fam.Exemplars) && j < *top; j++ {
				fmt.Println()
				fam.Exemplars[j].WriteExemplar(os.Stdout)
			}
		}
	}
}

// readFlag registers -read, the saved dump a view renders instead of
// booting.
func readFlag(fs *flag.FlagSet) *string {
	return fs.String("read", "", "render a saved dump file instead of booting")
}

// dump returns the dump saved at path or, with no path, boots, drives the
// workload (if any) and fetches one from the monitor.
func (b *boot) dump(path string) *kflight.Dump {
	if path != "" {
		return readDump(path)
	}
	row, ok := b.row(false)
	s := b.system()
	c := connect(s)
	if ok {
		b.drive(s, row)
	}
	d, err := c.Dump()
	check(err)
	return d
}

// readDump parses a dump saved by flight or tail -format json or by the
// chaos harness.
func readDump(path string) *kflight.Dump {
	js, err := os.ReadFile(path)
	check(err)
	d := new(kflight.Dump)
	check(json.Unmarshal(js, d))
	return d
}

// attached exits 1 naming plane when the dump lacks that plane's section.
func attached(present bool, plane string) {
	if !present {
		fmt.Fprintln(os.Stderr, "kobs: plane not attached:", plane)
		os.Exit(1)
	}
}

// writeJSON prints v as indented JSON: the format -read takes back.
func writeJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	check(enc.Encode(v))
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kobs: "+format+"\n", args...)
	os.Exit(2)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kobs:", err)
		os.Exit(1)
	}
}
