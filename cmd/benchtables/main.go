// Command benchtables regenerates every table and figure of the paper's
// evaluation from the simulated system and prints them side by side with
// the published numbers.
//
// Usage:
//
//	benchtables            # everything but the cache and smp sweeps
//	benchtables -only 1    # Table 1 only
//	benchtables -only 2    # Table 2 only
//	benchtables -only ipc  # the IPC rework sweep
//	benchtables -only xfer # E-XFER: bulk-transfer modes
//	benchtables -only fig1 # the architecture figure
//	benchtables -only extras  # E5-E10 ablations
//	benchtables -only cache   # E-CACHE: buffer-cache size sweep
//	benchtables -only smp     # E-SMP: multiprocessor scaling curve
//	benchtables -cache 1024   # Table 1 with a 1024-sector buffer cache
//
// An unknown -only name is a usage error: exit status 2 and the valid
// names on standard error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
)

func main() {
	only := flag.String("only", "", "which artifact to regenerate: 1, 2, ipc, xfer, fig1, extras, cache, smp (default all but cache and smp)")
	cache := flag.Int("cache", 0, "file-server buffer cache size in sectors for Table 1 (0 = off, the paper's configuration)")
	flag.Parse()
	picked, err := pick(sections(*cache), *only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(2)
	}
	for _, s := range picked {
		s.print()
	}
}

// section is one artifact benchtables prints, under its -only name.
type section struct {
	name      string
	byDefault bool // printed when -only is not given
	print     func()
}

// sections lists every artifact in print order.
func sections(cacheSectors int) []section {
	return []section{
		{"fig1", true, figure1},
		{"1", true, func() { table1(cacheSectors) }},
		{"2", true, table2},
		{"ipc", true, ipcSweep},
		{"xfer", true, xferSweep},
		{"extras", true, extras},
		{"cache", false, cacheSweep},
		{"smp", false, smpCurve},
	}
}

// pick returns the sections -only selects: every default one when only is
// empty, else the one it names.  An unknown name is an error listing the
// valid ones.
func pick(all []section, only string) ([]section, error) {
	var picked []section
	var names []string
	for _, s := range all {
		if only == s.name || only == "" && s.byDefault {
			picked = append(picked, s)
		}
		names = append(names, s.name)
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("unknown section %q (valid: %s)", only, strings.Join(names, ", "))
	}
	return picked, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchtables:", err)
	os.Exit(1)
}

func figure1() {
	s, err := core.Boot(core.DefaultConfig())
	if err != nil {
		fail(err)
	}
	fmt.Println("Figure 1: The IBM Microkernel and Workplace OS (as booted)")
	fmt.Println()
	fmt.Print(s.RenderFigure1())
	fmt.Println()
	fmt.Println("boot transcript:")
	for _, l := range s.BootLog() {
		fmt.Println("  *", l)
	}
	fmt.Println()
}

func table1(cacheSectors int) {
	rows, err := bench.Table1Cache(cacheSectors)
	if err != nil {
		fail(err)
	}
	fmt.Println("Table 1: OS/2 Performance Comparisons")
	if cacheSectors > 0 {
		fmt.Printf("(WPOS OS/2 with a %d-sector unified buffer cache vs native OS/2 on 16 MB monolithic kernel)\n", cacheSectors)
	} else {
		fmt.Println("(WPOS OS/2 on 64 MB multi-server stack vs native OS/2 on 16 MB monolithic kernel)")
	}
	fmt.Println()
	fmt.Printf("%-19s %-24s %12s %14s %8s %8s\n",
		"Test", "Application Content", "WPOS cycles", "native cycles", "ratio", "paper")
	for _, r := range rows {
		fmt.Printf("%-19s %-24s %12d %14d %8.2f %8.2f\n",
			r.Row, r.Content, r.WPOS, r.Native, r.Ratio, r.Paper)
	}
	m, p := bench.Overall(rows)
	fmt.Printf("%-19s %-24s %12s %14s %8.2f %8.2f\n", "Overall", "", "", "", m, p)
	fmt.Println()
}

func table2() {
	t, err := bench.Table2()
	if err != nil {
		fail(err)
	}
	pp := bench.PaperTable2
	gi, gc, gb, gcpi := t.Ratios()
	pi, pc, pb, pcpi := pp.Ratios()
	fmt.Println("Table 2: Trap Versus RPC (thread_self vs 32-byte RPC)")
	fmt.Println()
	fmt.Printf("%-13s %12s %12s %8s | %10s %10s %8s\n",
		"", "thread_self", "32-byte RPC", "ratio", "paper trap", "paper RPC", "paper")
	row := func(name string, a, b, ra, pa, pb2, pr float64, f string) {
		fmt.Printf("%-13s %12s %12s %8.2f | %10s %10s %8.2f\n",
			name, fmt.Sprintf(f, a), fmt.Sprintf(f, b), ra,
			fmt.Sprintf(f, pa), fmt.Sprintf(f, pb2), pr)
	}
	row("Instructions", t.TrapInstr, t.RPCInstr, gi, pp.TrapInstr, pp.RPCInstr, pi, "%.0f")
	row("Cycles", t.TrapCycles, t.RPCCycles, gc, pp.TrapCycles, pp.RPCCycles, pc, "%.0f")
	row("Bus Cycles", t.TrapBus, t.RPCBus, gb, pp.TrapBus, pp.RPCBus, pb, "%.0f")
	row("CPI", t.TrapCPI, t.RPCCPI, gcpi, pp.TrapCPI, pp.RPCCPI, pcpi, "%.2f")
	fmt.Println()
	fmt.Println(bench.TrapVsRPCNote(t))
	fmt.Println()
}

func cacheSweep() {
	sizes := []int{0, 64, 256, 1024, 4096}
	pts, err := bench.CacheSweep(sizes)
	if err != nil {
		fail(err)
	}
	fmt.Println("E-CACHE: unified buffer cache, file-intensive Table 1 ratios by cache size")
	fmt.Println("(0 sectors = the seed's direct-to-driver path; native baseline is never cached)")
	fmt.Println()
	fmt.Printf("%14s %18s %18s\n", "cache sectors", "File Intensive 1", "File Intensive 2")
	for _, p := range pts {
		fmt.Printf("%14d %18.2f %18.2f\n", p.Sectors, p.FI1, p.FI2)
	}
	fmt.Println()
}

func smpCurve() {
	res, err := bench.ESMP()
	if err != nil {
		fail(err)
	}
	fmt.Println("E-SMP: multiprocessor scaling of the File Intensive 1 mix")
	fmt.Println("(8 concurrent OS/2 clients, 4-thread file-server pool, buffer cache on;")
	fmt.Println(" elapsed = virtual-time makespan of the burst schedule)")
	fmt.Println()
	row := func(p bench.SMPPoint) {
		fmt.Printf("%6d %10d %16d %12.0f %8.2fx %11d %8d %12d\n",
			p.CPUs, p.Ops, p.ElapsedCycles, p.OpsPerSec, p.Speedup,
			p.Migrations, p.Steals, p.CoherenceCycles)
	}
	fmt.Printf("%6s %10s %16s %12s %9s %11s %8s %12s\n",
		"cpus", "ops", "elapsed cycles", "ops/sec", "speedup", "migrations", "steals", "coher cycles")
	for _, p := range res.Curve {
		row(p)
	}
	if p := res.Raw; p.CPUs > 0 {
		fmt.Printf("\nraw driver path (cache off, %d cpus): every operation chains through the\nsingle-threaded block driver and its device time:\n", p.CPUs)
		row(p)
	}
	if p := res.Pinned; p.CPUs > 0 {
		fmt.Printf("\ndriver-pinned (cache on, block driver confined to one processor of %d\nvia processor_assign/task_assign):\n", p.CPUs)
		row(p)
	}
	fmt.Println()
	fmt.Println("The curve flattens past the pool size: beyond 4 engines the file server's")
	fmt.Println("4 worker threads are the bottleneck, not the CPU count — and the raw")
	fmt.Println("driver path shows the serialized-driver ceiling no CPU count lifts.")
	fmt.Println()
}

func ipcSweep() {
	pts, err := bench.IPCSweep()
	if err != nil {
		fail(err)
	}
	fmt.Println("IPC rework: classic mach_msg vs reworked RPC round trip")
	fmt.Println("(the paper reports a 2x-10x improvement depending on bytes transmitted)")
	fmt.Println()
	fmt.Printf("%10s %14s %14s %10s\n", "bytes", "old (cycles)", "new (cycles)", "speedup")
	for _, p := range pts {
		fmt.Printf("%10d %14d %14d %9.2fx\n", p.Size, p.OldCycles, p.NewCycles, p.Speedup)
	}
	fmt.Println()
}

func xferSweep() {
	rows, err := bench.XferSweep()
	if err != nil {
		fail(err)
	}
	fmt.Println("E-XFER: bulk-transfer modes, cycles per transferred payload")
	fmt.Println("(copy = payload copied inline/out-of-line; region = mapped by shared-memory")
	fmt.Printf(" descriptor, per-page map cost, zero per-byte copy; batched = %d sub-requests\n", bench.XferBatch)
	fmt.Println(" per carrier crossing, cycles shown per sub-request)")
	fmt.Println()
	fmt.Printf("%10s %14s %14s %14s\n", "bytes", "copy (cyc)", "region (cyc)", "batched (cyc)")
	for _, r := range rows {
		fmt.Printf("%10d %14d %14d %14d\n", r.Size, r.Copy, r.Region, r.Batched)
	}
	fmt.Println()
	fi, err := bench.XferFI(256)
	if err != nil {
		fail(err)
	}
	fmt.Printf("file-intensive ratios at a %d-sector cache, features off -> on:\n", fi.CacheSectors)
	fmt.Printf("  FI1 %.4f -> %.4f   FI2 %.4f -> %.4f\n", fi.OffFI1, fi.OnFI1, fi.OffFI2, fi.OnFI2)
	fmt.Println()
}

func extras() {
	fmt.Println("Supporting experiments (claims argued in the evaluation text)")
	fmt.Println()

	ns, err := bench.NameServices()
	if err != nil {
		fail(err)
	}
	fmt.Printf("E5  name service:       X.500-style %d cycles/lookup vs simplified %d  (%.1fx)\n",
		ns.FullCycles, ns.SimpleCycles, ns.Ratio)

	obj, err := bench.Objects()
	if err != nil {
		fail(err)
	}
	fmt.Printf("E6  object systems:     fine-grained %d cycles/datagram vs MK++-style %d  (%.2fx, %d B class metadata)\n",
		obj.FineCycles, obj.CoarseCycles, obj.Ratio, obj.MetadataBytes)

	mem, err := bench.MemFootprint()
	if err != nil {
		fail(err)
	}
	fmt.Printf("E7  two memory managers: %d allocations, %d B requested -> %d B resident (%.1fx) + %d B OS/2 metadata over %d kernel map entries\n",
		mem.Allocations, mem.RequestedBytes, mem.ResidentBytes, mem.Overhead, mem.MetadataBytes, mem.MapEntries)

	fss, err := bench.FSPersonality()
	if err != nil {
		fail(err)
	}
	fmt.Printf("E8  semantic union:     ")
	for _, r := range fss {
		fmt.Printf("[%s longnames=%v eas=%v casesens=%v] ", r.FS, r.LongNameOK, r.EAOK, r.CaseSensitive)
	}
	fmt.Println()

	drv, err := bench.DriverModels()
	if err != nil {
		fail(err)
	}
	fmt.Printf("E9  driver models:      ")
	for _, r := range drv {
		fmt.Printf("[%s %d cycles/op] ", r.Model, r.Cycles)
	}
	fmt.Println()

	tr, err := bench.MVMTranslator()
	if err != nil {
		fail(err)
	}
	fmt.Printf("E10 MVM translator:     interpreted %d cycles vs translated %d (cold %d); hot speedup %.1fx\n",
		tr.InterpCycles, tr.HotTransCycles, tr.ColdTransCycles, tr.Speedup)
	fmt.Println()
}
