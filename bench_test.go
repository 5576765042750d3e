package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kflight"
	"repro/internal/klat"
	"repro/internal/kprof"
	"repro/internal/kstat"
	"repro/internal/ktrace"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Table 1 — OS/2 Performance Comparisons.  One benchmark per row; the
// reported metrics are simulated cycles for each system and the
// WPOS-to-native ratio (the paper's headline column).
// ---------------------------------------------------------------------------

func benchmarkTable1Row(b *testing.B, row workload.Row) {
	b.Helper()
	var ratio, wpos, native float64
	for i := 0; i < b.N; i++ {
		w, err := core.Boot(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		n, err := core.BootNative(cpu.Pentium133(), 16, 16384)
		if err != nil {
			b.Fatal(err)
		}
		wres, err := workload.Run(row, w.WorkloadEnv())
		if err != nil {
			b.Fatal(err)
		}
		nres, err := workload.Run(row, n.WorkloadEnv())
		if err != nil {
			b.Fatal(err)
		}
		wpos = float64(wres.Cycles)
		native = float64(nres.Cycles)
		ratio = wpos / native
	}
	b.ReportMetric(wpos, "wpos-cycles")
	b.ReportMetric(native, "native-cycles")
	b.ReportMetric(ratio, "ratio")
}

func BenchmarkTable1_FileIntensive1(b *testing.B)  { benchmarkTable1Row(b, workload.FileIntensive1) }
func BenchmarkTable1_FileIntensive2(b *testing.B)  { benchmarkTable1Row(b, workload.FileIntensive2) }
func BenchmarkTable1_GraphicsLow(b *testing.B)     { benchmarkTable1Row(b, workload.GraphicsLow) }
func BenchmarkTable1_GraphicsMedium(b *testing.B)  { benchmarkTable1Row(b, workload.GraphicsMedium) }
func BenchmarkTable1_GraphicsHigh(b *testing.B)    { benchmarkTable1Row(b, workload.GraphicsHigh) }
func BenchmarkTable1_PMTaskingMedium(b *testing.B) { benchmarkTable1Row(b, workload.PMTaskingMedium) }
func BenchmarkTable1_PMTaskingHigh(b *testing.B)   { benchmarkTable1Row(b, workload.PMTaskingHigh) }

// ---------------------------------------------------------------------------
// Table 2 — Trap versus RPC: instructions, cycles, bus cycles and CPI for
// thread_self and a 32-byte RPC.
// ---------------------------------------------------------------------------

func BenchmarkTable2_TrapVsRPC(b *testing.B) {
	var t bench.Table2Result
	var err error
	for i := 0; i < b.N; i++ {
		t, err = bench.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(t.TrapInstr, "trap-instr")
	b.ReportMetric(t.RPCInstr, "rpc-instr")
	b.ReportMetric(t.TrapCycles, "trap-cycles")
	b.ReportMetric(t.RPCCycles, "rpc-cycles")
	b.ReportMetric(t.TrapBus, "trap-bus")
	b.ReportMetric(t.RPCBus, "rpc-bus")
	b.ReportMetric(t.TrapCPI, "trap-cpi")
	b.ReportMetric(t.RPCCPI, "rpc-cpi")
}

// ---------------------------------------------------------------------------
// IPC rework sweep — the "two to ten times improvement in message-passing
// performance ... depending primarily on the number of bytes transmitted".
// ---------------------------------------------------------------------------

func BenchmarkFigureIPCSweep(b *testing.B) {
	var pts []bench.IPCPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = bench.IPCSweep()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(p.Speedup, fmt.Sprintf("speedup@%dB", p.Size))
	}
}

// ---------------------------------------------------------------------------
// Figure 1 — architecture: the booted system regenerates its own layer
// diagram; the benchmark measures a full multi-personality boot.
// ---------------------------------------------------------------------------

func BenchmarkFigure1_Boot(b *testing.B) {
	var comps int
	for i := 0; i < b.N; i++ {
		s, err := core.Boot(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		comps = len(s.Inventory())
	}
	b.ReportMetric(float64(comps), "components")
}

// ---------------------------------------------------------------------------
// E5 — name-service cost: X.500-style versus the Release 2 simplified
// service.
// ---------------------------------------------------------------------------

func BenchmarkNameServiceFullVsSimple(b *testing.B) {
	var r bench.NSResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = bench.NameServices()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.FullCycles), "full-cycles")
	b.ReportMetric(float64(r.SimpleCycles), "simple-cycles")
	b.ReportMetric(r.Ratio, "ratio")
}

// ---------------------------------------------------------------------------
// E6 — fine-grained objects versus MK++-style coarse objects on the
// networking path.
// ---------------------------------------------------------------------------

func BenchmarkObjectsFineVsCoarse(b *testing.B) {
	var r bench.ObjResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = bench.Objects()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.FineCycles), "fine-cycles")
	b.ReportMetric(float64(r.CoarseCycles), "coarse-cycles")
	b.ReportMetric(r.Ratio, "ratio")
	b.ReportMetric(float64(r.MetadataBytes), "metadata-bytes")
}

// ---------------------------------------------------------------------------
// E7 — the two-memory-managers footprint blow-up.
// ---------------------------------------------------------------------------

func BenchmarkOS2MemoryFootprint(b *testing.B) {
	var r bench.MemResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = bench.MemFootprint()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Overhead, "resident/requested")
	b.ReportMetric(float64(r.MetadataBytes), "os2-metadata-bytes")
	b.ReportMetric(float64(r.MapEntries), "kernel-map-entries")
}

// ---------------------------------------------------------------------------
// E9 — driver-model ablation: the same sector write through the three
// driver architectures.
// ---------------------------------------------------------------------------

func BenchmarkDriverModels(b *testing.B) {
	var rs []bench.DriverResult
	var err error
	for i := 0; i < b.N; i++ {
		rs, err = bench.DriverModels()
		if err != nil {
			b.Fatal(err)
		}
	}
	slug := map[string]string{
		"in-kernel BSD-style":        "kernel-cycles",
		"OODDM fine-grained objects": "ooddm-cycles",
		"user-level task":            "user-cycles",
	}
	for _, r := range rs {
		b.ReportMetric(float64(r.Cycles), slug[r.Model])
	}
}

// ---------------------------------------------------------------------------
// E10 — MVM: interpreted versus block-translated guest execution.
// ---------------------------------------------------------------------------

func BenchmarkMVMTranslator(b *testing.B) {
	var r bench.MVMResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = bench.MVMTranslator()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.InterpCycles), "interp-cycles")
	b.ReportMetric(float64(r.ColdTransCycles), "translated-cold-cycles")
	b.ReportMetric(float64(r.HotTransCycles), "translated-hot-cycles")
	b.ReportMetric(r.Speedup, "speedup")
}

// ---------------------------------------------------------------------------
// E-POOL — multi-threaded server pools: modeled file-server throughput for
// C concurrent clients against a pool of P server threads, from the
// ktrace-calibrated bottleneck bound (see internal/bench/concurrency.go).
// ---------------------------------------------------------------------------

func BenchmarkConcurrentClients(b *testing.B) {
	for _, pool := range []int{1, 2, 4} {
		for _, clients := range []int{1, 2, 4, 8} {
			pool, clients := pool, clients
			b.Run(fmt.Sprintf("pool=%d/clients=%d", pool, clients), func(b *testing.B) {
				var r bench.ConcurrencyResult
				var err error
				for i := 0; i < b.N; i++ {
					r, err = bench.ConcurrentClients(clients, pool, 25)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(r.ModeledOpsPerSec, "modeled-ops/s")
				b.ReportMetric(r.CyclesPerOp, "serial-cycles/op")
				b.ReportMetric(r.ServerCycles, "server-cycles/op")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Correctness gates over the harness itself.
// ---------------------------------------------------------------------------

// TestServerPoolScaling gates the E-POOL acceptance criteria: a pool of 4
// must model at least 2x the single-threaded throughput once 4 clients
// contend, the single-client serial latency must not change with pool
// size, and the real concurrent phase must actually spread requests
// across the pool.
func TestServerPoolScaling(t *testing.T) {
	single, err := bench.ConcurrentClients(4, 1, 25)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := bench.ConcurrentClients(4, 4, 25)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pool=1: %v", single)
	t.Logf("pool=4: %v (worker ops %v)", pooled, pooled.WorkerOps)

	speedup := pooled.ModeledOpsPerSec / single.ModeledOpsPerSec
	t.Logf("modeled speedup at 4 clients: %.2fx", speedup)
	if speedup < 2 {
		t.Errorf("pool=4 models %.2fx of pool=1 at 4 clients; want >= 2x", speedup)
	}

	// Single-client latency is not taxed by the pool: serial cycles per
	// op must agree within 1% between the two server configurations.
	drift := pooled.CyclesPerOp / single.CyclesPerOp
	if drift < 0.99 || drift > 1.01 {
		t.Errorf("serial latency drifted with pool size: %.0f vs %.0f cycles/op",
			pooled.CyclesPerOp, single.CyclesPerOp)
	}

	// The concurrent phase ran every op and the pool shared the load.
	if pooled.RealOps == 0 || len(pooled.WorkerOps) != 4 {
		t.Fatalf("concurrent phase: ops=%d workers=%v", pooled.RealOps, pooled.WorkerOps)
	}
	for i, ops := range pooled.WorkerOps {
		if ops == 0 {
			t.Errorf("pool worker %d handled no requests: %v", i, pooled.WorkerOps)
		}
	}
}

// TestTable1AgainstPaper holds Table 1's shape across re-pins of the
// exact counts in TestCacheObservationOff: every ratio within 1.25x of
// the published one, the file rows slower on WPOS by more than 2x, the
// graphics rows faster, and the overall ratio within 1.25x of the
// paper's 1.21.
func TestTable1AgainstPaper(t *testing.T) {
	const tol, paperOverall = 1.25, 1.21
	rows, err := bench.Table1(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Ratio < r.Paper/tol || r.Ratio > r.Paper*tol {
			t.Errorf("%s ratio %.2f vs paper %.2f beyond %.2fx", r.Row, r.Ratio, r.Paper, tol)
		}
		switch r.Row {
		case workload.FileIntensive1, workload.FileIntensive2:
			if r.Ratio <= 2 {
				t.Errorf("%s ratio %.2f, want > 2", r.Row, r.Ratio)
			}
		case workload.GraphicsLow, workload.GraphicsMedium, workload.GraphicsHigh:
			if r.Ratio >= 1 {
				t.Errorf("%s ratio %.2f, want < 1", r.Row, r.Ratio)
			}
		}
	}
	if m, _ := bench.Overall(rows); m < paperOverall/tol || m > paperOverall*tol {
		t.Errorf("overall ratio %.2f vs paper %.2f beyond %.2fx", m, paperOverall, tol)
	}
}

func TestTable2AgainstPaper(t *testing.T) {
	got, err := bench.Table2()
	if err != nil {
		t.Fatal(err)
	}
	gi, gc, gb, gcpi := got.Ratios()
	pi, pc, pb, pcpi := bench.PaperTable2.Ratios()
	t.Logf("measured: trap %.0f/%.0f/%.0f/%.2f  rpc %.0f/%.0f/%.0f/%.2f",
		got.TrapInstr, got.TrapCycles, got.TrapBus, got.TrapCPI,
		got.RPCInstr, got.RPCCycles, got.RPCBus, got.RPCCPI)
	t.Logf("ratios: measured %.2f/%.2f/%.2f/%.2f vs paper %.2f/%.2f/%.2f/%.2f",
		gi, gc, gb, gcpi, pi, pc, pb, pcpi)
	within := func(name string, got, want, tol float64) {
		if got < want/tol || got > want*tol {
			t.Errorf("%s ratio %.2f vs paper %.2f beyond %.1fx tolerance", name, got, want, tol)
		}
	}
	within("instructions", gi, pi, 1.4)
	within("cycles", gc, pc, 1.6)
	within("bus", gb, pb, 1.6)
	within("cpi", gcpi, pcpi, 1.5)
}

func TestIPCSweepBand(t *testing.T) {
	pts, err := bench.IPCSweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		t.Logf("size %6dB: old=%d new=%d speedup=%.2f", p.Size, p.OldCycles, p.NewCycles, p.Speedup)
		if p.Speedup < 1.5 {
			t.Errorf("size %d: rework speedup %.2f below 1.5x", p.Size, p.Speedup)
		}
	}
	if pts[0].Speedup < pts[len(pts)-1].Speedup {
		// Small messages benefit most: the fixed path dominates.
		t.Log("note: speedup grows with size in this run")
	}
}

func TestNameServiceRatio(t *testing.T) {
	r, err := bench.NameServices()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full=%d simple=%d ratio=%.1f", r.FullCycles, r.SimpleCycles, r.Ratio)
	if r.Ratio < 5 {
		t.Errorf("X.500 service should be >=5x the simplified one, got %.1f", r.Ratio)
	}
}

func TestObjectsRatio(t *testing.T) {
	r, err := bench.Objects()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fine=%d coarse=%d ratio=%.2f dispatches=%d metadata=%dB",
		r.FineCycles, r.CoarseCycles, r.Ratio, r.FineDispatches, r.MetadataBytes)
	if r.Ratio <= 1.1 {
		t.Errorf("fine-grained objects should cost >1.1x coarse, got %.2f", r.Ratio)
	}
}

func TestMemFootprintOverhead(t *testing.T) {
	r, err := bench.MemFootprint()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("requested=%dB resident=%dB overhead=%.1fx metadata=%dB entries=%d",
		r.RequestedBytes, r.ResidentBytes, r.Overhead, r.MetadataBytes, r.MapEntries)
	if r.Overhead < 5 {
		t.Errorf("footprint overhead %.1fx too small for eager byte-granular allocations", r.Overhead)
	}
}

func TestDriverModelOrdering(t *testing.T) {
	rs, err := bench.DriverModels()
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[string]uint64{}
	for _, r := range rs {
		byModel[r.Model] = r.Cycles
		t.Logf("%-28s %d cycles/op", r.Model, r.Cycles)
	}
	if !(byModel["in-kernel BSD-style"] < byModel["OODDM fine-grained objects"] &&
		byModel["OODDM fine-grained objects"] < byModel["user-level task"]) {
		t.Errorf("expected kernel < ooddm < user ordering: %v", byModel)
	}
}

func TestMVMTranslatorSpeedup(t *testing.T) {
	r, err := bench.MVMTranslator()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("interp=%d cold=%d hot=%d speedup=%.1fx (cache %d hits / %d misses)",
		r.InterpCycles, r.ColdTransCycles, r.HotTransCycles, r.Speedup, r.CacheHits, r.CacheMisses)
	if r.Speedup < 2 {
		t.Errorf("hot translation speedup %.1fx below 2x", r.Speedup)
	}
}

func TestFSPersonalityMatrix(t *testing.T) {
	rs, err := bench.FSPersonality()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		t.Logf("%-5s longnames=%v eas=%v case-sensitive=%v", r.FS, r.LongNameOK, r.EAOK, r.CaseSensitive)
	}
	want := map[string][3]bool{ // longname, ea, case-sensitive
		"fat":  {false, false, false},
		"hpfs": {true, true, false},
		"jfs":  {true, true, true},
	}
	for _, r := range rs {
		w := want[r.FS]
		if r.LongNameOK != w[0] || r.EAOK != w[1] || r.CaseSensitive != w[2] {
			t.Errorf("%s capabilities wrong: %+v", r.FS, r)
		}
	}
}

// ---------------------------------------------------------------------------
// E-CTR — Table 2 derived from the kstat fabric, plus the observation-only
// guarantee: attaching kstat must not move a single modeled cycle.
// ---------------------------------------------------------------------------

func TestECTRCounterDerivedTable2(t *testing.T) {
	res, err := bench.CounterTable2()
	if err != nil {
		t.Fatal(err)
	}
	if res.TrapOps != 400 || res.RPCOps != 400 {
		t.Fatalf("kstat op counts trap=%d rpc=%d, want 400/400", res.TrapOps, res.RPCOps)
	}
	// Observation-only: the direct measurement with the fabric attached is
	// byte-identical to Table 2 measured with no fabric at all.
	plain, err := bench.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if res.Direct != plain {
		t.Fatalf("kstat perturbed the model:\nwith fabric    %+v\nwithout fabric %+v", res.Direct, plain)
	}
	// The counter-derived table must agree with the direct one exactly:
	// both divide the same engine-charge sums by the same op count.
	if res.FromKstat != res.Direct {
		t.Errorf("counter-derived table diverges from direct:\nfrom kstat %+v\ndirect     %+v", res.FromKstat, res.Direct)
	}
	gi, gc, gb, gcpi := res.FromKstat.Ratios()
	pi, pc, pb, pcpi := bench.PaperTable2.Ratios()
	t.Logf("counter-derived ratios %.2f/%.2f/%.2f/%.2f vs paper %.2f/%.2f/%.2f/%.2f",
		gi, gc, gb, gcpi, pi, pc, pb, pcpi)
	within := func(name string, got, want, tol float64) {
		if got < want/tol || got > want*tol {
			t.Errorf("%s ratio %.2f vs paper %.2f beyond %.1fx tolerance", name, got, want, tol)
		}
	}
	within("instructions", gi, pi, 1.4)
	within("cycles", gc, pc, 1.6)
	within("bus", gb, pb, 1.6)
	within("cpi", gcpi, pcpi, 1.5)
}

// TestWorkloadObservationOnly is the observation-only gate of every plane
// a boot can carry: on two identical boots, one with the plane and one
// without, File Intensive 1 and then Graphics Low must each model
// bit-identical cycles — hooks read counters and store records, they
// never charge.  Each row also checks that the attached side actually
// recorded the workloads.
func TestWorkloadObservationOnly(t *testing.T) {
	for _, tc := range []struct {
		plane string
		// split leaves the plane on a and off b.
		split func(t *testing.T, a, b *core.System)
		// recorded checks what the attached side saw of runs of the
		// given modeled cycles in all.
		recorded func(t *testing.T, a *core.System, cycles uint64)
	}{
		{"kstat", func(_ *testing.T, _, b *core.System) { kstat.Detach(b.Kernel.CPU) },
			func(t *testing.T, a *core.System, _ uint64) {
				if kstat.For(a.Kernel.CPU).Counter("mach.rpc.calls").Value() == 0 {
					t.Fatal("fabric attached but saw no RPC traffic")
				}
			}},
		{"kprof", func(t *testing.T, a, _ *core.System) {
			kprof.Attach(a.Kernel.CPU).Enable()
			t.Cleanup(func() { kprof.Detach(a.Kernel.CPU) })
		}, func(t *testing.T, a *core.System, cycles uint64) {
			// The profile's total equals the engine's charge stream over
			// the window, so it covers at least the workload's cycles.
			got, _, _ := kprof.For(a.Kernel.CPU).Snapshot().Totals()
			if got == 0 || got < cycles {
				t.Fatalf("profile attributed %d cycles, workload modeled %d — cycles escaped attribution", got, cycles)
			}
		}},
		{"ktrace", func(t *testing.T, a, _ *core.System) {
			ktrace.Attach(a.Kernel.CPU)
			t.Cleanup(func() { ktrace.Detach(a.Kernel.CPU) })
		}, func(t *testing.T, a *core.System, _ uint64) {
			var rpcs int
			for _, e := range ktrace.For(a.Kernel.CPU).Events() {
				if e.Type == cpu.EvRPC {
					rpcs++
				}
			}
			if rpcs == 0 {
				t.Fatal("tracer attached but traced no RPC")
			}
		}},
		{"kflight", func(_ *testing.T, _, b *core.System) { kflight.Detach(b.Kernel.CPU) },
			func(t *testing.T, a *core.System, _ uint64) {
				rec := kflight.For(a.Kernel.CPU)
				if rec == nil {
					t.Fatal("boot did not attach a flight recorder")
				}
				var events uint64
				for _, eng := range rec.EngineDumps() {
					events += eng.Emitted
				}
				if events == 0 {
					t.Fatal("recorder attached but captured no events")
				}
				// Servers are passive, so once the workload is done no
				// thread parks waiting for work and no call is blocked.
				if edges := a.Kernel.WaitEdges(); len(edges) != 0 {
					t.Fatalf("wait-for graph of an idle system holds %v", edges)
				}
			}},
		{"klat", func(_ *testing.T, _, b *core.System) { klat.Detach(b.Kernel.CPU) },
			func(t *testing.T, a *core.System, _ uint64) {
				lt := klat.For(a.Kernel.CPU)
				if lt == nil {
					t.Fatal("tracker not attached on default boot")
				}
				var exemplars, multiHop int
				for _, f := range lt.Dump().Families {
					exemplars += len(f.Exemplars)
					for i := range f.Exemplars {
						if len(f.Exemplars[i].Children) > 0 {
							multiHop++
						}
					}
				}
				// File ops chain through the driver.
				if exemplars == 0 || multiHop == 0 {
					t.Fatalf("attached boot retained %d exemplars, %d multi-hop", exemplars, multiHop)
				}
			}},
	} {
		t.Run(tc.plane, func(t *testing.T) {
			a, err := core.Boot(core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			b, err := core.Boot(core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			tc.split(t, a, b)
			var cycles uint64
			for _, row := range []workload.Row{workload.FileIntensive1, workload.GraphicsLow} {
				ra, err := workload.Run(row, a.WorkloadEnv())
				if err != nil {
					t.Fatal(err)
				}
				rb, err := workload.Run(row, b.WorkloadEnv())
				if err != nil {
					t.Fatal(err)
				}
				if ra.Cycles != rb.Cycles {
					t.Fatalf("%s perturbed %s: attached=%d detached=%d", tc.plane, row, ra.Cycles, rb.Cycles)
				}
				cycles += ra.Cycles
			}
			tc.recorded(t, a, cycles)
		})
	}
}

// TestFlightRecordsSetServedPickup: on a pooled boot the file server's
// port-per-open-file set serves most of its calls, and the flight ring
// records which worker task picked each one up — exactly one recv per
// call, on either receive path.
func TestFlightRecordsSetServedPickup(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ServerPool = 4
	s, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kflight.Detach(s.Kernel.CPU)
	kflight.AttachSized(s.Kernel.CPU, 1<<16)
	if _, err := workload.Run(workload.FileIntensive1, s.WorkloadEnv()); err != nil {
		t.Fatal(err)
	}
	var calls, recvs int
	for _, eng := range s.Kernel.FlightDump("test").Engines {
		for _, ev := range eng.Events {
			switch ev.Name {
			case "call:fileserver":
				calls++
			case "recv:fileserver":
				recvs++
			}
		}
	}
	if calls == 0 || recvs != calls {
		t.Fatalf("flight ring holds %d file-server calls and %d pickups, want one pickup per call", calls, recvs)
	}
}
