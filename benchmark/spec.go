package main

// The benchmark's contract, as data: workloads, end-to-end metrics with
// their regression bounds, and per-layer metrics.  BENCHMARK.json at the
// repository root carries the same names, units, directions and bounds;
// TestSpecMatchesManifest keeps the two in step.

const (
	lower  = "lower"
	higher = "higher"
)

// metricSpec names one metric.  Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Def    string
}

type workloadSpec struct {
	Name string
	Why  string
}

var workloadSpecs = []workloadSpec{
	{"table1_file", "paper profile, File Intensive 1+2: crossings, vfs, driver, iosys and disk do the work, bcache none; modeled cycles are pinned"},
	{"table1_ui", "paper profile, Graphics and PM Tasking rows: cpu model, paging pressure, os2 library and PM queues; file server and driver idle (the control)"},
	{"fileops_read", "tuned profile, 90% reads over a working set half the cache: bcache hits, read-ahead and region transfer; where a cache or crossing gain shows"},
	{"fileops_write", "tuned profile, 80% writes over twice the cache: eviction, write-behind, vectored flush, driver and disk arm; where a read-path gain paid for by writes shows"},
	{"rpc_mix", "kernel only, traps and copied, region and batched RPC against an echo task, then Table 2's loops: mach and cpu alone, no vfs, bcache or drivers"},
	{"clients_smp", "tuned profile on 2 engines with a pool of 2, 4 closed-loop clients: the only concurrent cell (dispatcher, pool queues, one disk arm)"},
}

// endToEnd lists what a user of the system sees.  Every workload prints
// every one of them.  The ISSUE's model_accuracy_err and failed_share are
// not here: the first is undefined on three workloads (see model.* in
// perLayer), the second is always 0 and travels as the result line's
// attempted/failed pair instead.
//
// A bound is at least three times the widest spread (interquartile range
// over median) that ten runs with ten different seeds showed on any
// workload, because that is what the driver accepts a benchmark on.  The
// widest is always clients_smp's, whose modeled numbers move with the seed
// and the host scheduler by 5-9%; on the deterministic workloads a seed
// moves model_cycles by under 2%, and the sandbox moves host time.  Two
// records of one seed still compare exactly on every model_* metric of a
// deterministic workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25, "one full set-up of the workload (native baseline, op generation, 3 warm-up passes); median of 3 set-ups"},
	{"model_cycles", "cycles", lower, 0.20, "engine-counter delta over the timed part of a pass, summed over engines and rows; median over passes"},
	{"model_ratio", "ratio", lower, 0.20, "Table 1's quantity: model_cycles over the same stream on the native baseline (mean of per-row ratios on table1_*); on rpc_mix Table 2's 32 B RPC/trap cycle ratio"},
	{"model_op_cycles_p50", "cycles", lower, 0.25, "modeled cycles per API call, median within a pass, median over passes (virtual-clock delta of the calling thread on clients_smp)"},
	{"model_op_cycles_p90", "cycles", lower, 0.25, "as above, 90th percentile within a pass"},
	{"host_pass_ms_p50", "ms", lower, 0.25, "calibrated wall time of the timed part of a pass; median over passes"},
	{"host_op_us_p95", "us", lower, 0.25, "calibrated wall time per API call, 95th percentile within a pass, median over passes"},
	{"host_mcycles_per_s", "Mcycles/s", higher, 0.25, "simulator speed: model_cycles per calibrated host second of the timed part; median over passes"},
	{"host_allocs_per_op", "count", lower, 0.12, "runtime.MemStats Mallocs delta over the timed part per API call; median over passes"},
	{"host_bytes_per_op", "bytes", lower, 0.12, "runtime.MemStats TotalAlloc delta over the timed part per API call; median over passes"},
}

// perLayer lists the traced run's metrics, prefix = module.  Counts and
// cycles are per pass (mean over the traced passes).
var perLayer = []metricSpec{
	{Name: "model.validated_cells", Unit: "count", Better: higher, Def: "published cells this workload is compared with (Table 1 rows, Table 2 ratios); 0 = unvalidated"},
	{Name: "model.accuracy_err", Unit: "fraction", Better: lower, Def: "mean |measured-paper|/paper over those cells; 0 when there are none"},

	{Name: "os2.api_calls", Unit: "count", Better: lower, Def: "kstat os2.api.* delta"},
	{Name: "os2.model_cycles", Unit: "cycles", Better: lower, Def: "kprof regions os2_api_stub, os2_server_op, os2_memman, gre_library"},
	{Name: "os2.op_host_us_p50", Unit: "us", Better: lower, Def: "median op span of the traced passes"},

	{Name: "mach.rpc_calls", Unit: "count", Better: lower, Def: "kstat mach.rpc.calls delta"},
	{Name: "mach.kernel_entries", Unit: "count", Better: lower, Def: "kstat mach.kernel.entries delta"},
	{Name: "mach.rpc_batched", Unit: "count", Better: higher, Def: "kstat mach.rpc.batched delta"},
	{Name: "mach.ool_bytes_mapped", Unit: "bytes", Better: higher, Def: "kstat mach.ool.bytes_mapped delta"},
	{Name: "mach.crossings_per_op", Unit: "ratio", Better: lower, Def: "mach.rpc_calls per API call"},
	{Name: "mach.crossing_model_cycles", Unit: "cycles", Better: lower, Def: "kprof regions of the trap, RPC, classic IPC, lookup, schedule and transfer paths"},
	{Name: "mach.crossing_imiss_cycles", Unit: "cycles", Better: lower, Def: "I-cache refill part of the above"},
	{Name: "mach.klat_queue_cycles", Unit: "cycles", Better: lower, Def: "sum of klat queue segments (send to pick-up) over all families"},
	{Name: "mach.null_call_model_cycles", Unit: "cycles", Better: lower, Def: "probe: warmed 32 B Call to an echo task"},
	{Name: "mach.trap_model_cycles", Unit: "cycles", Better: lower, Def: "probe: warmed thread_self trap"},
	{Name: "mach.classic_call_model_cycles", Unit: "cycles", Better: lower, Def: "probe: warmed classic mach_msg 32 B round trip, mean of 2000 (its server overlaps the client, so single calls do not repeat exactly)"},
	{Name: "mach.null_call_host_ns_p50", Unit: "ns", Better: lower, Def: "probe: host time of the same Call"},
	{Name: "mach.null_call_allocs", Unit: "count", Better: lower, Def: "probe: Go allocations per Call"},

	{Name: "mach.sched_makespan_cycles_p50", Unit: "cycles", Better: lower, Def: "advance of the dispatcher's virtual clock over a pass (0 on one engine)"},
	{Name: "mach.sched_makespan_spread", Unit: "fraction", Better: lower, Def: "(max-min)/median of the makespan over the passes"},
	{Name: "mach.sched_migrations", Unit: "count", Better: lower, Def: "SchedStats migrations delta"},
	{Name: "mach.sched_steals", Unit: "count", Better: lower, Def: "SchedStats steals delta"},
	{Name: "mach.sched_pool_wait_vcycles", Unit: "cycles", Better: lower, Def: "virtual cycles behind server-pool capacity other than the driver's, over klat's retained exemplars"},
	{Name: "mach.sched_cpu_wait_vcycles", Unit: "cycles", Better: lower, Def: "virtual cycles behind engine capacity, over klat's retained exemplars"},
	{Name: "mach.sched_op_vcycles_p50", Unit: "cycles", Better: lower, Def: "virtual-clock delta per API call, pooled over the passes (0 on one engine)"},
	{Name: "mach.sched_op_vcycles_p99", Unit: "cycles", Better: lower, Def: "as above, 99th percentile"},

	{Name: "cpu.instr", Unit: "count", Better: lower, Def: "instructions retired"},
	{Name: "cpu.cpi", Unit: "ratio", Better: lower, Def: "cycles per instruction"},
	{Name: "cpu.bus_cycles", Unit: "cycles", Better: lower, Def: "bus cycles"},
	{Name: "cpu.base_cycles", Unit: "cycles", Better: lower, Def: "kprof kind base; the seven cpu.*_cycles kinds sum to model_cycles"},
	{Name: "cpu.imiss_cycles", Unit: "cycles", Better: lower, Def: "kprof kind imiss"},
	{Name: "cpu.dmiss_cycles", Unit: "cycles", Better: lower, Def: "kprof kind dmiss"},
	{Name: "cpu.tlb_cycles", Unit: "cycles", Better: lower, Def: "kprof kind tlb"},
	{Name: "cpu.switch_cycles", Unit: "cycles", Better: lower, Def: "kprof kind switch"},
	{Name: "cpu.stall_cycles", Unit: "cycles", Better: lower, Def: "kprof kind stall (device time, interrupt latency, Table 1's paging pressure)"},
	{Name: "cpu.migrate_cycles", Unit: "cycles", Better: lower, Def: "kprof kind migrate"},
	{Name: "cpu.exec_host_ns_per_kinstr", Unit: "ns", Better: lower, Def: "probe: host time of Engine.Exec per 1000 modeled instructions"},

	{Name: "vm.faults", Unit: "count", Better: lower, Def: "kstat vm.faults delta"},
	{Name: "pager.pageins", Unit: "count", Better: lower, Def: "kstat pager.pageins delta"},

	{Name: "vfs.ops", Unit: "count", Better: lower, Def: "kstat vfs.ops.* delta"},
	{Name: "vfs.model_cycles", Unit: "cycles", Better: lower, Def: "kprof region file_server_op"},
	{Name: "vfs.service_cycles_p50", Unit: "cycles", Better: lower, Def: "klat fileserver service window, merged over ops"},
	{Name: "vfs.service_cycles_p99", Unit: "cycles", Better: lower, Def: "as above, 99th percentile"},
	{Name: "vfs.exemplar_self_cycles_p50", Unit: "cycles", Better: lower, Def: "self time of a file-server hop, its service window less its child hops' windows, over klat's retained exemplars"},
	{Name: "vfs.driver_calls_per_op", Unit: "ratio", Better: lower, Def: "driver requests per file-server op (the waste ratio)"},
	{Name: "vfs.call_host_us_p50", Unit: "us", Better: lower, Def: "probe: vfs.Client 4 KiB ReadAt over a memory file system"},

	{Name: "bcache.hits", Unit: "count", Better: higher, Def: "kstat bcache.hits delta"},
	{Name: "bcache.misses", Unit: "count", Better: lower, Def: "kstat bcache.misses delta"},
	{Name: "bcache.hit_ratio", Unit: "ratio", Better: higher, Def: "hits/(hits+misses)"},
	{Name: "bcache.readahead", Unit: "count", Better: higher, Def: "kstat bcache.readahead delta"},
	{Name: "bcache.writeback", Unit: "count", Better: lower, Def: "kstat bcache.writeback delta"},
	{Name: "bcache.writeback_per_write", Unit: "ratio", Better: lower, Def: "sectors written back per file-server write (coalescing)"},
	{Name: "bcache.model_cycles", Unit: "cycles", Better: lower, Def: "kprof region bcache_op"},
	{Name: "bcache.call_host_ns_p50", Unit: "ns", Better: lower, Def: "probe: one-sector hit over a RAM disk"},

	{Name: "drivers.requests", Unit: "count", Better: lower, Def: "kstat drivers.io.*:handle delta"},
	{Name: "drivers.sectors_per_request", Unit: "ratio", Better: higher, Def: "driver payload bytes / 512 / requests"},
	{Name: "drivers.model_cycles", Unit: "cycles", Better: lower, Def: "kprof regions user_block_driver, bsd_block_driver less their stall"},
	{Name: "drivers.service_cycles_p50", Unit: "cycles", Better: lower, Def: "klat blockdrv service window"},
	{Name: "drivers.queue_vcycles", Unit: "cycles", Better: lower, Def: "virtual cycles behind the driver's one slot (the disk arm), over klat's retained exemplars"},
	{Name: "drivers.call_host_us_p50", Unit: "us", Better: lower, Def: "probe: BlockDriver.ReadSectors of 8 sectors through the user-level driver"},

	{Name: "iosys.model_cycles", Unit: "cycles", Better: lower, Def: "kprof regions intr_reflect_user, intr_dispatch, dma_admin, hrm_op"},
	{Name: "device.stall_cycles", Unit: "cycles", Better: lower, Def: "stall-kind cycles inside the driver regions (disk seek and transfer)"},

	{Name: "core.boot_host_ms_p50", Unit: "ms", Better: lower, Def: "probe: core.Boot of the paper profile"},
	{Name: "core.boot_allocs", Unit: "count", Better: lower, Def: "probe: Go allocations of one boot"},
	{Name: "core.boot_model_cycles", Unit: "cycles", Better: lower, Def: "probe: engine counter after boot"},
	{Name: "mono.model_cycles", Unit: "cycles", Better: lower, Def: "the workload's stream on the native baseline (model_ratio's denominator; 0 on rpc_mix)"},
	{Name: "other.model_cycles", Unit: "cycles", Better: lower, Def: "kprof regions mapped to no layer; must stay below 1% of model_cycles"},

	{Name: "kobs.trace_overhead_share", Unit: "fraction", Better: lower, Def: "(traced - untraced host_pass_ms_p50)/untraced, both from this run"},
	{Name: "kobs.model_delta_cycles", Unit: "cycles", Better: lower, Def: "traced - untraced model_cycles; must be 0 on the deterministic workloads"},
	{Name: "kobs.kprof_gap_cycles", Unit: "cycles", Better: lower, Def: "kprof total - engine-counter delta over the same windows; must be 0"},
	{Name: "kobs.harness_self_share", Unit: "fraction", Better: lower, Def: "share of traced pass time outside every API-call span: boots, population, read-back, the workload script and the wrapper"},

	{Name: "host.gc_count", Unit: "count", Better: lower, Def: "GC cycles during the traced passes"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: lower, Def: "GC pause total during the traced passes"},
	{Name: "host.cpu_share.mach", Unit: "fraction", Better: lower, Def: "pprof flat share of internal/mach"},
	{Name: "host.cpu_share.cpu", Unit: "fraction", Better: lower, Def: "internal/cpu"},
	{Name: "host.cpu_share.vfs", Unit: "fraction", Better: lower, Def: "internal/vfs, fat, hpfs, jfs"},
	{Name: "host.cpu_share.bcache", Unit: "fraction", Better: lower, Def: "internal/bcache"},
	{Name: "host.cpu_share.drivers", Unit: "fraction", Better: lower, Def: "internal/drivers, iosys"},
	{Name: "host.cpu_share.os2", Unit: "fraction", Better: lower, Def: "internal/os2, mono, workload, vm, pager"},
	{Name: "host.cpu_share.kobs", Unit: "fraction", Better: lower, Def: "kstat, kprof, klat, kflight, ktrace, monitor"},
	{Name: "host.cpu_share.runtime", Unit: "fraction", Better: lower, Def: "Go runtime and standard library"},
	{Name: "host.cpu_share.other", Unit: "fraction", Better: lower, Def: "the benchmark itself and every other package"},
}

// Layers of the region and package maps.
const (
	layerOS2     = "os2"
	layerMach    = "mach"
	layerVFS     = "vfs"
	layerBcache  = "bcache"
	layerDrivers = "drivers"
	layerIOSys   = "iosys"
	layerOther   = "other"
)

// regionLayer maps every kprof region a workload charges to the layer
// that owns the code.  A region absent from the table lands in
// other.model_cycles.
var regionLayer = map[string]string{
	"os2_api_stub": layerOS2, "os2_server_op": layerOS2, "os2_memman": layerOS2, "gre_library": layerOS2,

	"trap_entry": layerMach, "trap_exit": layerMach, "thread_self": layerMach,
	"port_lookup": layerMach, "schedule": layerMach,
	"rpc_send": layerMach, "rpc_receive": layerMach, "rpc_reply": layerMach,
	"rpc_stub_client": layerMach, "rpc_stub_server": layerMach,
	"rpc_region_map": layerMach, "rpc_batch_demux": layerMach,
	"mach_msg_send": layerMach, "mach_msg_receive": layerMach,
	"msg_copyin": layerMach, "msg_copyout": layerMach,
	"mig_stub_client": layerMach, "mig_server_demux": layerMach,
	"vm_map_copy_page": layerMach, "cow_fault": layerMach, "ipc_right_transfer": layerMach,
	"task_create": layerMach, "thread_create": layerMach,

	"file_server_op": layerVFS,
	"bcache_op":      layerBcache,

	"user_block_driver": layerDrivers, "bsd_block_driver": layerDrivers,

	"intr_reflect_user": layerIOSys, "intr_dispatch": layerIOSys, "dma_admin": layerIOSys, "hrm_op": layerIOSys,
}

// packageShare maps a Go package of the simulator to the host.cpu_share
// bucket its CPU samples are folded into.
var packageShare = map[string]string{
	"repro/internal/mach": "mach", "repro/internal/cpu": "cpu",
	"repro/internal/vfs": "vfs", "repro/internal/vfs/wire": "vfs",
	"repro/internal/fat": "vfs", "repro/internal/hpfs": "vfs", "repro/internal/jfs": "vfs",
	"repro/internal/bcache":  "bcache",
	"repro/internal/drivers": "drivers", "repro/internal/iosys": "drivers",
	"repro/internal/os2": "os2", "repro/internal/mono": "os2", "repro/internal/workload": "os2",
	"repro/internal/vm": "os2", "repro/internal/pager": "os2",
	"repro/internal/kstat": "kobs", "repro/internal/kprof": "kobs", "repro/internal/klat": "kobs",
	"repro/internal/kflight": "kobs", "repro/internal/ktrace": "kobs", "repro/internal/monitor": "kobs",
}

// Table 1's published WPOS/native ratios and Table 2's four RPC/trap
// ratios (instructions, cycles, bus cycles, CPI): the reference cells of
// model.accuracy_err.
var paperTable1 = map[string]float64{
	"File Intensive 1": 2.96, "File Intensive 2": 2.97,
	"Graphics Low": 0.91, "Graphics Medium": 0.87, "Graphics High": 0.71,
	"PM Tasking Medium": 0.82, "PM Tasking High": 1.02,
}

var paperTable2 = [4]float64{1317.0 / 465, 5163.0 / 970, 1849.0 / 218, 3.9 / 2.0}

// The tier-1 pins of Table 1's file rows on the paper profile.
const (
	pinFI1 = 43136087
	pinFI2 = 11463722
)

// manifest is BENCHMARK.json: the same contract in the driver's schema.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 10

func newManifest() manifest {
	m := manifest{
		Command:    []string{"sh", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadSpecs {
		m.Workloads = append(m.Workloads, manifestLoad{w.Name, w.Why})
	}
	for _, s := range endToEnd {
		bound := s.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{s.Name, s.Unit, s.Better, &bound})
	}
	for _, s := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{s.Name, s.Unit, s.Better, nil})
	}
	return m
}
