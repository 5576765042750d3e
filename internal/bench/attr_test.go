package bench

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/kflight"
	"repro/internal/kprof"
	"repro/internal/ktrace"
	"repro/internal/workload"
)

// TestAttributionFileIntensive1 is the E-ATTR gate: the traced run must be
// bit-identical to the untraced run (observation-only tracing), nothing
// may fall out of the ring, and the boundary-crossing subsystems must
// explain at least 60% of the WPOS-vs-native cycle gap.
func TestAttributionFileIntensive1(t *testing.T) {
	res, err := Attribution("File Intensive 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.TracedCycles != res.WPOSCycles {
		t.Errorf("tracing perturbed the run: traced %d cycles, untraced %d",
			res.TracedCycles, res.WPOSCycles)
	}
	if res.Dropped != 0 {
		t.Errorf("trace ring wrapped: %d events dropped", res.Dropped)
	}
	if res.Gap == 0 {
		t.Fatalf("no WPOS-vs-native gap to attribute (wpos %d, native %d)",
			res.WPOSCycles, res.NativeCycles)
	}
	if res.CrossingShare < 0.60 {
		t.Errorf("crossing subsystems explain only %.1f%% of the gap, want >= 60%%\nattribution: %+v",
			100*res.CrossingShare, res.Subsystems)
	}
	if len(res.Subsystems) < 3 {
		t.Errorf("attribution saw only %d subsystems: %+v", len(res.Subsystems), res.Subsystems)
	}
}

// runFI1Observed boots the default system, attaches the trace and the
// profiler, runs File Intensive 1 and returns the E-ATTR table and the
// profile of the run.
func runFI1Observed(t *testing.T) ([]ktrace.SubsystemCost, kprof.Profile) {
	t.Helper()
	s, err := core.Boot(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := ktrace.AttachSized(s.Kernel.CPU, attrRingSize)
	p := kprof.Attach(s.Kernel.CPU)
	p.Enable()
	if _, err := workload.Run(workload.FileIntensive1, s.WorkloadEnv()); err != nil {
		t.Fatal(err)
	}
	return ktrace.Attribute(tr.Events()), p.Snapshot()
}

// TestObservationHostOrderFree: the trace and the profile of a
// single-client run are a function of the run, not of how the host
// scheduled its goroutines.  A serve span closes at its reply commit,
// before the reply wakes the client, so the client's resume never lands
// under the server's records.  The E-ATTR table is the one the seed's
// serial runs measured.
func TestObservationHostOrderFree(t *testing.T) {
	want := []struct {
		sub    string
		spans  int
		cycles uint64
	}{
		{"mach.rpc", 4724, 17705495}, {"disk", 2021, 13483574}, {"iosys", 2021, 6370192},
		{"drivers", 4042, 4108693}, {"vfs", 341, 1283340}, {"os2", 341, 168428},
	}
	var attr0 []ktrace.SubsystemCost
	var prof0 kprof.Profile
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for i := 0; i < 5; i++ {
			attr, prof := runFI1Observed(t)
			if attr0 == nil {
				attr0, prof0 = attr, prof
			}
			if !reflect.DeepEqual(attr, attr0) {
				t.Errorf("GOMAXPROCS=%d boot %d: attribution moved:\n%+v\nfirst:\n%+v", procs, i, attr, attr0)
			}
			if !reflect.DeepEqual(prof, prof0) {
				t.Errorf("GOMAXPROCS=%d boot %d: profile moved", procs, i)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	var crossing uint64
	for i, w := range want {
		if i >= len(attr0) || attr0[i].Subsystem != w.sub || attr0[i].Spans != w.spans || attr0[i].Cycles != w.cycles {
			t.Fatalf("E-ATTR table %+v, want %+v", attr0, want)
		}
		if crossingSubsystems[w.sub] {
			crossing += w.cycles
		}
	}
	if len(attr0) != len(want) || crossing != 28184380 {
		t.Fatalf("E-ATTR table %+v (crossing %d), want %+v", attr0, crossing, want)
	}
}

// TestObservationEventCounts pins what one File Intensive 1 run records
// on a default boot: the always-on flight rings and, attached after
// boot, the trace.
func TestObservationEventCounts(t *testing.T) {
	s, err := core.Boot(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := kflight.For(s.Kernel.CPU)
	flight := func() (n uint64) {
		for _, eng := range rec.EngineDumps() {
			n += eng.Emitted
		}
		return n
	}
	boot := flight()
	tr := ktrace.AttachSized(s.Kernel.CPU, attrRingSize)
	if _, err := workload.Run(workload.FileIntensive1, s.WorkloadEnv()); err != nil {
		t.Fatal(err)
	}
	if got := flight() - boot; got != 7086 {
		t.Errorf("flight events = %d, want 7086", got)
	}
	if got := tr.Emitted(); got != 31709 {
		t.Errorf("trace events = %d, want 31709", got)
	}
}
