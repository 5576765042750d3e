package repro_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/workload"
)

// seedFI1WPOS is the exact File Intensive 1 cycle count of the seed
// reproduction on the single-engine system (same pin as seedTable1).
const seedFI1WPOS = 43136087

// TestSMPObservationOff gates the SMP tentpole's compatibility promise:
// a CPUs=1 boot (the default) must be the seed system cycle for cycle —
// no complex, no dispatcher, no per-engine metric families, and the
// exact FI1 count.
func TestSMPObservationOff(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CPUs = 1
	s, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kernel.Complex() != nil {
		t.Fatal("CPUs=1 boot built a cpu.Complex; the seed path must be engine-only")
	}
	if n := s.Kernel.NCPUs(); n != 1 {
		t.Fatalf("NCPUs = %d, want 1", n)
	}
	base := s.Kernel.CPU.Counters().Cycles
	res, err := workload.Run(workload.FileIntensive1, s.WorkloadEnv())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != seedFI1WPOS {
		t.Errorf("FI1 on a 1-CPU boot = %d cycles, seed = %d (SMP layer is not observation-off)",
			res.Cycles, seedFI1WPOS)
	}
	if got := s.Kernel.CPU.Counters().Cycles - base; got != seedFI1WPOS {
		t.Errorf("engine delta = %d, want %d", got, seedFI1WPOS)
	}
	// No per-engine families may exist on a single-CPU system.
	for name := range s.Stats.Snapshot().Gauges {
		if strings.HasPrefix(name, "cpu.") {
			t.Errorf("%s registered on a 1-CPU boot, want absent", name)
		}
	}
}

// TestSMPEngineFamiliesReadScheduler: the per-engine families are reads
// of the dispatcher's own state, so on a 4-engine boot at quiescence
// every cpu.e<i>.* value equals SchedStats, and coherence_cycles is the
// migrations times the migration charge.
func TestSMPEngineFamiliesReadScheduler(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CPUs = 4
	s, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(workload.FileIntensive1, s.WorkloadEnv()); err != nil {
		t.Fatal(err)
	}
	snap := s.Stats.Snapshot()
	stats := s.Kernel.SchedStats()
	if n := snap.Gauges["cpu.engines"]; n != 4 || len(stats) != 4 {
		t.Fatalf("cpu.engines = %d, SchedStats has %d engines, want 4", n, len(stats))
	}
	migrate := cfg.CPU.MigrateCycles
	var dispatches uint64
	for _, es := range stats {
		fam := fmt.Sprintf("cpu.e%d.", es.Slot)
		for name, c := range map[string][2]uint64{
			"cycles":           {uint64(snap.Gauges[fam+"cycles"]), es.Cycles},
			"runq":             {uint64(snap.Gauges[fam+"runq"]), uint64(es.RunQueue)},
			"dispatches":       {snap.Counters[fam+"dispatches"], es.Dispatches},
			"migrations":       {snap.Counters[fam+"migrations"], es.Migrations},
			"steals":           {snap.Counters[fam+"steals"], es.Steals},
			"coherence_cycles": {snap.Counters[fam+"coherence_cycles"], es.Migrations * migrate},
		} {
			if c[0] != c[1] {
				t.Errorf("%s%s = %d, scheduler says %d", fam, name, c[0], c[1])
			}
		}
		dispatches += es.Dispatches
	}
	if dispatches == 0 {
		t.Fatal("FI1 on 4 engines dispatched no burst")
	}
}

// TestSMPSpeedupMonotonic gates the scaling claim of E-SMP: with a
// 4-thread server pool, a buffer cache and 8 concurrent clients, FI1
// throughput must not degrade going 1 -> 2 -> 4 engines, and 4 engines
// must deliver at least 2.5x the single-engine throughput.
func TestSMPSpeedupMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("boots three full systems")
	}
	const cacheSectors = 256
	var pts []bench.SMPPoint
	for _, n := range []int{1, 2, 4} {
		pt, err := bench.SMPCell(n, 8, 4, cacheSectors, false)
		if err != nil {
			t.Fatalf("cpus=%d: %v", n, err)
		}
		t.Logf("%s", pt)
		pts = append(pts, pt)
	}
	// Placement resolves in virtual time, but concurrent bursts still
	// serialize in the order the host happens to release them, so allow
	// a hair of run-to-run noise on the monotonicity check; the 4-CPU
	// gate is strict.
	const slack = 0.98
	for i := 1; i < len(pts); i++ {
		if pts[i].OpsPerSec < pts[i-1].OpsPerSec*slack {
			t.Errorf("throughput fell from %.0f to %.0f ops/s going %d -> %d engines",
				pts[i-1].OpsPerSec, pts[i].OpsPerSec, pts[i-1].CPUs, pts[i].CPUs)
		}
	}
	if speedup := pts[2].OpsPerSec / pts[0].OpsPerSec; speedup < 2.5 {
		t.Errorf("4-engine speedup = %.2fx, want >= 2.5x", speedup)
	}
	// The dispatcher really moved work: the multi-engine cells spread
	// cycles beyond one engine and recorded migrations.
	for _, pt := range pts[1:] {
		busy := 0
		for _, c := range pt.PerEngineCycles {
			if c > 0 {
				busy++
			}
		}
		if busy < 2 {
			t.Errorf("cpus=%d: only %d engine(s) consumed cycles", pt.CPUs, busy)
		}
		if pt.Migrations == 0 {
			t.Errorf("cpus=%d: no migrations recorded under 8 concurrent clients", pt.CPUs)
		}
	}
}
