package chaos

import (
	"flag"
	"fmt"
	"runtime"
	"testing"
	"time"
)

var (
	flagSeed    = flag.Int64("chaos.seed", 0, "replay one soak with this seed (0 = full corpus)")
	flagActions = flag.Int("chaos.actions", 0, "override the per-seed action budget")
	flagCPUs    = flag.Int("chaos.cpus", 0, "override the engine count (with -chaos.seed)")
)

// TestChaosSoak is the acceptance soak: three seeds at three CPU counts,
// mixed operations across the OS/2, POSIX and MVM personalities plus raw
// RPC, with all six fault kinds injected at least twice per seed and all
// four invariants checked after every fault epoch.  The default budget
// (6,000 actions per seed) keeps tier-1 under a minute; the full corpus —
// ≥100k operations — is the same test with -chaos.actions=36000, which is
// how `make chaos` and scripts/check.sh run it.  A failure's message
// embeds the exact replay flags.
func TestChaosSoak(t *testing.T) {
	type entry struct {
		seed int64
		cpus int
	}
	corpus := []entry{{7, 4}, {11, 2}, {23, 8}}
	actions := 6000
	if testing.Short() {
		corpus = corpus[:1]
	}
	if *flagActions > 0 {
		actions = *flagActions
	}
	if *flagSeed != 0 {
		cpus := 4
		if *flagCPUs > 0 {
			cpus = *flagCPUs
		}
		corpus = []entry{{*flagSeed, cpus}}
	}
	for _, c := range corpus {
		c := c
		t.Run(fmt.Sprintf("seed=%d,cpus=%d", c.seed, c.cpus), func(t *testing.T) {
			rep, err := Run(Config{Seed: c.seed, Actions: actions, CPUs: c.cpus})
			if err != nil {
				t.Fatalf("soak failed — replay with:\n  go test ./internal/chaos -run TestChaosSoak -chaos.seed=%d -chaos.actions=%d -chaos.cpus=%d\n%v",
					c.seed, actions, c.cpus, err)
			}
			if rep.Ops < uint64(actions*9/10) {
				t.Fatalf("soak underran: %d ops of %d budgeted", rep.Ops, actions)
			}
			kinds := []string{FaultPoolKill, FaultPortDestroy, FaultDevOutage,
				FaultFlushFail, FaultObsStorm}
			if c.cpus > 1 {
				kinds = append(kinds, FaultPsetShuffle)
			}
			for _, k := range kinds {
				if rep.Faults[k] < 2 {
					t.Errorf("fault kind %s injected %d times, want >= 2 (%v)", k, rep.Faults[k], rep.Faults)
				}
			}
			if rep.Verified == 0 {
				t.Error("final oracle verified zero files exactly")
			}
			t.Logf("seed=%d cpus=%d: ops=%d opErrors=%d epochs=%d verified=%d tainted=%d faults=%v",
				c.seed, c.cpus, rep.Ops, rep.OpErrors, rep.Epochs, rep.Verified, rep.Tainted, rep.Faults)
		})
	}
}

// TestChaosSingleCPU covers the classic single-engine boot, where the
// processor-set fault is replaced by an extra pool kill.  A completed run
// leaves no goroutine behind: servers are passive and Run ends its worker
// loops.
func TestChaosSingleCPU(t *testing.T) {
	before := runtime.NumGoroutine()
	rep, err := Run(Config{Seed: 3, Actions: 4000, CPUs: 1})
	if err != nil {
		t.Fatalf("single-CPU soak failed — replay with:\n  go test ./internal/chaos -run TestChaosSingleCPU\n%v", err)
	}
	if rep.Faults[FaultPsetShuffle] != 0 {
		t.Errorf("pset fault injected on a 1-CPU system: %v", rep.Faults)
	}
	if rep.Faults[FaultPoolKill] == 0 {
		t.Errorf("pool-kill never injected: %v", rep.Faults)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the run, %d before it", runtime.NumGoroutine(), before)
		}
	}
}

// TestChaosDeterministic pins the replay property: the same seed produces
// the same operation count and the same fault schedule (the interleaving
// is the host scheduler's, but the driven streams are the seed's).
func TestChaosDeterministic(t *testing.T) {
	run := func() *Report {
		rep, err := Run(Config{Seed: 5, Actions: 3000, CPUs: 2})
		if err != nil {
			t.Fatalf("soak failed: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Ops != b.Ops {
		t.Errorf("op streams diverged for one seed: %d vs %d ops", a.Ops, b.Ops)
	}
	if fmt.Sprint(a.Faults) != fmt.Sprint(b.Faults) {
		t.Errorf("fault schedules diverged for one seed: %v vs %v", a.Faults, b.Faults)
	}
	if a.Epochs != b.Epochs {
		t.Errorf("epoch counts diverged: %d vs %d", a.Epochs, b.Epochs)
	}
}
