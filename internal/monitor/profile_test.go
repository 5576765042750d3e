package monitor

import (
	"testing"

	"repro/internal/bcache"
	"repro/internal/kprof"
	"repro/internal/vfs"
)

// TestBcacheFamilyOverRPC: a freshly built buffer cache must be visible
// in the dump's bcache families (and hence -prom scrapes) before any
// traffic touches it, because New pre-registers the families kstat would
// otherwise only create on first touch.
func TestBcacheFamilyOverRPC(t *testing.T) {
	k, _, c := newRig(t, 1)
	cache := bcache.New(k.CPU, k.Layout(), vfs.NewRAMDisk(256), bcache.Config{CapacitySectors: 64})

	snap := dump(t, c).Stats.Filter("bcache.")
	for _, name := range []string{"bcache.hits", "bcache.misses", "bcache.readahead", "bcache.writeback"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("family query missing %s before first traffic", name)
		}
	}
	if _, ok := snap.Gauges["bcache.dirty"]; !ok {
		t.Error("family query missing bcache.dirty gauge before first traffic")
	}

	// Drive one read through the cache and check the counters move over
	// the same query path.
	buf := make([]byte, 512)
	if err := cache.ReadSectors(0, buf); err != nil {
		t.Fatal(err)
	}
	if snap := dump(t, c).Stats.Filter("bcache."); snap.Counters["bcache.hits"]+snap.Counters["bcache.misses"] == 0 {
		t.Error("bcache counters did not move after a read")
	}
}

// TestProfileOverRPC is the monitor round trip of the profile protocol:
// start a window over RPC, generate traffic, stop, fetch, and check the
// profile attributed the traffic with the mach-pushed context.
func TestProfileOverRPC(t *testing.T) {
	k, _, c := newRig(t, 1)
	t.Cleanup(func() { kprof.Detach(k.CPU) })
	if err := c.ProfStart(); err != nil {
		t.Fatalf("ProfStart: %v", err)
	}
	// The traffic inside the window is monitor queries themselves — the
	// observability plane profiling its own RPC service.
	for i := 0; i < 3; i++ {
		dump(t, c)
	}
	if err := c.ProfStop(); err != nil {
		t.Fatalf("ProfStop: %v", err)
	}
	prof := *dump(t, c).Profile
	cycles, _, _ := prof.Totals()
	if cycles == 0 {
		t.Fatal("profile window attributed no cycles")
	}
	var underMonitor uint64
	for _, s := range prof.Samples {
		if len(s.Stack) > 0 && s.Stack[0] == "rpc:monitor" {
			underMonitor += s.Cycles
		}
	}
	if underMonitor == 0 {
		t.Error("no cycles attributed under the rpc:monitor dispatch frame")
	}

	// The window is closed: more queries must not grow the profile.  The
	// dump fetches themselves run outside the window too, so totals are
	// frozen exactly.
	dump(t, c)
	c2, _, _ := dump(t, c).Profile.Totals()
	if c2 != cycles {
		t.Errorf("profile grew after ProfStop: %d -> %d cycles", cycles, c2)
	}

	// Restarting clears the window.
	if err := c.ProfStart(); err != nil {
		t.Fatal(err)
	}
	if err := c.ProfStop(); err != nil {
		t.Fatal(err)
	}
	c3, _, _ := dump(t, c).Profile.Totals()
	if c3 >= cycles {
		t.Errorf("ProfStart did not reset the window: %d cycles retained", c3)
	}
}

// TestProfileNoProfiler: without the profiler the dump has no profile,
// and closing a window that was never opened is a bare acknowledgement
// that attaches nothing.
func TestProfileNoProfiler(t *testing.T) {
	k, _, c := newRig(t, 1)
	if err := c.ProfStop(); err != nil {
		t.Fatalf("ProfStop before ProfStart: %v", err)
	}
	if kprof.For(k.CPU) != nil {
		t.Fatal("ProfStop attached the profiler")
	}
	wantSectionFollowsPlane(t, k, c, "kprof")
}
