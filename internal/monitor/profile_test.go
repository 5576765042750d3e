package monitor

import (
	"errors"
	"testing"

	"repro/internal/bcache"
	"repro/internal/kprof"
	"repro/internal/vfs"
)

// TestBcacheFamilyOverRPC is the PR-4 follow-up gate: a freshly built
// buffer cache must be visible to per-family monitor queries (and hence
// -prom scrapes) before any traffic touches it, because New pre-registers
// the families kstat would otherwise only create on first touch.
func TestBcacheFamilyOverRPC(t *testing.T) {
	k, _, c := newRig(t, 1)
	cache := bcache.New(k.CPU, k.Layout(), vfs.NewRAMDisk(256), bcache.Config{CapacitySectors: 64})

	snap, err := c.Family("bcache.")
	if err != nil {
		t.Fatalf("Family(bcache.): %v", err)
	}
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
	snap, err = c.Family("bcache.")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["bcache.hits"]+snap.Counters["bcache.misses"] == 0 {
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
		if _, _, err := c.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ProfStop(); err != nil {
		t.Fatalf("ProfStop: %v", err)
	}
	prof, err := c.Profile()
	if err != nil {
		t.Fatalf("Profile: %v", err)
	}
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

	// The window is closed: more queries must not grow the profile.
	if _, _, err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	prof2, err := c.Profile()
	if err != nil {
		t.Fatal(err)
	}
	// The Profile fetch itself ran outside the window too, so totals are
	// frozen exactly.
	c2, _, _ := prof2.Totals()
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
	prof3, err := c.Profile()
	if err != nil {
		t.Fatal(err)
	}
	c3, _, _ := prof3.Totals()
	if c3 >= cycles {
		t.Errorf("ProfStart did not reset the window: %d cycles retained", c3)
	}
}

// TestProfileNoProfiler checks the wire error for profile queries before
// any window was opened.
func TestProfileNoProfiler(t *testing.T) {
	_, _, c := newRig(t, 1)
	_, err := c.Profile()
	wantDetached(t, err, "kprof")
	wantDetached(t, c.ProfStop(), "kprof")
}

// wantDetached checks err is ErrDetached naming plane, as it crossed the
// wire.
func wantDetached(t *testing.T, err error, plane string) {
	t.Helper()
	if !errors.Is(err, ErrDetached) || err.Error() != ErrDetached.Error()+": "+plane {
		t.Fatalf("err = %v, want ErrDetached naming %s", err, plane)
	}
}
