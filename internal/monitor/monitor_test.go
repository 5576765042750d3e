package monitor

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/kstat"
	"repro/internal/mach"
)

func newRig(t testing.TB, pool int) (*mach.Kernel, *kstat.Set, *Client) {
	t.Helper()
	k := mach.New(cpu.Pentium133())
	st := kstat.Attach(k.CPU)
	t.Cleanup(func() { kstat.Detach(k.CPU) })
	srv, err := NewServer(k, st, pool)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	app := k.NewTask("app")
	th, err := app.NewBoundThread("main")
	if err != nil {
		t.Fatal(err)
	}
	c, err := srv.NewClient(th)
	if err != nil {
		t.Fatal(err)
	}
	return k, st, c
}

func TestSnapshotOverRPC(t *testing.T) {
	_, st, c := newRig(t, 1)
	st.Counter("vfs.ops.read").Add(7)
	st.GaugeFunc("mach.pool.files/service.busy", func() int64 { return 3 })
	st.Histogram("mach.rpc.latency_cycles").Observe(1000)

	snap, id, err := c.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if id == 0 {
		t.Fatal("snapshot id should be nonzero")
	}
	if snap.Counters["vfs.ops.read"] != 7 {
		t.Fatalf("vfs.ops.read = %d, want 7", snap.Counters["vfs.ops.read"])
	}
	if snap.Gauges["mach.pool.files/service.busy"] != 3 {
		t.Fatalf("gauge = %d", snap.Gauges["mach.pool.files/service.busy"])
	}
	if h := snap.Histograms["mach.rpc.latency_cycles"]; h.Count != 1 {
		t.Fatalf("hist count = %d, want 1", h.Count)
	}
	// The snapshot crossed the system's own RPC path, so the fabric saw
	// the monitor query itself.
	if snap.Counters["mach.rpc.calls"] == 0 {
		t.Fatal("the monitor query itself should appear in mach.rpc.calls")
	}
}

func TestDeltaSince(t *testing.T) {
	_, st, c := newRig(t, 1)
	st.Counter("vfs.ops.read").Add(10)
	_, id, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st.Counter("vfs.ops.read").Add(5)
	d, id2, err := c.DeltaSince(id)
	if err != nil {
		t.Fatalf("DeltaSince: %v", err)
	}
	if d.Counters["vfs.ops.read"] != 5 {
		t.Fatalf("delta vfs.ops.read = %d, want 5", d.Counters["vfs.ops.read"])
	}
	if id2 == id {
		t.Fatal("DeltaSince must return a fresh baseline")
	}
	// Second poll with the fresh baseline: nothing happened to vfs since.
	d2, _, err := c.DeltaSince(id2)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Counters["vfs.ops.read"] != 0 {
		t.Fatalf("idle delta vfs.ops.read = %d, want 0", d2.Counters["vfs.ops.read"])
	}
}

func TestDeltaUnknownBaseline(t *testing.T) {
	_, _, c := newRig(t, 1)
	if _, _, err := c.DeltaSince(9999); err != ErrUnknownBaseline {
		t.Fatalf("err = %v, want ErrUnknownBaseline", err)
	}
}

func TestBaselineEviction(t *testing.T) {
	_, _, c := newRig(t, 1)
	_, first, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxBaselines; i++ {
		if _, _, err := c.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.DeltaSince(first); err != ErrUnknownBaseline {
		t.Fatalf("evicted baseline: err = %v, want ErrUnknownBaseline", err)
	}
}

func TestFamilyFilter(t *testing.T) {
	_, st, c := newRig(t, 1)
	st.Counter("vfs.ops.read").Inc()
	st.Counter("pager.pageins").Inc()
	snap, err := c.Family("vfs.")
	if err != nil {
		t.Fatalf("Family: %v", err)
	}
	if snap.Counters["vfs.ops.read"] != 1 {
		t.Fatal("family query should include vfs.ops.read")
	}
	if _, ok := snap.Counters["pager.pageins"]; ok {
		t.Fatal("family query must exclude other prefixes")
	}
}

func TestPooledMonitor(t *testing.T) {
	_, _, c := newRig(t, 4)
	for i := 0; i < 8; i++ {
		if _, _, err := c.Snapshot(); err != nil {
			t.Fatalf("pooled snapshot %d: %v", i, err)
		}
	}
}
