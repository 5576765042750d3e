package monitor

import (
	"errors"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kflight"
	"repro/internal/klat"
	"repro/internal/kprof"
	"repro/internal/kstat"
	"repro/internal/mach"
)

func newRig(t testing.TB, pool int) (*mach.Kernel, *kstat.Set, *Client) {
	t.Helper()
	k := mach.New(cpu.Pentium133())
	st := kstat.Attach(k.CPU)
	t.Cleanup(func() { kstat.Detach(k.CPU) })
	srv, err := NewServer(k, pool)
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

// dump fetches one dump over the monitor's RPC.
func dump(t testing.TB, c *Client) *kflight.Dump {
	t.Helper()
	d, err := c.Dump()
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	return d
}

func TestSnapshotOverRPC(t *testing.T) {
	_, st, c := newRig(t, 1)
	st.Counter("vfs.ops.read").Add(7)
	st.GaugeFunc("mach.pool.files/service.busy", func() int64 { return 3 })
	st.Histogram("mach.rpc.latency_cycles").Observe(1000)

	snap := dump(t, c).Stats
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

// TestDeltaSince: the client takes a delta between two dumps; the
// monitor keeps nothing between them.
func TestDeltaSince(t *testing.T) {
	_, st, c := newRig(t, 1)
	st.Counter("vfs.ops.read").Add(10)
	base := dump(t, c).Stats
	st.Counter("vfs.ops.read").Add(5)
	cur := dump(t, c).Stats
	if d := cur.Delta(base); d.Counters["vfs.ops.read"] != 5 {
		t.Fatalf("delta vfs.ops.read = %d, want 5", d.Counters["vfs.ops.read"])
	}
	// Nothing happened to vfs since the second dump.
	if d := dump(t, c).Stats.Delta(cur); d.Counters["vfs.ops.read"] != 0 {
		t.Fatalf("idle delta vfs.ops.read = %d, want 0", d.Counters["vfs.ops.read"])
	}
}

func TestFamilyFilter(t *testing.T) {
	_, st, c := newRig(t, 1)
	st.Counter("vfs.ops.read").Inc()
	st.Counter("pager.pageins").Inc()
	snap := dump(t, c).Stats.Filter("vfs.")
	if snap.Counters["vfs.ops.read"] != 1 {
		t.Fatal("family filter should include vfs.ops.read")
	}
	if _, ok := snap.Counters["pager.pageins"]; ok {
		t.Fatal("family filter must exclude other prefixes")
	}
}

func TestPooledMonitor(t *testing.T) {
	_, _, c := newRig(t, 4)
	for i := 0; i < 8; i++ {
		if _, err := c.Dump(); err != nil {
			t.Fatalf("pooled dump %d: %v", i, err)
		}
	}
}

// TestOnlyThreeRequests: dump, prof.start and prof.stop are the
// monitor's whole protocol; the retired views and another message ID
// answer ErrBadRequest across the wire.
func TestOnlyThreeRequests(t *testing.T) {
	k, _, c := newRig(t, 1)
	t.Cleanup(func() { kprof.Detach(k.CPU) })
	for _, req := range []string{"dump", "prof.start", "prof.stop"} {
		if err := c.query(req, nil); err != nil {
			t.Errorf("%s: %v", req, err)
		}
	}
	for _, req := range []string{"stat", "delta 1", "family mach.", "prof", "flight", "tail", ""} {
		if err := c.query(req, nil); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%q answered %v, want ErrBadRequest", req, err)
		}
	}
	reply, err := c.th.Call(c.port, &mach.Message{ID: MsgQuery + 1, Body: []byte("dump")}, mach.CallOpts{})
	if err != nil || reply.ID == 0 || string(reply.Body) != ErrBadRequest.Error() {
		t.Errorf("foreign message ID answered %v, %v", reply, err)
	}
}

// planes names each observation plane's attach and detach and the dump
// section it owns.
var planes = map[string]struct {
	attach  func(*cpu.Engine)
	detach  func(*cpu.Engine)
	section func(*kflight.Dump) bool
}{
	"kstat": {func(e *cpu.Engine) { kstat.Attach(e) }, kstat.Detach,
		func(d *kflight.Dump) bool { return d.Stats.Counters != nil }},
	"kflight": {func(e *cpu.Engine) { kflight.Attach(e) }, kflight.Detach,
		func(d *kflight.Dump) bool { return d.Engines != nil }},
	"klat": {func(e *cpu.Engine) { klat.Attach(e) }, klat.Detach,
		func(d *kflight.Dump) bool { return d.Tail != nil }},
	"kprof": {func(e *cpu.Engine) { kprof.Attach(e) }, kprof.Detach,
		func(d *kflight.Dump) bool { return d.Profile != nil }},
}

// wantSectionFollowsPlane: a plane that is not attached leaves its
// section out of the dump, and attaching it brings the section back,
// without a word to the monitor.
func wantSectionFollowsPlane(t *testing.T, k *mach.Kernel, c *Client, plane string) {
	t.Helper()
	p := planes[plane]
	p.detach(k.CPU)
	if p.section(dump(t, c)) {
		t.Fatalf("%s detached, its section is in the dump", plane)
	}
	p.attach(k.CPU)
	t.Cleanup(func() { p.detach(k.CPU) })
	if !p.section(dump(t, c)) {
		t.Fatalf("%s attached, its section is missing from the dump", plane)
	}
}

// TestStatsDetached: without the kstat plane the dump's stat maps are nil.
func TestStatsDetached(t *testing.T) {
	k, _, c := newRig(t, 1)
	wantSectionFollowsPlane(t, k, c, "kstat")
}

// TestFlightDumpNoRecorder: without a flight recorder the dump carries no
// engine rings, and is still answered.
func TestFlightDumpNoRecorder(t *testing.T) {
	k, _, c := newRig(t, 1)
	wantSectionFollowsPlane(t, k, c, "kflight")
}

// TestTailDumpDetached: without the latency tracker the dump has no tail.
func TestTailDumpDetached(t *testing.T) {
	k, _, c := newRig(t, 1)
	wantSectionFollowsPlane(t, k, c, "klat")
}
