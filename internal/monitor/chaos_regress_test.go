package monitor

import (
	"testing"

	"repro/internal/mach"
)

// A pool's ops family reads the pool's own count, and a pool that dies
// keeps its count in the family, so a delta between two dumps taken
// across the echo service's destroy-and-rebuild never wraps a counter:
// the successor of the same name adds to the total.
func TestDeltaSinceAcrossPoolRebuild(t *testing.T) {
	k, _, c := newRig(t, 1)
	echo := k.NewTask("chaos-echo")
	app := k.NewTask("echo-client")
	th, err := app.NewBoundThread("main")
	if err != nil {
		t.Fatal(err)
	}
	serve := func(calls int) mach.PortName {
		t.Helper()
		recv, err := echo.AllocatePort()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := echo.ServePool("echo", recv, 2, func(m *mach.Message) *mach.Message {
			return &mach.Message{ID: m.ID + 1}
		}); err != nil {
			t.Fatalf("ServePool: %v", err)
		}
		send, err := app.InsertRight(echo, recv, mach.DispMakeSend)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < calls; i++ {
			if _, err := th.Call(send, &mach.Message{ID: 1}, mach.CallOpts{}); err != nil {
				t.Fatalf("echo call: %v", err)
			}
		}
		return recv
	}

	recv := serve(5)
	base := dump(t, c).Stats
	if err := echo.DeallocatePort(recv); err != nil {
		t.Fatal(err)
	}
	serve(3)
	d := dump(t, c).Stats.Delta(base)
	const ops = "mach.pool.chaos-echo/echo.ops"
	if d.Counters[ops] != 3 {
		t.Errorf("%s delta = %d across the rebuild, want 3", ops, d.Counters[ops])
	}
	if w := d.Gauges["mach.pool.chaos-echo/echo.workers"]; w != 2 {
		t.Errorf("workers = %d after the rebuild, want the successor's 2", w)
	}
	for name, v := range d.Counters {
		if v > 1<<62 {
			t.Errorf("%s delta = %d: the counter went backwards", name, v)
		}
	}
}
