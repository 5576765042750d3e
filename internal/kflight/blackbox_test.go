// E-BLACKBOX: the flight recorder against a real deadlock.  Two servers
// that call each other are wired up on a booted system and a client is
// sent in; the classic multi-server hang ("no progress, no message")
// must come out of kflight as a named thread→port→thread cycle, and the
// postmortem dump must carry it.  Who notices a stall is the chaos
// harness's drain (internal/chaos, TestDrainNamesStall); here the dump is
// taken directly.
package kflight_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kflight"
	"repro/internal/mach"
)

// bootT boots the default system and fails the test on error.
func bootT(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.Boot(core.DefaultConfig())
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	return sys
}

func TestEBlackboxCrossServerDeadlock(t *testing.T) {
	sys := bootT(t)
	k := sys.Kernel

	// Two servers calling each other: ping's handler calls pong, pong's
	// handler calls ping.  Each has exactly one serve thread, so one
	// client request wedges both: ping's thread ends up in a reply wait
	// on pong's port while pong's thread is stuck in rendezvous on
	// ping's port (ping's only receiver is busy waiting on pong).
	ping := k.NewTask("ping")
	pong := k.NewTask("pong")
	pingPort, err := ping.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	pongPort, err := pong.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	pongInPing, err := ping.InsertRight(pong, pongPort, mach.DispMakeSend)
	if err != nil {
		t.Fatal(err)
	}
	pingInPong, err := pong.InsertRight(ping, pingPort, mach.DispMakeSend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Termination wakes every parked wait as aborted, and each port's
		// death its waiters as closed; the goroutines exit.
		ping.Terminate()
		pong.Terminate()
	})

	_, err = ping.Spawn("server", func(th *mach.Thread) {
		_ = th.Serve(pingPort, func(req *mach.Message) *mach.Message {
			_, _ = th.Call(pongInPing, &mach.Message{ID: 0x0B10}, mach.CallOpts{})
			return &mach.Message{}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = pong.Spawn("server", func(th *mach.Thread) {
		_ = th.Serve(pongPort, func(req *mach.Message) *mach.Message {
			_, _ = th.Call(pingInPong, &mach.Message{ID: 0x0B20}, mach.CallOpts{})
			return &mach.Message{}
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	client := k.NewTask("client")
	t.Cleanup(client.Terminate)
	clientRight, err := client.InsertRight(ping, pingPort, mach.DispMakeSend)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Spawn("caller", func(th *mach.Thread) {
		_, _ = th.Call(clientRight, &mach.Message{ID: 0x0B00}, mach.CallOpts{})
	}); err != nil {
		t.Fatal(err)
	}

	// The wait-for graph must converge on the ping<->pong cycle.
	var cycles [][]kflight.WaitEdge
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		cycles = kflight.FindCycles(k.WaitEdges())
		if len(cycles) > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if len(cycles) == 0 {
		t.Fatalf("no cycle found; edges: %v", k.WaitEdges())
	}
	named := kflight.RenderCycle(cycles[0])
	for _, want := range []string{"ping", "pong"} {
		if !strings.Contains(named, want) {
			t.Errorf("cycle %q does not name task %q", named, want)
		}
	}
	kinds := map[kflight.WaitKind]bool{}
	for _, e := range cycles[0] {
		kinds[e.Kind] = true
	}
	if !kinds[kflight.WaitReply] || !kinds[kflight.WaitRendezvous] {
		t.Errorf("cycle kinds = %v, want a reply wait and a rendezvous wait", kinds)
	}

	dump := k.FlightDump("cross-server deadlock")
	// The postmortem names the exact cycle and carries the flight rings.
	if len(dump.Cycles) == 0 {
		t.Fatal("dump has no cycles")
	}
	if dump.TotalEvents() == 0 {
		t.Error("dump carries no flight-ring events")
	}
	var txt strings.Builder
	if err := dump.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DEADLOCK", "ping", "pong"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text postmortem missing %q:\n%s", want, txt.String())
		}
	}
}

// TestOutstandingSettledBoot: a settled default boot holds no outstanding
// work — every busy/pending gauge reads zero and the RPC ledger balances
// — and a raised busy gauge is listed, "name=level".
func TestOutstandingSettledBoot(t *testing.T) {
	sys := bootT(t)
	snap := sys.Stats.Snapshot()
	if occ := kflight.Outstanding(snap); len(occ) != 0 {
		t.Fatalf("settled boot holds outstanding work: %v", occ)
	}
	calls, replies, errs := snap.Counters["mach.rpc.calls"], snap.Counters["mach.rpc.replies"], snap.Counters["mach.rpc.errors"]
	if calls == 0 || calls != replies+errs {
		t.Fatalf("rpc ledger of a settled boot: calls=%d replies=%d errors=%d", calls, replies, errs)
	}
	sys.Stats.GaugeFunc("x.busy", func() int64 { return 2 })
	sys.Stats.GaugeFunc("x.workers", func() int64 { return 3 })
	if occ := kflight.Outstanding(sys.Stats.Snapshot()); len(occ) != 1 || occ[0] != "x.busy=2" {
		t.Fatalf("Outstanding = %v, want [x.busy=2]", occ)
	}
}
