package chaos

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kflight"
	"repro/internal/mach"
)

// readDump loads the flight dump a fail() error names.
func readDump(t *testing.T, ferr error) *kflight.Dump {
	t.Helper()
	msg := ferr.Error()
	i := strings.Index(msg, "flight dump: ")
	if i < 0 {
		t.Fatalf("failure message does not name the artifact:\n%s", msg)
	}
	js, err := os.ReadFile(msg[i+len("flight dump: "):])
	if err != nil {
		t.Fatalf("artifact missing: %v", err)
	}
	d := new(kflight.Dump)
	if err := json.Unmarshal(js, d); err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	return d
}

// TestFailWritesFlightDump checks the postmortem path the soak takes on an
// invariant violation: fail() must write a parseable kflight dump artifact
// next to the replay flags and name it in the error message.
func TestFailWritesFlightDump(t *testing.T) {
	dir := t.TempDir()
	h := &harness{cfg: Config{Seed: 42, DumpDir: dir}.withDefaults(), faults: map[string]int{}}
	sys, err := core.Boot(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h.sys = sys
	h.logf("synthetic epoch for the dump test")

	ferr := h.fail(errors.New("synthetic invariant violation"))
	if ferr == nil {
		t.Fatal("fail returned nil")
	}
	d := readDump(t, ferr)
	if !strings.Contains(d.Reason, "chaos invariant failure") ||
		!strings.Contains(d.Reason, "synthetic invariant violation") {
		t.Errorf("dump reason = %q", d.Reason)
	}
	if d.TotalEvents() == 0 {
		t.Error("dump carries no flight-ring events from the booted system")
	}
	if len(d.Stats.Counters) == 0 {
		t.Error("dump carries no kstat snapshot")
	}
}

// TestFailDumpDisabled checks the "-" opt-out: no artifact, no mention.
func TestFailDumpDisabled(t *testing.T) {
	h := &harness{cfg: Config{Seed: 43, DumpDir: "-"}.withDefaults(), faults: map[string]int{}}
	sys, err := core.Boot(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h.sys = sys
	ferr := h.fail(errors.New("synthetic"))
	if strings.Contains(ferr.Error(), "flight dump:") {
		t.Fatalf("disabled dump still advertised an artifact:\n%s", ferr)
	}
}

// TestDrainNamesStall checks the system's one stall detector: drain fires
// when a worker's op stops moving, names the outstanding gauges when a
// pool slot holds the stuck call, and still fires when no gauge shows
// anything.  The failure's flight dump carries the stuck call's reply edge.
func TestDrainNamesStall(t *testing.T) {
	for _, tc := range []struct {
		name string
		// stall spawns a worker that stops until release; server is the
		// task whose pool holds its call ("" for a worker outside the
		// kernel).
		stall  func(t *testing.T, sys *core.System, release <-chan struct{}, spawn func(func() error))
		server string
		want   string
	}{
		{"pool-call", stallInCall, "stuck", "mach.pool.stuck/serve.busy=1"},
		{"no-gauge", func(_ *testing.T, _ *core.System, release <-chan struct{}, spawn func(func() error)) {
			spawn(func() error { <-release; return nil })
		}, "", "with 1 workers outstanding ()"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := core.Boot(core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			h := &harness{cfg: Config{StallTimeout: 100 * time.Millisecond, DumpDir: t.TempDir()}.withDefaults(),
				faults: map[string]int{}, sys: sys, results: make(chan error, 1)}
			release := make(chan struct{})
			var workers sync.WaitGroup
			t.Cleanup(func() { close(release); workers.Wait() })
			tc.stall(t, sys, release, func(op func() error) {
				workers.Add(1)
				go func() { defer workers.Done(); h.results <- op() }()
			})

			derr := h.drain(1)
			if derr == nil || !strings.HasPrefix(derr.Error(), "deadlock:") || !strings.Contains(derr.Error(), tc.want) {
				t.Fatalf("drain = %v, want a deadlock naming %q", derr, tc.want)
			}
			if tc.server == "" {
				return
			}
			d := readDump(t, h.fail(derr))
			var edge bool
			for _, e := range d.Waits {
				edge = edge || e.Kind == kflight.WaitReply && e.Task == "caller" && e.OwnerTask == tc.server
			}
			if !edge {
				t.Errorf("dump lacks the blocked reply edge to %s: %v", tc.server, d.Waits)
			}
		})
	}
}

// stallInCall spawns a worker blocked in a call to a one-slot server
// whose handler waits for release, and returns once the slot is busy.
func stallInCall(t *testing.T, sys *core.System, release <-chan struct{}, spawn func(func() error)) {
	k := sys.Kernel
	srv, client := k.NewTask("stuck"), k.NewTask("caller")
	port, err := srv.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ServePool("serve", port, 1, func(*mach.Message) *mach.Message {
		<-release
		return &mach.Message{}
	}); err != nil {
		t.Fatal(err)
	}
	send, err := client.InsertRight(srv, port, mach.DispMakeSend)
	if err != nil {
		t.Fatal(err)
	}
	th, err := client.NewBoundThread("main")
	if err != nil {
		t.Fatal(err)
	}
	spawn(func() error {
		defer srv.Terminate()
		defer client.Terminate()
		_, err := th.Call(send, &mach.Message{ID: 0x0C01}, mach.CallOpts{})
		return err
	})
	for deadline := time.Now().Add(10 * time.Second); sys.Stats.Snapshot().Gauges["mach.pool.stuck/serve.busy"] != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the call never took the server slot")
		}
	}
}
