package chaos

import (
	"encoding/json"
	"errors"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kflight"
	"repro/internal/mach"
	"repro/internal/vfs"
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
// anything; guard fires when a harness call of its own stops.  The
// failure's flight dump carries the edge the stuck call waits on.
func TestDrainNamesStall(t *testing.T) {
	drainOne := func(h *harness) error { return h.drain(1) }
	for _, tc := range []struct {
		name string
		// stall sets the hang up: a worker that stops until release,
		// started through spawn, or a volume lock held until release.
		stall func(t *testing.T, h *harness, release <-chan struct{}, spawn func(func() error))
		// detect runs the detector: drain for a worker, guard for a
		// harness call.
		detect func(h *harness) error
		want   string
		// edge, when set, picks the wait-for edge the dump must carry.
		edge func(kflight.WaitEdge) bool
	}{
		{"pool-call", stallInCall, drainOne, "mach.pool.stuck/serve.busy=1", func(e kflight.WaitEdge) bool {
			return e.Kind == kflight.WaitReply && e.Task == "caller" && e.OwnerTask == "stuck"
		}},
		{"no-gauge", func(_ *testing.T, _ *harness, release <-chan struct{}, spawn func(func() error)) {
			spawn(func() error { <-release; return nil })
		}, drainOne, "with 1 workers outstanding ()", nil},
		{"harness-call", holdVolumeLock, func(h *harness) error {
			return h.guard("final sync", h.checker.Sync)
		}, "final sync blocked for 100ms", func(e kflight.WaitEdge) bool {
			return e.Kind == kflight.WaitKernelLock && e.Lock == "volume:/stuck" && e.Holder != ""
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.ServerPool = 2 // a sync waiting on a held volume lock still gets a slot
			sys, err := core.Boot(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := &harness{cfg: Config{StallTimeout: 100 * time.Millisecond, DumpDir: t.TempDir()}.withDefaults(),
				faults: map[string]int{}, sys: sys, results: make(chan error, 1)}
			release := make(chan struct{})
			var workers sync.WaitGroup
			t.Cleanup(func() { close(release); workers.Wait() })
			tc.stall(t, h, release, func(op func() error) {
				workers.Add(1)
				go func() { defer workers.Done(); h.results <- op() }()
			})

			derr := tc.detect(h)
			if derr == nil || !strings.HasPrefix(derr.Error(), "deadlock:") || !strings.Contains(derr.Error(), tc.want) {
				t.Fatalf("detector = %v, want a deadlock naming %q", derr, tc.want)
			}
			if tc.edge == nil {
				return
			}
			// The call is stuck; wait until it has registered its edge.
			for deadline := time.Now().Add(10 * time.Second); !slices.ContainsFunc(sys.Kernel.WaitEdges(), tc.edge); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the stuck call never registered its edge: %v", sys.Kernel.WaitEdges())
				}
			}
			if d := readDump(t, h.fail(derr)); !slices.ContainsFunc(d.Waits, tc.edge) {
				t.Errorf("dump lacks the stuck call's edge: %v", d.Waits)
			}
		})
	}
}

// stuckFS is a RAM volume whose first Sync holds the volume's lock until
// release, once it has closed entered.
type stuckFS struct {
	vfs.FileSystem
	armed   atomic.Bool
	entered chan struct{}
	release <-chan struct{}
}

func (f *stuckFS) Sync() error {
	if f.armed.CompareAndSwap(true, false) {
		close(f.entered)
		<-f.release
	}
	return f.FileSystem.Sync()
}

// holdVolumeLock mounts /stuck, has a sync from another task take its
// volume lock and stop there until release, and gives the harness the
// checker client its own syncs go through.
func holdVolumeLock(t *testing.T, h *harness, release <-chan struct{}, spawn func(func() error)) {
	fs := &stuckFS{FileSystem: vfs.NewMemFS(), entered: make(chan struct{}), release: release}
	fs.armed.Store(true)
	if err := h.sys.Files.Mount("/stuck", fs); err != nil {
		t.Fatal(err)
	}
	client := func(task string) *vfs.Client {
		th, err := h.sys.Kernel.NewTask(task).NewBoundThread("main")
		if err != nil {
			t.Fatal(err)
		}
		c, err := h.sys.Files.NewClient(th, vfs.ProfileOS2)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	holder := client("holder")
	h.checker = client("chaos-checker")
	spawn(holder.Sync)
	<-fs.entered
}

// stallInCall spawns a worker blocked in a call to a one-slot server
// whose handler waits for release, and returns once the slot is busy.
func stallInCall(t *testing.T, h *harness, release <-chan struct{}, spawn func(func() error)) {
	sys := h.sys
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
