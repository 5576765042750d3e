package kflight

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/kstat"
)

// The stall watchdog: the automated consumer of the diagnosis plane.  A
// hang in a multi-server system looks like *outstanding work with no
// progress* — pool busy gauges or port-set pending gauges nonzero while
// the progress counters (replies, errors, kernel entries) stand still.
// The watchdog polls the kstat fabric for exactly that signature and, on
// a stall, assembles one postmortem Dump through the Collect closure
// (supplied by whoever owns the kernel — mach.Kernel.FlightDump — so the
// watchdog itself never imports the kernel).
//
// Two properties the false-positive tests gate:
//
//   - An idle system never fires: no outstanding work means quiet
//     counters are healthy, however long the quiet lasts.
//   - A saturated-but-progressing system never fires: any movement of
//     the progress counters resets the stall clock.
//
// A detected stall fires OnStall once per episode; progress re-arms it.

// DefaultProgress is the progress-counter set: any movement of their sum
// counts as forward progress.  Replies and errors cover RPC completion
// (the chaos harness's own liveness signal); kernel entries cover
// non-RPC work such as trap-only phases.
var DefaultProgress = []string{"mach.rpc.replies", "mach.rpc.errors", "mach.kernel.entries"}

// WatchdogConfig parameterizes a watchdog.
type WatchdogConfig struct {
	// Set is the kstat fabric to poll (required).
	Set *kstat.Set
	// Interval is the poll period (default 100ms).
	Interval time.Duration
	// Stall is how long outstanding work may see zero progress before
	// the watchdog fires (default 10s).
	Stall time.Duration
	// Progress overrides DefaultProgress.
	Progress []string
	// Collect builds the postmortem dump (typically
	// mach.Kernel.FlightDump); nil fires OnStall with a reason-only Dump.
	Collect func(reason string) *Dump
	// OnStall receives the dump of each fired episode.
	OnStall func(*Dump)
}

// Watchdog polls a kstat set for the stalled-with-work-outstanding
// signature.
type Watchdog struct {
	cfg  WatchdogConfig
	stop chan struct{}
	done chan struct{}

	mu        sync.Mutex
	primed    bool // baseline established (by Start or a first Check)
	lastProg  uint64
	stalledAt time.Time
	firedEp   bool // fired for the current no-progress episode
	fired     int
	started   bool
}

// NewWatchdog builds a watchdog (not yet polling; call Start).
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.Stall <= 0 {
		cfg.Stall = 10 * time.Second
	}
	if len(cfg.Progress) == 0 {
		cfg.Progress = DefaultProgress
	}
	return &Watchdog{cfg: cfg}
}

// Start launches the poll loop.
func (w *Watchdog) Start() {
	w.mu.Lock()
	if w.started {
		w.mu.Unlock()
		return
	}
	w.started = true
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	w.primed = true
	w.lastProg = w.progress()
	w.stalledAt = time.Now()
	w.mu.Unlock()
	go w.loop()
}

// Stop halts the poll loop and waits for it to exit.
func (w *Watchdog) Stop() {
	w.mu.Lock()
	if !w.started {
		w.mu.Unlock()
		return
	}
	w.started = false
	stop, done := w.stop, w.done
	w.mu.Unlock()
	close(stop)
	<-done
}

// Fired reports how many stall episodes have fired.
func (w *Watchdog) Fired() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fired
}

func (w *Watchdog) loop() {
	defer close(w.done)
	tick := time.NewTicker(w.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case now := <-tick.C:
			w.Check(now)
		}
	}
}

// progress sums the configured progress counters.
func (w *Watchdog) progress() uint64 {
	snap := w.cfg.Set.Snapshot()
	var sum uint64
	for _, name := range w.cfg.Progress {
		sum += snap.Counters[name]
	}
	return sum
}

// outstanding reports the evidence that work exists to make progress on:
// nonzero occupancy gauges (pool busy, port-set pending) and unresolved
// RPCs.  The RPC ledger is conservation-exact — every dispatched call
// resolves as exactly one reply or one error — so calls in excess of
// replies+errors are clients blocked inside the RPC path right now, which
// catches hangs among bare threads no pool gauge covers.
func outstanding(snap kstat.Snapshot) []string {
	out := occupancy(snap)
	calls := snap.Counters["mach.rpc.calls"]
	done := snap.Counters["mach.rpc.replies"] + snap.Counters["mach.rpc.errors"]
	if calls > done {
		out = append(out, fmt.Sprintf("mach.rpc.inflight=%d", calls-done))
	}
	sort.Strings(out)
	return out
}

// occupancy lists the nonzero pool-busy and port-set-pending gauges,
// "name=level", sorted.
func occupancy(snap kstat.Snapshot) []string {
	var out []string
	for name, v := range snap.Gauges {
		if v != 0 && (strings.HasSuffix(name, ".busy") || strings.HasSuffix(name, ".pending")) {
			out = append(out, fmt.Sprintf("%s=%d", name, v))
		}
	}
	sort.Strings(out)
	return out
}

// Check runs one poll step at the given instant.  Exported so tests can
// drive the state machine without real sleeps.
func (w *Watchdog) Check(now time.Time) {
	prog := w.progress()
	snap := w.cfg.Set.Snapshot()
	busy := outstanding(snap)

	w.mu.Lock()
	if !w.primed {
		// First observation: establish the baseline, never fire off it.
		w.primed = true
		w.lastProg = prog
		w.stalledAt = now
		w.mu.Unlock()
		return
	}
	if prog != w.lastProg {
		// Forward progress: reset the stall clock and re-arm.
		w.lastProg = prog
		w.stalledAt = now
		w.firedEp = false
		w.mu.Unlock()
		return
	}
	if len(busy) == 0 {
		// Idle: quiet counters with no outstanding work are healthy.
		w.stalledAt = now
		w.mu.Unlock()
		return
	}
	if now.Sub(w.stalledAt) < w.cfg.Stall || w.firedEp {
		w.mu.Unlock()
		return
	}
	w.firedEp = true
	w.fired++
	w.mu.Unlock()

	reason := fmt.Sprintf("watchdog: no progress for %v with work outstanding (%s)",
		w.cfg.Stall, strings.Join(busy, " "))
	var d *Dump
	if w.cfg.Collect != nil {
		d = w.cfg.Collect(reason)
	}
	if d == nil {
		d = &Dump{Reason: reason, Stats: snap}
	}
	if w.cfg.OnStall != nil {
		w.cfg.OnStall(d)
	}
}
