// Package chaos is the seeded fault-injection soak harness: it boots the
// full Figure-1 system (pooled servers, buffer cache, SMP engines), drives
// mixed traffic through the OS/2, POSIX and MVM personalities plus a raw
// RPC client concurrently, and injects mid-stream faults — pool-thread
// death and restart, port destruction under waiting callers, device outages
// and heal cycles, buffer-cache flush failures, processor_assign
// repartitioning, and monitor/profiler query storms — while checking that
// the system stays live, loses no acknowledged write, conserves its kstat
// counters, and keeps answering observation queries.
//
// Runs are deterministic given a seed: every worker's operation stream and
// the fault schedule derive from Config.Seed alone, so a failure replays
// from the seed printed in its error.  (The goroutine interleaving is the
// host scheduler's; the op and fault sequences are what the seed pins.)
package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/jfs"
	"repro/internal/kflight"
	"repro/internal/mach"
	"repro/internal/monitor"
	"repro/internal/vfs"
)

// Config parameterizes a soak run.
type Config struct {
	// Seed pins the op streams and fault schedule.  0 means 1.
	Seed int64
	// Actions is the approximate total operation budget across all
	// workers (default 12000).
	Actions int
	// CPUs is the engine count (default 4).  With 1 CPU the
	// processor-set fault is replaced by an extra pool kill.
	CPUs int
	// Pool is the server-pool size (default 3, floor 2 — pool kills must
	// leave a receiver alive).
	Pool int
	// CacheSectors sizes the file server's buffer cache (default 512).
	CacheSectors int
	// StallTimeout is how long drain tolerates a standing op counter
	// before declaring a deadlock (default 30s).
	StallTimeout time.Duration
	// Log, when set, receives the narrative fault log as it happens.
	Log io.Writer
	// DumpDir is where an invariant failure writes its kflight postmortem
	// dump (default os.TempDir(); empty string after defaulting is
	// impossible, "-" disables the artifact).
	DumpDir string
}

// Report summarizes a completed (or failed) run.
type Report struct {
	Seed     int64
	Epochs   int
	Ops      uint64            // operations attempted (deterministic per seed)
	OpErrors uint64            // operations that returned errors (fault-induced)
	Faults   map[string]int    // fault kind -> injections
	Verified int               // files content-verified exactly by the final oracle
	Tainted  int               // files whose last write errored (reachability-checked only)
	Streams  map[string]uint64 // worker name -> digest of the ops its setup and op drew
	Log      []string          // fault/epoch narrative
}

// Fault kinds.
const (
	FaultPoolKill    = "pool-kill"
	FaultPortDestroy = "port-destroy"
	FaultDevOutage   = "dev-outage"
	FaultFlushFail   = "flush-fail"
	FaultPsetShuffle = "pset-shuffle"
	FaultObsStorm    = "obs-storm"
)

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Actions <= 0 {
		c.Actions = 12000
	}
	if c.CPUs <= 0 {
		c.CPUs = 4
	}
	if c.Pool < 2 {
		c.Pool = 3
	}
	if c.CacheSectors <= 0 {
		c.CacheSectors = 512
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 30 * time.Second
	}
	if c.DumpDir == "" {
		c.DumpDir = os.TempDir()
	}
	return c
}

type workerCmd struct {
	setup bool
	n     int
	done  chan<- error
}

// worker is one traffic source.  setup and op run on the worker's own
// goroutine, under drain; verify runs on the harness goroutine.  op
// returns an error only for invariant violations — expected
// fault-induced failures are counted, not returned.
type worker interface {
	name() string
	setup(h *harness) error
	op() error
	verify() (clean, tainted int, err error)
	digest() uint64
}

type harness struct {
	cfg     Config
	sys     *core.System
	fdev    *vfs.FaultyDev // device under /chaos
	checker *vfs.Client    // harness-side file client (oracle, sync)
	mon     *monitor.Client
	echo    *echoService
	cpset   *mach.ProcessorSet

	workers []worker
	cmds    []chan workerCmd
	results chan error
	ops     atomic.Uint64
	opErrs  atomic.Uint64

	faults    map[string]int
	injectErr error
	log       []string
	epochs    int
	batch     int // ops per worker per epoch
}

// Run executes one soak and returns its report.  A non-nil error is an
// invariant violation (or a harness failure); the message embeds the seed
// and the recent fault log for replay.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	h := &harness{cfg: cfg, faults: make(map[string]int)}
	rep := &Report{Seed: cfg.Seed, Faults: h.faults}
	// Ends every worker loop that is not stuck in an op.
	defer func() {
		for _, c := range h.cmds {
			close(c)
		}
	}()
	if err := h.boot(); err != nil {
		h.fill(rep)
		return rep, h.fail(fmt.Errorf("boot: %w", err))
	}
	schedule := h.schedule()
	rep.Epochs = len(schedule)
	for i, kind := range schedule {
		if err := h.epoch(i, kind); err != nil {
			h.fill(rep)
			return rep, h.fail(err)
		}
	}
	// Every batch has drained, so the workers' streams are settled.
	rep.Streams = make(map[string]uint64, len(h.workers))
	for _, w := range h.workers {
		rep.Streams[w.name()] = w.digest()
	}
	// Final oracle: heal everything, drain the caches, then have every
	// worker verify its own files end to end.
	h.fdev.Heal()
	if err := h.guard("final sync", h.checker.Sync); err != nil {
		h.fill(rep)
		return rep, h.fail(fmt.Errorf("final sync: %w", err))
	}
	for _, w := range h.workers {
		var clean, tainted int
		if err := h.guard("final oracle", func() (err error) {
			clean, tainted, err = w.verify()
			return err
		}); err != nil {
			h.fill(rep)
			return rep, h.fail(fmt.Errorf("final oracle (%s): %w", w.name(), err))
		}
		rep.Verified += clean
		rep.Tainted += tainted
	}
	if err := h.guard("invariant checks", func() error { return h.checkInvariants(len(schedule), "final") }); err != nil {
		h.fill(rep)
		return rep, h.fail(err)
	}
	h.logf("done: ops=%d opErrors=%d verified=%d tainted=%d",
		h.ops.Load(), h.opErrs.Load(), rep.Verified, rep.Tainted)
	h.fill(rep)
	return rep, nil
}

func (h *harness) fill(rep *Report) {
	rep.Ops = h.ops.Load()
	rep.OpErrors = h.opErrs.Load()
	rep.Log = append([]string(nil), h.log...)
}

func (h *harness) fail(err error) error {
	tail := h.log
	if len(tail) > 12 {
		tail = tail[len(tail)-12:]
	}
	dump := ""
	if path := h.writeDump(err); path != "" {
		dump = "\nflight dump: " + path
	}
	return fmt.Errorf("chaos(seed=%d actions=%d cpus=%d): %w\nrecent events:\n  %s%s",
		h.cfg.Seed, h.cfg.Actions, h.cfg.CPUs, err, strings.Join(tail, "\n  "), dump)
}

// writeDump captures the system's one dump next to the replay flags of a
// failed run: the last-K event rings, the wait-for graph (a deadlocked
// drain names its cycle), scheduler state, the full kstat snapshot and
// the tail ledgers — what kobs renders as its flight, stat and tail
// views.  Best-effort — an unwritable dir just drops the artifact, never
// masks the original failure.
func (h *harness) writeDump(cause error) string {
	if h.cfg.DumpDir == "-" || h.sys == nil {
		return ""
	}
	d := h.sys.Kernel.FlightDump(fmt.Sprintf("chaos invariant failure: %v", cause))
	path := filepath.Join(h.cfg.DumpDir, fmt.Sprintf("chaos-flight-seed%d.json", h.cfg.Seed))
	f, ferr := os.Create(path)
	if ferr != nil {
		return ""
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if werr := enc.Encode(d); werr != nil {
		return ""
	}
	return path
}

func (h *harness) logf(f string, a ...any) {
	line := fmt.Sprintf(f, a...)
	h.log = append(h.log, line)
	if h.cfg.Log != nil {
		fmt.Fprintln(h.cfg.Log, "chaos: "+line)
	}
}

// boot brings the system up, mounts the fault-injectable /chaos volume,
// and builds the workers.
func (h *harness) boot() error {
	bc := core.DefaultConfig()
	bc.CPUs = h.cfg.CPUs
	bc.ServerPool = h.cfg.Pool
	bc.CacheSectors = h.cfg.CacheSectors
	bc.Personalities = []string{"os2", "posix", "mvm"}
	sys, err := core.Boot(bc)
	if err != nil {
		return err
	}
	h.sys = sys

	// The chaos volume: a journaled filesystem over a fault-injectable
	// device, cached by the same boot-installed bcache factory as every
	// other volume.
	ram := vfs.NewRAMDisk(8192)
	if err := jfs.Format(ram); err != nil {
		return err
	}
	h.fdev = vfs.NewFaultyDev(ram)
	if err := sys.Files.MountVolume("/chaos", jfs.New(), h.fdev); err != nil {
		return err
	}

	// Harness-side clients: the file oracle and the monitor client.
	ct := sys.Kernel.NewTask("chaos-checker")
	cth, err := ct.NewBoundThread("main")
	if err != nil {
		return err
	}
	if h.checker, err = sys.Files.NewClient(cth, vfs.ProfileOS2); err != nil {
		return err
	}
	mt := sys.Kernel.NewTask("chaos-monitor-client")
	mth, err := mt.NewBoundThread("main")
	if err != nil {
		return err
	}
	if h.mon, err = monitor.Connect(mth, sys.Monitor.Task(), sys.Monitor.Port()); err != nil {
		return err
	}

	// The sacrificial echo service for the port-destruction fault.
	h.echo = newEchoService(h)
	if err := h.echo.start(); err != nil {
		return err
	}

	// Workers: two OS/2 processes, two POSIX processes, one MVM guest,
	// one raw RPC client.
	h.workers = []worker{
		newOS2Worker(0), newOS2Worker(1),
		newPosixWorker(2), newPosixWorker(3),
		newMVMWorker(4),
		newEchoWorker(5),
	}
	cycles := h.cfg.Actions / 20000
	if cycles < 2 {
		cycles = 2
	}
	h.epochs = 6 * cycles
	h.batch = h.cfg.Actions / (h.epochs * len(h.workers))
	if h.batch < 10 {
		h.batch = 10
	}
	h.results = make(chan error, len(h.workers))
	for _, w := range h.workers {
		cmds := make(chan workerCmd)
		h.cmds = append(h.cmds, cmds)
		go h.loop(w, cmds)
		// One worker at a time, so the seed pins the volumes' layout.
		cmds <- workerCmd{setup: true, done: h.results}
		if err := h.drain(1); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	h.logf("booted: cpus=%d pool=%d cache=%d epochs=%d batch=%d/worker",
		h.cfg.CPUs, h.cfg.Pool, h.cfg.CacheSectors, h.epochs, h.batch)
	return nil
}

func (h *harness) loop(w worker, cmds chan workerCmd) {
	for cmd := range cmds {
		var err error
		if cmd.setup {
			err = w.setup(h)
		} else {
			for i := 0; i < cmd.n && err == nil; i++ {
				err = w.op()
				h.ops.Add(1)
			}
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", w.name(), err)
		}
		cmd.done <- err
	}
}

// schedule derives the per-epoch fault order from the seed: each cycle of
// six epochs is a seeded permutation of the six kinds, so every kind
// fires at least twice per run.
func (h *harness) schedule() []string {
	kinds := []string{FaultPoolKill, FaultPortDestroy, FaultDevOutage,
		FaultFlushFail, FaultPsetShuffle, FaultObsStorm}
	if h.cfg.CPUs <= 1 {
		// No processor sets to repartition on a single engine.
		kinds[4] = FaultPoolKill
	}
	rng := rand.New(rand.NewSource(h.cfg.Seed ^ 0x5DEECE66D))
	var out []string
	for len(out) < h.epochs {
		for _, i := range rng.Perm(len(kinds)) {
			out = append(out, kinds[i])
		}
	}
	return out[:h.epochs]
}

// epoch runs one batch on every worker, injects its fault at the batch
// midpoint, waits for the batch to drain while the op counter moves,
// repairs, and checks the invariants.
func (h *harness) epoch(i int, kind string) error {
	start := h.ops.Load()
	for _, c := range h.cmds {
		c <- workerCmd{n: h.batch, done: h.results}
	}
	quota := uint64(h.batch * len(h.workers))
	h.waitOps(start+quota/2, 5*time.Second)
	if err := h.guard("inject "+kind, func() error { h.inject(i, kind); return nil }); err != nil {
		return err
	}
	if err := h.drain(len(h.workers)); err != nil {
		return err
	}
	if h.injectErr != nil {
		err := h.injectErr
		h.injectErr = nil
		return err
	}
	if err := h.guard("repair "+kind, func() error { return h.repair(kind) }); err != nil {
		return err
	}
	if err := h.guard("invariant checks", func() error { return h.checkInvariants(i, kind) }); err != nil {
		return err
	}
	h.logf("epoch %d (%s): ops+%d errs=%d", i, kind, h.ops.Load()-start, h.opErrs.Load())
	return nil
}

// waitOps blocks until the global op counter reaches target or the
// deadline passes (injection proceeds either way).
func (h *harness) waitOps(target uint64, max time.Duration) {
	deadline := time.Now().Add(max)
	for h.ops.Load() < target && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
}

// drain collects n batch completions, enforcing invariant 1: the op
// counter must keep moving — a stall longer than StallTimeout is a
// deadlocked client.  It is the system's one stall detector: it fires
// whether or not a gauge shows the stuck work, and the failure's flight
// dump (fail) carries the wait-for graph and scheduler state.
func (h *harness) drain(n int) error {
	last := h.ops.Load()
	lastMove := time.Now()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for n > 0 {
		select {
		case err := <-h.results:
			n--
			if err != nil {
				return err
			}
		case <-tick.C:
			if cur := h.ops.Load(); cur != last {
				last, lastMove = cur, time.Now()
			} else if time.Since(lastMove) > h.cfg.StallTimeout {
				return fmt.Errorf("deadlock: no progress for %v with %d workers outstanding (%s)",
					h.cfg.StallTimeout, n, strings.Join(kflight.Outstanding(h.sys.Stats.Snapshot()), " "))
			}
		}
	}
	return nil
}

// guard runs one harness call into the system under the stall detector:
// a call that has not returned after StallTimeout is a deadlock, and the
// run fails through fail with the flight dump.  It reads no worker
// results, so it may run while the workers are mid-batch.  A call that
// never returns is left blocked; the run has failed.
func (h *harness) guard(what string, call func() error) error {
	done := make(chan error, 1)
	go func() { done <- call() }()
	stall := time.NewTimer(h.cfg.StallTimeout)
	defer stall.Stop()
	select {
	case err := <-done:
		return err
	case <-stall.C:
		return fmt.Errorf("deadlock: %s blocked for %v (%s)",
			what, h.cfg.StallTimeout, strings.Join(kflight.Outstanding(h.sys.Stats.Snapshot()), " "))
	}
}

// checkInvariants runs the post-epoch checks: counter conservation,
// cache drain, occupancy gauges at zero, scheduler quiescent, and the
// observation plane answering.
func (h *harness) checkInvariants(epoch int, kind string) error {
	// Drain write-behind state first so the dirty gauge must be zero.
	// The device is healthy here (repair healed it), so one pass must
	// land.
	if err := h.checker.Sync(); err != nil {
		return fmt.Errorf("epoch %d (%s): sync: %w", epoch, kind, err)
	}
	// The workers are idle and every harness RPC has returned, so the
	// RPC ledger must balance: every dispatched call resolved as exactly
	// one reply or one error.
	snap := h.sys.Stats.Snapshot()
	calls := snap.Counters["mach.rpc.calls"]
	replies := snap.Counters["mach.rpc.replies"]
	rpcErrs := snap.Counters["mach.rpc.errors"]
	if calls != replies+rpcErrs {
		return fmt.Errorf("epoch %d (%s): rpc ledger broken: calls=%d replies=%d errors=%d (leak=%d)",
			epoch, kind, calls, replies, rpcErrs, int64(calls)-int64(replies+rpcErrs))
	}
	if d := snap.Gauges["bcache.dirty"]; d != 0 {
		return fmt.Errorf("epoch %d (%s): bcache.dirty=%d after sync", epoch, kind, d)
	}
	// No call is in flight: drain and guard return only when every
	// batch and harness call has, a dead slot or a stopped pool wakes
	// its parked callers before they return, busy falls before a
	// caller's Call returns, and a set counts its waiters inside claim.
	// So every pool occupancy and port-set pending gauge reads zero now.
	if occ := kflight.Outstanding(snap); len(occ) > 0 {
		return fmt.Errorf("epoch %d (%s): stuck occupancy: %s", epoch, kind, strings.Join(occ, " "))
	}
	for _, es := range h.sys.Kernel.SchedStats() {
		if es.RunQueue != 0 || es.Reserved != 0 {
			return fmt.Errorf("epoch %d (%s): engine %d not quiescent: runq=%d reserved=%d",
				epoch, kind, es.Slot, es.RunQueue, es.Reserved)
		}
	}
	// Observation plane: the monitor must still answer over the
	// system's own RPC, with the kstat section the system always has.
	if d, err := h.mon.Dump(); err != nil {
		return fmt.Errorf("epoch %d (%s): monitor dump: %w", epoch, kind, err)
	} else if d.Stats.Counters == nil {
		return fmt.Errorf("epoch %d (%s): monitor dump carries no kstat section", epoch, kind)
	}
	return nil
}
