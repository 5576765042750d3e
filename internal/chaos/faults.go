package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kstat"
	"repro/internal/mach"
)

const (
	echoMsgID       = 0x7E00
	echoCallTimeout = 2 * time.Second
)

// echoService is the sacrificial RPC server for the port-destruction
// fault: a pooled echo server whose receive right the injector destroys
// mid-traffic and rebuilds at repair.  Clients track the generation
// counter to know when to re-acquire send rights.
type echoService struct {
	h     *harness
	calls atomic.Uint64

	mu   sync.Mutex
	task *mach.Task
	recv mach.PortName
	gen  uint64
}

func newEchoService(h *harness) *echoService {
	return &echoService{h: h, task: h.sys.Kernel.NewTask("chaos-echo")}
}

// start allocates a fresh receive right and pool (initial boot and every
// post-destruction rebuild).
func (e *echoService) start() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	recv, err := e.task.AllocatePort()
	if err != nil {
		return err
	}
	if _, err := e.task.ServePool("echo", recv, e.h.cfg.Pool, e.handle); err != nil {
		return err
	}
	e.recv = recv
	e.gen++
	return nil
}

// handle echoes the request body.  Every 8th request dawdles briefly so
// port destruction reliably races a handler that is still running — the
// exact window satellite 1's teardown fix covers.
func (e *echoService) handle(m *mach.Message) *mach.Message {
	if e.calls.Add(1)%8 == 0 {
		time.Sleep(200 * time.Microsecond)
	}
	return &mach.Message{ID: m.ID + 1, Body: m.Body}
}

// current reports the live generation and receive right for client
// refresh.
func (e *echoService) current() (uint64, *mach.Task, mach.PortName) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gen, e.task, e.recv
}

// destroyPort deallocates the receive right out from under the pool and
// any caller waiting for one of its slots.
func (e *echoService) destroyPort() error {
	e.mu.Lock()
	recv := e.recv
	e.mu.Unlock()
	return e.task.DeallocatePort(recv)
}

// ------------------------------------------------------------- inject --

// inject fires one fault of the given kind.  Injection runs on the
// harness goroutine while every worker is mid-batch; failures that are
// themselves invariant violations land in h.injectErr and are surfaced
// after the batch drains.
func (h *harness) inject(epoch int, kind string) {
	h.faults[kind]++
	rng := rand.New(rand.NewSource(h.cfg.Seed ^ int64(epoch)<<20))
	var err error
	switch kind {
	case FaultPoolKill:
		err = h.injectPoolKill(rng)
	case FaultPortDestroy:
		h.logf("inject port-destroy: deallocating echo receive right")
		err = h.echo.destroyPort()
	case FaultDevOutage:
		n := rng.Intn(12)
		h.logf("inject dev-outage: /chaos fails reads+writes after %d ops", n)
		h.fdev.FailAfter(n, true, true)
	case FaultFlushFail:
		n := rng.Intn(4)
		h.logf("inject flush-fail: /chaos fails writes after %d ops", n)
		h.fdev.FailAfter(n, false, true)
	case FaultPsetShuffle:
		err = h.injectPsetShuffle(rng)
	case FaultObsStorm:
		err = h.injectObsStorm()
	}
	if err != nil && h.injectErr == nil {
		h.injectErr = fmt.Errorf("epoch %d inject %s: %w", epoch, kind, err)
	}
}

// repair undoes the epoch's fault so the invariant checks run against a
// nominally healthy system (the checks themselves verify nothing leaked
// while it was unhealthy).
func (h *harness) repair(kind string) error {
	switch kind {
	case FaultPoolKill:
		return h.repairPools()
	case FaultPortDestroy:
		h.logf("repair port-destroy: rebuilding echo service (gen %d)", h.echo.gen+1)
		return h.echo.start()
	case FaultDevOutage, FaultFlushFail:
		h.fdev.Heal()
		return nil
	case FaultPsetShuffle:
		return h.repairPset()
	}
	return nil
}

// injectPoolKill terminates one random worker in one of the file server's
// pools, always leaving at least one receiver alive so clients block
// rather than fail.
func (h *harness) injectPoolKill(rng *rand.Rand) error {
	pools := []*mach.ServerPool{h.sys.Files.ControlPool()}
	if fp := h.sys.Files.FilePool(); fp != nil {
		pools = append(pools, fp)
	}
	p := pools[rng.Intn(len(pools))]
	if p == nil || p.LiveWorkers() <= 1 {
		h.logf("inject pool-kill: skipped (pool already at minimum)")
		return nil
	}
	idx := rng.Intn(p.Size())
	for i := 0; i < p.Size(); i++ {
		slot := (idx + i) % p.Size()
		if p.KillWorker(slot) {
			h.logf("inject pool-kill: terminated worker slot %d (live %d/%d)",
				slot, p.LiveWorkers(), p.Size())
			return nil
		}
	}
	return nil
}

// repairPools respawns every dead slot in the file server pools.
func (h *harness) repairPools() error {
	pools := []*mach.ServerPool{h.sys.Files.ControlPool()}
	if fp := h.sys.Files.FilePool(); fp != nil {
		pools = append(pools, fp)
	}
	for _, p := range pools {
		for i := 0; i < p.Size(); i++ {
			err := p.RespawnWorker(i)
			if err == nil {
				h.logf("repair pool-kill: respawned worker slot %d", i)
			} else if !errors.Is(err, mach.ErrThreadRunning) {
				return fmt.Errorf("respawn slot %d: %w", i, err)
			}
		}
		if live := p.LiveWorkers(); live != p.Size() {
			return fmt.Errorf("pool not restored: %d/%d workers live", live, p.Size())
		}
	}
	return nil
}

// injectPsetShuffle repartitions processors under the file server
// mid-burst: move half the engines into a dedicated set the server is
// assigned to, let traffic run on the shrunken partition, then empty the
// set entirely while the server is still assigned — the dispatcher must
// fall back to all engines, not strand work.
func (h *harness) injectPsetShuffle(rng *rand.Rand) error {
	host := h.sys.Kernel.Host()
	if h.cpset == nil {
		ps, err := host.CreateSet("chaos")
		if err != nil {
			return err
		}
		h.cpset = ps
	}
	h.cpset.AssignTask(h.sys.Files.Task())
	procs := host.Processors()
	nMove := len(procs) / 2
	if nMove < 1 {
		nMove = 1
	}
	moved := 0
	for _, i := range rng.Perm(len(procs)) {
		if moved >= nMove {
			break
		}
		host.AssignProcessor(procs[i], h.cpset)
		moved++
	}
	h.logf("inject pset-shuffle: %d/%d engines into chaos set, fileserver assigned", moved, len(procs))
	// Let a quarter-epoch of traffic run on the shrunken partition...
	h.waitOps(h.ops.Load()+uint64(h.batch*len(h.workers)/4), 3*time.Second)
	// ...then empty the set mid-burst with the task still assigned.
	def := host.DefaultSet()
	for _, p := range h.cpset.Processors() {
		host.AssignProcessor(p, def)
	}
	h.logf("inject pset-shuffle: chaos set emptied mid-burst (fallback path)")
	return nil
}

// repairPset returns the file server to the default set and all engines
// to the default partition.
func (h *harness) repairPset() error {
	if h.cpset == nil {
		return nil
	}
	host := h.sys.Kernel.Host()
	def := host.DefaultSet()
	for _, p := range h.cpset.Processors() {
		host.AssignProcessor(p, def)
	}
	h.cpset.RemoveTask(h.sys.Files.Task())
	return nil
}

// injectObsStorm hammers the observation plane while the workers run:
// 24 dumps, each checked against the one before it, then a profiler
// start/stop cycle.  The monitor keeps nothing between queries, so the
// only acceptable answer is a whole dump whose counters never go
// backwards — never a hang or a bogus answer.
func (h *harness) injectObsStorm() error {
	var prev kstat.Snapshot
	for i := 0; i < 24; i++ {
		d, err := h.mon.Dump()
		if err != nil {
			return fmt.Errorf("dump %d: %w", i, err)
		}
		for name, v := range d.Stats.Counters {
			if v < prev.Counters[name] {
				return fmt.Errorf("dump %d: %s went backwards: %d -> %d", i, name, prev.Counters[name], v)
			}
		}
		prev = d.Stats
	}
	if err := h.mon.ProfStart(); err != nil {
		return fmt.Errorf("prof start: %w", err)
	}
	if d, err := h.mon.Dump(); err != nil {
		return fmt.Errorf("profile dump: %w", err)
	} else if d.Profile == nil {
		return errors.New("profile dump: no profile section in an open window")
	}
	if err := h.mon.ProfStop(); err != nil {
		return fmt.Errorf("prof stop: %w", err)
	}
	h.logf("inject obs-storm: 24 dump rounds + profiler cycle")
	return nil
}
