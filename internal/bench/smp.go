package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/drivers"
	"repro/internal/mach"
	"repro/internal/os2"
)

// Experiment E-SMP: measured multiprocessor scaling of the File
// Intensive 1 mix.
//
// E-POOL's modeled bound said what a pool of server threads *could* do on
// N processors; this experiment boots the machine with a real N-engine
// complex and measures it.  C concurrent OS/2 processes each run the
// FI1 document mix in a private directory (/W<i>) against the shared file
// server; every RPC burst is placed by the SMP dispatcher onto an engine
// of the issuing task's processor set, so cycles genuinely land on
// different CPUs.  Elapsed time is the advance of the scheduler's
// virtual clock — the modeled makespan of the burst schedule, in which
// concurrent bursts on one engine serialize and a client resumes only
// after its server's reply completed — and throughput is client file
// operations over that elapsed time.
//
// The sweep runs with the file server's unified buffer cache enabled —
// the configuration in which file operations are CPU work that can
// spread over engines.  Three effects the paper's SMP ambitions would
// have met are visible:
//
//   - pool-scaling crossover: past the server-pool size the extra
//     engines only help the client-side segments; the curve flattens
//     once the file server's worker pool — not the CPU count — is the
//     bottleneck;
//   - migration/coherence tax: stealing moves threads between engines,
//     and every move pays the modeled cross-CPU coherence cost on the
//     destination (cold caches cost extra on top, through the
//     destination's real I/D/TLB state);
//   - driver serialization: with the cache off, every operation chains
//     through the block driver, whose virtual capacity is one server —
//     its bursts are dominated by the device time of a single disk arm
//     — and no CPU count helps.  The pinned variant instead keeps the
//     cache on and confines the driver task to a one-processor set
//     (real processor_assign/task_assign partitioning, the paper's
//     isolation mechanism), showing the bottleneck has moved: the cost
//     is a few percent, not a collapse.

// smpDocs/smpRecs mirror File Intensive 1's document mix (4 documents,
// 40 records written, re-read, 3 updated in place).
const (
	smpDocs = 4
	smpRecs = 40
)

// smpOpsPerClient counts one client's DosRead/DosWrite calls — the
// file-operation unit the throughput numbers are expressed in.
const smpOpsPerClient = smpDocs * (smpRecs + smpRecs + 3)

// smpCacheSectors sizes the buffer cache for the cached E-SMP cells.
const smpCacheSectors = 256

// SMPPoint is one measured cell of the E-SMP sweep.
type SMPPoint struct {
	CPUs    int
	Clients int
	Pool    int
	// CacheSectors is the buffer-cache size this cell ran with (0 = raw
	// driver path).
	CacheSectors int
	// PinnedDriver marks the pset-partition variant: the block-driver
	// task confined to a one-processor set.
	PinnedDriver bool

	// ElapsedCycles is the advance of the dispatcher's virtual clock over
	// the run (the modeled makespan; the busy-cycle delta on one CPU);
	// TotalCycles sums all engines' busy cycles.
	ElapsedCycles uint64
	TotalCycles   uint64
	// PerEngineCycles is each engine's busy-cycle delta, slot-ordered.
	PerEngineCycles []uint64

	// Ops is the total client file operations; OpsPerSec expresses them
	// over the modeled elapsed time at the 133 MHz clock.
	Ops       uint64
	OpsPerSec float64
	// Speedup is OpsPerSec over the 1-CPU point of the same sweep
	// (0 until the sweep fills it in).
	Speedup float64

	// Dispatcher traffic over the run.
	Migrations      uint64
	Steals          uint64
	CoherenceCycles uint64
}

func (p SMPPoint) String() string {
	tag := ""
	if p.CacheSectors == 0 {
		tag += " raw-driver"
	}
	if p.PinnedDriver {
		tag += " driver-pinned"
	}
	return fmt.Sprintf("cpus=%d clients=%d pool=%d%s: %d ops in %d cycles (%.0f ops/s, %.2fx) migrations=%d steals=%d",
		p.CPUs, p.Clients, p.Pool, tag, p.Ops, p.ElapsedCycles, p.OpsPerSec, p.Speedup, p.Migrations, p.Steals)
}

// smpClientMix runs the FI1 document mix inside dir, a per-client
// directory so concurrent clients never contend on a file.
func smpClientMix(p *os2.Process, dir string) error {
	if e := p.DosMkdir(dir); e != os2.NoError && e != os2.ErrInvalidParameter {
		return fmt.Errorf("bench: smp mkdir %s: %v", dir, e)
	}
	record := make([]byte, 512)
	for i := range record {
		record[i] = byte(i)
	}
	buf := make([]byte, 512)
	for doc := 0; doc < smpDocs; doc++ {
		name := fmt.Sprintf("%s/DOC%d.WPS", dir, doc)
		h, e := p.DosOpen(name, true, true)
		if e != os2.NoError {
			return fmt.Errorf("bench: smp open %s: %v", name, e)
		}
		for rec := 0; rec < smpRecs; rec++ {
			if _, e := p.DosWrite(h, record); e != os2.NoError {
				return fmt.Errorf("bench: smp write: %v", e)
			}
		}
		if e := p.DosSetFilePtr(h, 0); e != os2.NoError {
			return fmt.Errorf("bench: smp seek: %v", e)
		}
		for rec := 0; rec < smpRecs; rec++ {
			if _, e := p.DosRead(h, buf); e != os2.NoError {
				return fmt.Errorf("bench: smp read: %v", e)
			}
		}
		for _, rec := range []int64{3, 17, 31} {
			if e := p.DosSetFilePtr(h, rec*512); e != os2.NoError {
				return fmt.Errorf("bench: smp seek2: %v", e)
			}
			if _, e := p.DosWrite(h, record); e != os2.NoError {
				return fmt.Errorf("bench: smp update: %v", e)
			}
		}
		if e := p.DosClose(h); e != os2.NoError {
			return fmt.Errorf("bench: smp close: %v", e)
		}
	}
	return nil
}

// SMPCell boots an ncpu-engine system and measures clients concurrent
// FI1 mixes against a pool-threaded file server with a cacheSectors
// buffer cache (0 = the raw driver path).  pinDriver confines the
// block-driver task to a one-processor set first (requires ncpu >= 2).
func SMPCell(ncpu, clients, pool, cacheSectors int, pinDriver bool) (SMPPoint, error) {
	pt, _, err := smpCell(ncpu, clients, pool, cacheSectors, pinDriver)
	return pt, err
}

// smpCell is SMPCell, returning the system it ran on as well.
func smpCell(ncpu, clients, pool, cacheSectors int, pinDriver bool) (SMPPoint, *core.System, error) {
	pt := SMPPoint{CPUs: ncpu, Clients: clients, Pool: pool, CacheSectors: cacheSectors, PinnedDriver: pinDriver}
	if ncpu < 1 || clients < 1 || pool < 1 {
		return pt, nil, fmt.Errorf("bench: bad E-SMP cell cpus=%d clients=%d pool=%d", ncpu, clients, pool)
	}
	cfg := core.DefaultConfig()
	cfg.CPUs = ncpu
	cfg.ServerPool = pool
	cfg.CacheSectors = cacheSectors
	cfg.Personalities = []string{"os2"}
	s, err := core.Boot(cfg)
	if err != nil {
		return pt, nil, err
	}
	k := s.Kernel

	if pinDriver {
		if ncpu < 2 {
			return pt, nil, fmt.Errorf("bench: driver pinning needs >= 2 CPUs")
		}
		ubd, ok := s.Block.(*drivers.UserBlockDriver)
		if !ok {
			return pt, nil, fmt.Errorf("bench: driver pinning needs the user-level block driver, have %s", s.Block.Model())
		}
		h := k.Host()
		set, err := h.CreateSet("driver")
		if err != nil {
			return pt, nil, err
		}
		// The last processor leaves the default set; everything else keeps
		// engines 0..ncpu-2, the driver serializes on engine ncpu-1.
		h.AssignProcessor(h.Processors()[ncpu-1], set)
		set.AssignTask(ubd.Task())
	}

	// Boot is excluded from the measure; the makespan is the virtual
	// clock's advance (a lone engine's busy cycles when there is no
	// complex).
	base := readSched(k, ncpu)
	if err := Clients(clients, func(c int) error {
		p, err := s.OS2.CreateProcess(fmt.Sprintf("works%d", c))
		if err != nil {
			return err
		}
		return smpClientMix(p, fmt.Sprintf("/W%d", c))
	}); err != nil {
		return pt, nil, err
	}
	end := readSched(k, ncpu)
	pt.PerEngineCycles = make([]uint64, ncpu)
	for slot := range pt.PerEngineCycles {
		pt.PerEngineCycles[slot] = end.cycles[slot] - base.cycles[slot]
		pt.TotalCycles += pt.PerEngineCycles[slot]
	}
	pt.ElapsedCycles = pt.TotalCycles
	if k.Complex() != nil {
		pt.ElapsedCycles = end.clock - base.clock
	}
	pt.Migrations, pt.Steals = end.migrations-base.migrations, end.steals-base.steals
	pt.CoherenceCycles = pt.Migrations * k.CPU.Config().MigrateCycles

	pt.Ops = uint64(clients) * smpOpsPerClient
	if pt.ElapsedCycles > 0 {
		pt.OpsPerSec = float64(pt.Ops) * concHz / float64(pt.ElapsedCycles)
	}
	return pt, s, nil
}

// schedState is what an E-SMP cell is measured by: each engine's busy
// cycles, and the dispatcher's migrations, steals and virtual clock.
type schedState struct {
	cycles                    []uint64
	migrations, steals, clock uint64
}

func readSched(k *mach.Kernel, ncpu int) schedState {
	st := schedState{cycles: make([]uint64, ncpu)}
	if cx := k.Complex(); cx != nil {
		for slot := range st.cycles {
			st.cycles[slot] = cx.EngineCounters(slot).Cycles
		}
	} else {
		st.cycles[0] = k.CPU.Counters().Cycles
	}
	for _, es := range k.SchedStats() {
		st.migrations += es.Migrations
		st.steals += es.Steals
		st.clock = max(st.clock, es.Virtual)
	}
	return st
}

// SMPResult is the full E-SMP data set.
type SMPResult struct {
	// Curve is the cached CPU sweep at fixed clients/pool; Speedup is
	// relative to Curve[0] (the 1-CPU cell).
	Curve []SMPPoint
	// Raw is the cache-off cell at the bottleneck CPU count: every
	// operation chains through the single-threaded block driver and its
	// device time, so the makespan is that serial chain and the CPU
	// count stops mattering.
	Raw SMPPoint
	// Pinned is the processor-set variant of the bottleneck: the cached
	// configuration with the driver task confined to one processor.
	Pinned SMPPoint
}

// ESMP runs the standard E-SMP sweep: 1..16 engines under 8 clients and
// a 4-thread server pool, plus the raw-driver and driver-pinned
// bottleneck cells at 4 engines.
func ESMP() (SMPResult, error) {
	return SMPSweep([]int{1, 2, 4, 8, 16}, 8, 4, 4)
}

// SMPSweep measures the cached scaling curve over cpusList and the two
// bottleneck cells at bottleneckCPUs (skipped when bottleneckCPUs < 2).
// Speedups are relative to the first cell of the curve.
func SMPSweep(cpusList []int, clients, pool, bottleneckCPUs int) (SMPResult, error) {
	var res SMPResult
	var baseOps float64
	rel := func(pt *SMPPoint) {
		if baseOps > 0 {
			pt.Speedup = pt.OpsPerSec / baseOps
		}
	}
	for _, n := range cpusList {
		pt, err := SMPCell(n, clients, pool, smpCacheSectors, false)
		if err != nil {
			return res, err
		}
		if baseOps == 0 {
			baseOps = pt.OpsPerSec
		}
		rel(&pt)
		res.Curve = append(res.Curve, pt)
	}
	if bottleneckCPUs >= 2 {
		raw, err := SMPCell(bottleneckCPUs, clients, pool, 0, false)
		if err != nil {
			return res, err
		}
		rel(&raw)
		res.Raw = raw
		pin, err := SMPCell(bottleneckCPUs, clients, pool, smpCacheSectors, true)
		if err != nil {
			return res, err
		}
		rel(&pin)
		res.Pinned = pin
	}
	return res, nil
}
