package bench

import (
	"fmt"
	"sort"

	"repro/internal/klat"
	"repro/internal/kstat"
)

// Experiment E-TAIL: request-level tail-latency attribution under
// contention.
//
// E-SMP measured throughput; this experiment asks the complementary
// question the paper's performance chapter kept circling — not "how
// many operations per second" but "why is the slow one slow".  Eight
// concurrent OS/2 clients run the FI1 document mix against the pooled
// file server on a 4-engine complex, with the buffer cache sized well
// below the working set so a steady stream of misses chains through
// the single-arm block driver.  Every DosRead/DosWrite's RPC mints a
// klat ledger at the client entry point; the dump at the end carries
// the per-(server, op) latency histograms and the slowest requests'
// full hop-by-hop ledgers.
//
// The attribution the cell exists to demonstrate: the p99 request is
// not slow because the file server's handler got slower — its charged
// service cycles match the median's — but because it queued.  The
// slowest exemplar's modeled-schedule rollup names the wait: the
// block driver's virtual pool has exactly one server (the disk arm),
// so with eight clients missing in the cache, requests stack up
// behind that single arm while the file server's four workers and the
// four engines stay comparatively clear.  The wall-clock ledger
// meanwhile stays a telescoping decomposition of one clock — its hop
// segments sum to the measured end-to-end cycles exactly, because it
// is bookkeeping, not a sampled profile.
const (
	tailCPUs    = 4
	tailClients = 8
	tailPool    = 4
	// tailCacheSectors is deliberately far below the ~160 sectors one
	// client's document mix touches: most operations miss and ride the
	// driver chain, which is what puts queueing in the tail.
	tailCacheSectors = 64
)

// The attribution groups of the modeled (virtual-cycle) rollup.  On a
// multi-engine boot the ledger's wall segments measure global work
// during the request's windows, so "who did this request wait on" is
// answered from the burst schedule the dispatcher settled: every hop
// carries its server burst's charged length, its wait behind the
// destination pool's virtual capacity, and its wait behind engine
// capacity.  The block driver's pool has exactly one virtual server —
// the disk arm — so its pool wait IS arm queueing.
const (
	groupDriverQueue = "driver-queue" // behind the block driver's single arm
	groupPoolQueue   = "pool-queue"   // behind other servers' worker pools
	groupCPUQueue    = "cpu-queue"    // behind engine capacity
	groupService     = "service"      // the chain's own handler charges
)

// TailComponent is one bucket of a p99 attribution rollup.
type TailComponent struct {
	Name   string `json:"name"`
	Cycles uint64 `json:"cycles"`
}

// TailResult is the measured E-TAIL cell.
type TailResult struct {
	CPUs         int `json:"cpus"`
	Clients      int `json:"clients"`
	Pool         int `json:"pool"`
	CacheSectors int `json:"cache_sectors"`

	// Requests counts recorded file-server root ledgers; P50/P99 are
	// quantiles of the merged file-server end-to-end distribution and
	// Inflation their ratio — "the p99 is Nx the median".
	Requests  uint64  `json:"requests"`
	P50       uint64  `json:"p50_cycles"`
	P99       uint64  `json:"p99_cycles"`
	Inflation float64 `json:"inflation"`

	// Slowest is the worst retained file-server exemplar; Breakdown is
	// its modeled-schedule rollup (driver-queue / pool-queue /
	// cpu-queue / service), largest first, in virtual cycles.
	Slowest   klat.HopDump    `json:"slowest"`
	Breakdown []TailComponent `json:"breakdown"`

	// DriverWait is the slowest exemplar's driver-queue bucket — the
	// virtual cycles its chain spent behind the single block-driver
	// arm; Dominant is the largest rollup group ("driver-queue" when
	// the attribution lands where the contention is).
	DriverWait uint64 `json:"driver_wait_cycles"`
	Dominant   string `json:"dominant"`

	// Dump is the full tail snapshot the numbers were reduced from.
	Dump *klat.Dump `json:"-"`
}

func (r TailResult) String() string {
	return fmt.Sprintf("cpus=%d clients=%d pool=%d cache=%d: %d requests p50=%d p99=%d (%.1fx) dominant=%s driver-queue=%d vcycles slowest-e2e=%d",
		r.CPUs, r.Clients, r.Pool, r.CacheSectors, r.Requests, r.P50, r.P99,
		r.Inflation, r.Dominant, r.DriverWait, r.Slowest.E2E)
}

// tailSched walks an exemplar's hop tree accumulating the modeled
// schedule into the rollup groups.
func tailSched(h *klat.HopDump, groups map[string]uint64) {
	if h.Server == "blockdrv" {
		groups[groupDriverQueue] += h.SchedPoolWait
	} else {
		groups[groupPoolQueue] += h.SchedPoolWait
	}
	groups[groupCPUQueue] += h.SchedCPUWait
	groups[groupService] += h.SchedBurst
	for i := range h.Children {
		tailSched(&h.Children[i], groups)
	}
}

// ETail runs the standard E-TAIL cell.
func ETail() (TailResult, error) {
	return TailCell(tailCPUs, tailClients, tailPool, tailCacheSectors)
}

// TailCell runs the E-SMP cell of ncpu engines, clients and pool with a
// cacheSectors buffer cache, then reduces the tail-latency dump its boot
// recorded to the attribution result.
func TailCell(ncpu, clients, pool, cacheSectors int) (TailResult, error) {
	res := TailResult{CPUs: ncpu, Clients: clients, Pool: pool, CacheSectors: cacheSectors}
	if cacheSectors < 1 {
		return res, fmt.Errorf("bench: bad E-TAIL cell cache=%d", cacheSectors)
	}
	_, s, err := smpCell(ncpu, clients, pool, cacheSectors, false)
	if err != nil {
		return res, err
	}
	lt := klat.For(s.Kernel.CPU)
	if lt == nil {
		return res, fmt.Errorf("bench: E-TAIL needs the tail-latency tracker attached")
	}
	res.Dump = lt.Dump()
	return res, reduceTail(&res)
}

// reduceTail fills the summary fields from the dump: the merged
// file-server distribution, the slowest exemplar, and its grouped
// component rollup.
func reduceTail(res *TailResult) error {
	var merged kstat.HistSnapshot
	var slowest *klat.HopDump
	for i := range res.Dump.Families {
		f := &res.Dump.Families[i]
		if f.Server != "fileserver" {
			continue
		}
		merged = merged.Merge(f.E2E)
		for j := range f.Exemplars {
			if slowest == nil || f.Exemplars[j].E2E > slowest.E2E {
				slowest = &f.Exemplars[j]
			}
		}
	}
	if merged.Count == 0 || slowest == nil {
		return fmt.Errorf("bench: E-TAIL recorded no file-server ledgers")
	}
	res.Requests = merged.Count
	res.P50 = merged.Quantile(0.50)
	res.P99 = merged.Quantile(0.99)
	if res.P50 > 0 {
		res.Inflation = float64(res.P99) / float64(res.P50)
	}
	res.Slowest = *slowest

	groups := make(map[string]uint64)
	tailSched(&res.Slowest, groups)
	for name, v := range groups {
		res.Breakdown = append(res.Breakdown, TailComponent{Name: name, Cycles: v})
	}
	sort.Slice(res.Breakdown, func(i, j int) bool {
		if res.Breakdown[i].Cycles != res.Breakdown[j].Cycles {
			return res.Breakdown[i].Cycles > res.Breakdown[j].Cycles
		}
		return res.Breakdown[i].Name < res.Breakdown[j].Name
	})
	res.DriverWait = groups[groupDriverQueue]
	for name, v := range groups {
		if res.Dominant == "" || v > groups[res.Dominant] {
			res.Dominant = name
		}
	}
	return nil
}
