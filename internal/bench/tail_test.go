package bench

import (
	"testing"

	"repro/internal/klat"
)

// checkLedger walks one exemplar hop tree asserting the exactness
// invariants the ledger is built on: segments telescope to the hop's
// end-to-end cycles, a hop's service window is its own cycles plus its
// children's windows, and nothing is estimated or sampled.
func checkLedger(t *testing.T, h *klat.HopDump) {
	t.Helper()
	if h.Sub {
		if h.E2E != h.Service {
			t.Errorf("sub hop %s %#x: e2e %d != service %d", h.Server, h.Op, h.E2E, h.Service)
		}
	} else if got := h.Send + h.Queue + h.Service + h.Resume; got != h.E2E {
		t.Errorf("hop %s %#x: segments sum %d != e2e %d", h.Server, h.Op, got, h.E2E)
	}
	var childSum uint64
	for i := range h.Children {
		childSum += h.Children[i].E2E
		checkLedger(t, &h.Children[i])
	}
	if h.Own+childSum != h.Service {
		t.Errorf("hop %s %#x: own %d + children %d != service %d", h.Server, h.Op, h.Own, childSum, h.Service)
	}
}

// TestETailAttribution is the E-TAIL gate: under eight clients, a
// 4-thread server pool and a deliberately undersized buffer cache, the
// ledgers must hold their exact-sum invariants, every family's p99 must
// sit at or above its p50, and the slowest request's modeled-schedule
// decomposition must name queueing behind the single block-driver arm
// as the dominant group.
func TestETailAttribution(t *testing.T) {
	res, err := ETail()
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())

	if res.Requests == 0 {
		t.Fatal("no file-server requests recorded")
	}
	for _, f := range res.Dump.Families {
		if f.E2E.Count == 0 {
			continue
		}
		if p50, p99 := f.E2E.Quantile(0.50), f.E2E.Quantile(0.99); p99 < p50 {
			t.Errorf("family %s %#x: p99 %d < p50 %d", f.Server, f.Op, p99, p50)
		}
		for i := range f.Exemplars {
			ex := &f.Exemplars[i]
			checkLedger(t, ex)
			// The component rollup partitions the root's measured
			// end-to-end cycles exactly — no sampling error by
			// construction.
			var sum uint64
			for _, v := range ex.Components() {
				sum += v
			}
			if sum != ex.E2E {
				t.Errorf("exemplar %s %#x: component sum %d != e2e %d", f.Server, f.Op, sum, ex.E2E)
			}
		}
	}

	if res.P99 < res.P50 {
		t.Errorf("merged file-server p99 %d < p50 %d", res.P99, res.P50)
	}
	if res.Dominant != groupDriverQueue {
		t.Errorf("slowest exemplar's dominant group = %q, want %q\nbreakdown: %+v",
			res.Dominant, groupDriverQueue, res.Breakdown)
	}
	if res.DriverWait == 0 {
		t.Error("no driver-arm wait attributed in the slowest exemplar")
	}
}
