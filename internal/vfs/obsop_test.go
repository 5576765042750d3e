package vfs

import (
	"testing"

	"repro/internal/kstat"
	"repro/internal/mach"
)

// Closing a file-server op's observation counts it on a precomputed
// family: with kstat attached neither the open nor the close allocates,
// for a known op and an unknown ID alike, and each lands on its
// vfs.ops.<op> counter.
func TestObsOpCloseAllocatesNothing(t *testing.T) {
	k, s, _ := newServerRig(t)
	st := kstat.Attach(k.CPU)
	t.Cleanup(func() { kstat.Detach(k.CPU) })
	const runs = 100
	for _, c := range []struct {
		id  mach.MsgID
		fam string
	}{{MsgRead, "vfs.ops.read"}, {MsgSync, "vfs.ops.sync"}, {MsgOpen - 1, "vfs.ops.unknown"}} {
		opens := make([]opObs, runs+1) // AllocsPerRun warms up once
		next := 0
		if n := testing.AllocsPerRun(runs, func() { opens[next] = s.obsOp(c.id); next++ }); n != 0 {
			t.Errorf("opening a %s observation allocates %.1f times", c.fam, n)
		}
		next = 0
		if n := testing.AllocsPerRun(runs, func() { opens[next].end(); next++ }); n != 0 {
			t.Errorf("closing a %s observation allocates %.1f times", c.fam, n)
		}
		if got := st.Counter(c.fam).Value(); got != runs+1 {
			t.Errorf("%s = %d, want %d", c.fam, got, runs+1)
		}
	}
}
