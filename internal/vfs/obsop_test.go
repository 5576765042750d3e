package vfs

import (
	"testing"

	"repro/internal/kstat"
	"repro/internal/mach"
)

// Closing a file-server op's observation counts it on a precomputed
// family: with kstat attached the close allocates nothing, for a known
// op and an unknown ID alike, and each lands on its vfs.ops.<op> counter.
func TestObsOpCloseAllocatesNothing(t *testing.T) {
	k, s, _ := newServerRig(t)
	st := kstat.Attach(k.CPU)
	t.Cleanup(func() { kstat.Detach(k.CPU) })
	const runs = 100
	for _, c := range []struct {
		id  mach.MsgID
		fam string
	}{{MsgRead, "vfs.ops.read"}, {MsgSync, "vfs.ops.sync"}, {MsgOpen - 1, "vfs.ops.unknown"}} {
		closes := make([]func(), runs+1) // AllocsPerRun warms up once
		for i := range closes {
			closes[i] = s.obsOp(c.id)
		}
		next := 0
		if n := testing.AllocsPerRun(runs, func() { closes[next](); next++ }); n != 0 {
			t.Errorf("closing a %s observation allocates %.1f times", c.fam, n)
		}
		if got := st.Counter(c.fam).Value(); got != runs+1 {
			t.Errorf("%s = %d, want %d", c.fam, got, runs+1)
		}
	}
}
