package bench

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cpu"
)

// cell is one pinned measurement: a name and its exact value.
type cell struct {
	name string
	v    int64
}

// perOp recovers the integer counter delta behind an average taken over n
// operations (the average is delta/n, correctly rounded, so the product
// rounds back to the delta exactly).
func perOp(avg float64, n uint64) int64 { return int64(math.Round(avg * float64(n))) }

// table2Cells lists a Table 2 result as its integer counter deltas over n
// traps and n RPCs.
func table2Cells(prefix string, r Table2Result, trapN, rpcN uint64) []cell {
	return []cell{
		{prefix + ".trap.instr", perOp(r.TrapInstr, trapN)},
		{prefix + ".trap.cycles", perOp(r.TrapCycles, trapN)},
		{prefix + ".trap.bus", perOp(r.TrapBus, trapN)},
		{prefix + ".rpc.instr", perOp(r.RPCInstr, rpcN)},
		{prefix + ".rpc.cycles", perOp(r.RPCCycles, rpcN)},
		{prefix + ".rpc.bus", perOp(r.RPCBus, rpcN)},
	}
}

// counterCells lists the exported fields of a counter delta.
func counterCells(prefix string, c cpu.Counters) []cell {
	return []cell{
		{prefix + ".instr", int64(c.Instructions)},
		{prefix + ".cycles", int64(c.Cycles)},
		{prefix + ".bus", int64(c.BusCycles)},
		{prefix + ".imiss", int64(c.ICacheMisses)},
		{prefix + ".dmiss", int64(c.DCacheMisses)},
		{prefix + ".tlb", int64(c.TLBMisses)},
		{prefix + ".switches", int64(c.Switches)},
	}
}

// rigCells measures every cell of the kernel-only rig, of the other
// warm-then-bracket experiments and of the one-client E-SMP cells, in a
// fixed order.
func rigCells(t *testing.T) []cell {
	t.Helper()
	var out []cell
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	const table2N = 400
	t2, err := Table2()
	must(err)
	out = append(out, table2Cells("table2", t2, table2N, table2N)...)

	ctr, err := CounterTable2()
	must(err)
	out = append(out, table2Cells("ectr.direct", ctr.Direct, table2N, table2N)...)
	out = append(out, table2Cells("ectr.kstat", ctr.FromKstat, ctr.TrapOps, ctr.RPCOps)...)
	out = append(out, cell{"ectr.ops.trap", int64(ctr.TrapOps)}, cell{"ectr.ops.rpc", int64(ctr.RPCOps)})

	// Only the reworked column: the classic queued mach_msg probe's
	// cycles move with host scheduling (ROADMAP item 1).
	ipc, err := IPCSweep()
	must(err)
	for _, p := range ipc {
		out = append(out, cell{fmt.Sprintf("ipc.%d.new", p.Size), int64(p.NewCycles)})
	}

	prof, err := EPROF()
	must(err)
	out = append(out, counterCells("eprof.rpc32", prof.RPC.Counters)...)
	out = append(out, counterCells("eprof.thread_self", prof.Trap.Counters)...)
	for kind := cpu.ProfKind(0); kind < cpu.NumProfKinds; kind++ {
		out = append(out, cell{"eprof.gap." + kind.String(), prof.GapByKind[kind]})
	}

	ns, err := NameServices()
	must(err)
	out = append(out, cell{"names.full", int64(ns.FullCycles)}, cell{"names.simple", int64(ns.SimpleCycles)})

	obj, err := Objects()
	must(err)
	out = append(out, cell{"objects.fine", int64(obj.FineCycles)}, cell{"objects.coarse", int64(obj.CoarseCycles)})

	drv, err := DriverModels()
	must(err)
	for _, d := range drv {
		out = append(out, cell{"driver." + d.Model, int64(d.Cycles)})
	}

	mvm, err := MVMTranslator()
	must(err)
	out = append(out,
		cell{"mvm.interp", int64(mvm.InterpCycles)},
		cell{"mvm.cold", int64(mvm.ColdTransCycles)},
		cell{"mvm.hot", int64(mvm.HotTransCycles)})

	// One client on 1 and 2 engines: a synchronous chain, identical at
	// every GOMAXPROCS (ROADMAP item 3).
	for _, ncpu := range []int{1, 2} {
		pt, err := SMPCell(ncpu, 1, 4, smpCacheSectors, false)
		must(err)
		prefix := fmt.Sprintf("smp.%dcpu", ncpu)
		out = append(out,
			cell{prefix + ".elapsed", int64(pt.ElapsedCycles)},
			cell{prefix + ".total", int64(pt.TotalCycles)},
			cell{prefix + ".migrations", int64(pt.Migrations)},
			cell{prefix + ".steals", int64(pt.Steals)})
		for slot, c := range pt.PerEngineCycles {
			out = append(out, cell{fmt.Sprintf("%s.engine%d", prefix, slot), int64(c)})
		}
	}
	return out
}

// rigPins holds every rigCells value, read at the commit that added this
// test.
var rigPins = map[string]int64{
	"table2.trap.instr":                 186000,
	"table2.trap.cycles":                333800,
	"table2.trap.bus":                   64000,
	"table2.rpc.instr":                  618800,
	"table2.rpc.cycles":                 2115640,
	"table2.rpc.bus":                    538400,
	"ectr.direct.trap.instr":            186000,
	"ectr.direct.trap.cycles":           333800,
	"ectr.direct.trap.bus":              64000,
	"ectr.direct.rpc.instr":             618800,
	"ectr.direct.rpc.cycles":            2115640,
	"ectr.direct.rpc.bus":               538400,
	"ectr.kstat.trap.instr":             186000,
	"ectr.kstat.trap.cycles":            333800,
	"ectr.kstat.trap.bus":               64000,
	"ectr.kstat.rpc.instr":              618800,
	"ectr.kstat.rpc.cycles":             2115640,
	"ectr.kstat.rpc.bus":                538400,
	"ectr.ops.trap":                     400,
	"ectr.ops.rpc":                      400,
	"ipc.0.new":                         5188,
	"ipc.32.new":                        5238,
	"ipc.256.new":                       5311,
	"ipc.1024.new":                      5687,
	"ipc.4096.new":                      6685,
	"ipc.16384.new":                     25061,
	"ipc.65536.new":                     84523,
	"eprof.rpc32.instr":                 1547,
	"eprof.rpc32.cycles":                5289,
	"eprof.rpc32.bus":                   1346,
	"eprof.rpc32.imiss":                 167,
	"eprof.rpc32.dmiss":                 0,
	"eprof.rpc32.tlb":                   12,
	"eprof.rpc32.switches":              2,
	"eprof.thread_self.instr":           465,
	"eprof.thread_self.cycles":          834,
	"eprof.thread_self.bus":             160,
	"eprof.thread_self.imiss":           0,
	"eprof.thread_self.dmiss":           0,
	"eprof.thread_self.tlb":             0,
	"eprof.thread_self.switches":        0,
	"eprof.gap.base":                    1407,
	"eprof.gap.imiss":                   2338,
	"eprof.gap.dmiss":                   0,
	"eprof.gap.tlb":                     240,
	"eprof.gap.switch":                  240,
	"eprof.gap.stall":                   230,
	"eprof.gap.migrate":                 0,
	"names.full":                        2808,
	"names.simple":                      104,
	"objects.fine":                      1563,
	"objects.coarse":                    1104,
	"driver.in-kernel BSD-style":        7791,
	"driver.OODDM fine-grained objects": 7868,
	"driver.user-level task":            19513,
	"mvm.interp":                        265266,
	"mvm.cold":                          118423,
	"mvm.hot":                           117033,
	"smp.1cpu.elapsed":                  5192721,
	"smp.1cpu.total":                    5192721,
	"smp.1cpu.migrations":               0,
	"smp.1cpu.steals":                   0,
	"smp.1cpu.engine0":                  5192721,
	"smp.2cpu.elapsed":                  3659177,
	"smp.2cpu.total":                    4623851,
	"smp.2cpu.migrations":               6,
	"smp.2cpu.steals":                   3,
	"smp.2cpu.engine0":                  2434668,
	"smp.2cpu.engine1":                  2189183,
}

// TestRigCellsPinned pins Table 2, E-CTR, the IPC sweep's reworked
// column, E-PROF, the E5/E6/E9/E10 ablations and the one-client E-SMP
// cells exactly: every cell the shared RPC rig, the warm-then-bracket
// helper and the client fan-out measure.  A refactor of how those cells
// are measured must leave every one of them bit-identical.
func TestRigCellsPinned(t *testing.T) {
	got := rigCells(t)
	seen := map[string]bool{}
	for _, c := range got {
		seen[c.name] = true
		if want, ok := rigPins[c.name]; !ok {
			t.Errorf("unpinned cell %q: %d", c.name, c.v)
		} else if c.v != want {
			t.Errorf("%s = %d, pinned %d", c.name, c.v, want)
		}
	}
	for name := range rigPins {
		if !seen[name] {
			t.Errorf("pinned cell %q was not measured", name)
		}
	}
}
