package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ktrace"
	"repro/internal/workload"
)

// AttributionResult is experiment E-ATTR: a traced run of one Table 1 row
// on Workplace OS, broken down into per-subsystem exclusive cycle costs,
// against the untraced WPOS and native cycle counts.  The boundary-crossing
// subsystems (RPC machinery, classic IPC, interrupt reflection, the driver
// stack) must explain the bulk of the WPOS-vs-native gap — the paper's
// explanation for the File Intensive rows' ~3x ratio, now measured rather
// than asserted.
type AttributionResult struct {
	Row workload.Row
	// WPOSCycles/NativeCycles are untraced runs (the Table 1 cells).
	WPOSCycles   uint64
	NativeCycles uint64
	// TracedCycles is the traced WPOS run; tracing is observation-only, so
	// it must equal WPOSCycles exactly.
	TracedCycles uint64
	// Gap is WPOSCycles - NativeCycles: the multi-server premium.
	Gap uint64
	// Subsystems is the exclusive-cost attribution of the traced run.
	Subsystems []ktrace.SubsystemCost
	// CrossingCycles sums the exclusive cycles of the boundary-crossing
	// subsystems; CrossingShare is its fraction of Gap.
	CrossingCycles uint64
	CrossingShare  float64
	// Dropped counts ring-wrap losses in the traced run (0 when the ring
	// was large enough for the whole workload).
	Dropped uint64
}

// crossingSubsystems classifies which attribution buckets are
// boundary-crossing machinery rather than useful work: the reworked RPC
// path (client stubs, physical copies, address-space switches, server
// loop), classic mach_msg where used, interrupt dispatch/reflection, and
// the driver stack that the native system runs in-kernel for a fraction of
// the cost.
var crossingSubsystems = map[string]bool{
	"mach.rpc": true,
	"mach.ipc": true,
	"iosys":    true,
	"drivers":  true,
}

// attrRingSize holds a full File Intensive trace without wrapping.
const attrRingSize = 1 << 18

// Attribution runs E-ATTR for one row (the experiment's canonical row is
// File Intensive 1).
func Attribution(row workload.Row) (AttributionResult, error) {
	// The untraced Table 1 cell: WPOS against the native baseline.
	cell, err := table1Rows(core.DefaultConfig(), []workload.Row{row})
	if err != nil {
		return AttributionResult{}, err
	}

	// Traced WPOS run on a fresh boot: attach after boot so the trace
	// holds only the workload, reset nothing mid-run.
	wt, err := core.Boot(core.DefaultConfig())
	if err != nil {
		return AttributionResult{}, err
	}
	tr := ktrace.AttachSized(wt.Kernel.CPU, attrRingSize)
	defer ktrace.Detach(wt.Kernel.CPU)
	tres, err := workload.Run(row, wt.WorkloadEnv())
	if err != nil {
		return AttributionResult{}, fmt.Errorf("traced wpos %s: %w", row, err)
	}

	res := AttributionResult{
		Row:          row,
		WPOSCycles:   cell[0].WPOS,
		NativeCycles: cell[0].Native,
		TracedCycles: tres.Cycles,
		Subsystems:   ktrace.Attribute(tr.Events()),
		Dropped:      tr.Dropped(),
	}
	if res.WPOSCycles > res.NativeCycles {
		res.Gap = res.WPOSCycles - res.NativeCycles
	}
	for _, s := range res.Subsystems {
		if crossingSubsystems[s.Subsystem] {
			res.CrossingCycles += s.Cycles
		}
	}
	if res.Gap > 0 {
		res.CrossingShare = float64(res.CrossingCycles) / float64(res.Gap)
	}
	return res, nil
}
