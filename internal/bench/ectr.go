package bench

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/kstat"
)

// Experiment E-CTR: derive Table 2's trap-versus-RPC comparison purely
// from the kstat fabric during a normal run, and prove at the same time
// that the fabric is observation-only — the direct measurement taken with
// kstat attached must be byte-identical to one taken without it.

// CounterTable2Result pairs the direct counter-bracketed measurement with
// the one reconstructed from kstat family deltas over the same run.
type CounterTable2Result struct {
	// Direct is Table 2 measured the classic way (engine counter deltas
	// around the loops), with the kstat fabric attached and recording.
	Direct Table2Result
	// FromKstat is the same table rebuilt only from kstat counters:
	// per-operation averages of the mach.trap.* and mach.rpc.* families.
	FromKstat Table2Result
	// TrapOps and RPCOps are the operation counts the fabric saw inside
	// the measured windows; both must equal the loop length exactly.
	TrapOps, RPCOps uint64
}

// CounterTable2 is Table 2's measurement taken with the metrics fabric
// attached to the rig, plus the fabric's snapshot deltas over the same
// two measured loops.
func CounterTable2() (CounterTable2Result, error) {
	r, err := newRig(false, echoBody)
	if err != nil {
		return CounterTable2Result{}, err
	}
	st := kstat.Attach(r.k.CPU)
	defer kstat.Detach(r.k.CPU)
	var deltas []kstat.Snapshot // the RPC loop's, then the trap loop's
	trap, rpc, err := r.table2(func() func() {
		mark := st.Snapshot()
		return func() { deltas = append(deltas, st.Snapshot().Delta(mark)) }
	})
	if err != nil {
		return CounterTable2Result{}, err
	}
	rpcDelta, trapDelta := deltas[0], deltas[1]
	res := CounterTable2Result{
		Direct:  table2Of(trap, rpc, table2N, table2N),
		TrapOps: trapDelta.Counters["mach.trap.count"],
		RPCOps:  rpcDelta.Counters["mach.rpc.calls"],
	}
	if res.TrapOps == 0 || res.RPCOps == 0 {
		return res, fmt.Errorf("bench: kstat saw no operations (trap=%d rpc=%d)", res.TrapOps, res.RPCOps)
	}
	res.FromKstat = table2Of(family(trapDelta, "mach.trap"), family(rpcDelta, "mach.rpc"), res.TrapOps, res.RPCOps)
	return res, nil
}

// family reads a kstat family's instr/cycles/bus counters as a delta.
func family(d kstat.Snapshot, name string) cpu.Counters {
	return cpu.Counters{
		Instructions: d.Counters[name+".instr"],
		Cycles:       d.Counters[name+".cycles"],
		BusCycles:    d.Counters[name+".bus"],
	}
}
