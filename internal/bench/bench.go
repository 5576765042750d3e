// Package bench implements the experiment harness: each function
// regenerates one table or figure of the paper (or one ablation the
// evaluation argues from) and returns structured results.  The root
// bench_test.go and cmd/benchtables are thin layers over this package.
package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/drivers"
	"repro/internal/fat"
	"repro/internal/hpfs"
	"repro/internal/iosys"
	"repro/internal/jfs"
	"repro/internal/mach"
	"repro/internal/mvm"
	"repro/internal/names"
	"repro/internal/netsvc"
	"repro/internal/os2"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Row     workload.Row
	Content string
	WPOS    uint64
	Native  uint64
	Ratio   float64
	Paper   float64
}

// paperTable1 holds the published ratios.
var paperTable1 = map[workload.Row]float64{
	workload.FileIntensive1:  2.96,
	workload.FileIntensive2:  2.97,
	workload.GraphicsLow:     0.91,
	workload.GraphicsMedium:  0.87,
	workload.GraphicsHigh:    0.71,
	workload.PMTaskingMedium: 0.82,
	workload.PMTaskingHigh:   1.02,
}

// Table1 reruns the OS/2 comparison suite: WPOS OS/2 (64 MB, multi-server,
// user-level driver) against native OS/2 (16 MB, monolithic), with the
// file server's unified buffer cache sized to cacheSectors (0 = off, the
// paper's direct-to-driver path).  The native baseline is never cached:
// it is the yardstick the paper measured against.
func Table1(cacheSectors int) ([]Table1Row, error) {
	cfg := core.DefaultConfig()
	cfg.CacheSectors = cacheSectors
	return table1Rows(cfg, workload.Rows)
}

// CacheSweepPoint is one cache size of experiment E-CACHE: the two
// file-intensive Table 1 ratios with the buffer cache at Sectors.
type CacheSweepPoint struct {
	Sectors  int
	FI1, FI2 float64
}

// CacheSweep measures the file-intensive rows at each cache size — the
// E-CACHE curve showing the WPOS/native ratio moving toward the native
// line as the cache absorbs driver crossings.
func CacheSweep(sizes []int) ([]CacheSweepPoint, error) {
	var out []CacheSweepPoint
	for _, n := range sizes {
		cfg := core.DefaultConfig()
		cfg.CacheSectors = n
		rows, err := table1Rows(cfg, fiRows)
		if err != nil {
			return nil, err
		}
		out = append(out, CacheSweepPoint{Sectors: n, FI1: rows[0].Ratio, FI2: rows[1].Ratio})
	}
	return out, nil
}

// fiRows are Table 1's two file-intensive rows.
var fiRows = []workload.Row{workload.FileIntensive1, workload.FileIntensive2}

func table1Rows(cfg core.Config, rows []workload.Row) ([]Table1Row, error) {
	var out []Table1Row
	for _, row := range rows {
		w, err := core.Boot(cfg)
		if err != nil {
			return nil, err
		}
		n, err := core.BootNative(cpu.Pentium133(), 16, 16384)
		if err != nil {
			return nil, err
		}
		wres, err := workload.Run(row, w.WorkloadEnv())
		if err != nil {
			return nil, fmt.Errorf("wpos %s: %w", row, err)
		}
		nres, err := workload.Run(row, n.WorkloadEnv())
		if err != nil {
			return nil, fmt.Errorf("native %s: %w", row, err)
		}
		out = append(out, Table1Row{
			Row:     row,
			Content: workload.Content(row),
			WPOS:    wres.Cycles,
			Native:  nres.Cycles,
			Ratio:   float64(wres.Cycles) / float64(nres.Cycles),
			Paper:   paperTable1[row],
		})
	}
	return out, nil
}

// Overall returns the geometric-mean-free "Overall" row the paper lists
// (arithmetic mean of ratios, matching its 1.21 given the seven rows).
func Overall(rows []Table1Row) (measured, paper float64) {
	var m, p float64
	for _, r := range rows {
		m += r.Ratio
		p += r.Paper
	}
	return m / float64(len(rows)), p / float64(len(rows))
}

// Table2Result mirrors the paper's Table 2.
type Table2Result struct {
	TrapInstr, RPCInstr   float64
	TrapCycles, RPCCycles float64
	TrapBus, RPCBus       float64
	TrapCPI, RPCCPI       float64
}

// Ratios returns the four ratio cells.
func (t Table2Result) Ratios() (instr, cycles, bus, cpi float64) {
	return t.RPCInstr / t.TrapInstr, t.RPCCycles / t.TrapCycles,
		t.RPCBus / t.TrapBus, t.RPCCPI / t.TrapCPI
}

// PaperTable2 holds the published numbers.
var PaperTable2 = Table2Result{
	TrapInstr: 465, RPCInstr: 1317,
	TrapCycles: 970, RPCCycles: 5163,
	TrapBus: 218, RPCBus: 1849,
	TrapCPI: 2.0, RPCCPI: 3.9,
}

// Table2 measures thread_self against a 32-byte RPC with the performance
// counters of the CPU model.
func Table2() (Table2Result, error) {
	r, err := newRig(false, echoBody)
	if err != nil {
		return Table2Result{}, err
	}
	trap, rpc, err := r.table2(nil)
	if err != nil {
		return Table2Result{}, err
	}
	return table2Of(trap, rpc, table2N, table2N), nil
}

// table2Of averages trap and RPC counter deltas over their op counts.
func table2Of(trap, rpc cpu.Counters, trapN, rpcN uint64) Table2Result {
	t := Table2Result{
		TrapInstr:  float64(trap.Instructions) / float64(trapN),
		RPCInstr:   float64(rpc.Instructions) / float64(rpcN),
		TrapCycles: float64(trap.Cycles) / float64(trapN),
		RPCCycles:  float64(rpc.Cycles) / float64(rpcN),
		TrapBus:    float64(trap.BusCycles) / float64(trapN),
		RPCBus:     float64(rpc.BusCycles) / float64(rpcN),
	}
	t.TrapCPI = t.TrapCycles / t.TrapInstr
	t.RPCCPI = t.RPCCycles / t.RPCInstr
	return t
}

// IPCPoint is one size in the rework-improvement sweep (E3).
type IPCPoint struct {
	Size      int
	OldCycles uint64
	NewCycles uint64
	Speedup   float64
}

// IPCSweep measures classic mach_msg round trips against reworked RPC
// across message sizes — the "two to ten times improvement" claim.
func IPCSweep() ([]IPCPoint, error) {
	sizes := []int{0, 32, 256, 1024, 4096, 16384, 65536}
	var out []IPCPoint
	for _, size := range sizes {
		newC, err := rpcCost(size, false)
		if err != nil {
			return nil, err
		}
		oldC, err := rpcCost(size, true)
		if err != nil {
			return nil, err
		}
		out = append(out, IPCPoint{
			Size: size, OldCycles: oldC, NewCycles: newC,
			Speedup: float64(oldC) / float64(newC),
		})
	}
	return out, nil
}

// rpcCost measures one round trip of size bytes on the rig, reworked or
// classic.  The reply port is allocated after the client thread in both
// modes, as the pinned cells were measured.
func rpcCost(size int, classic bool) (uint64, error) {
	r, err := newRig(classic, sink)
	if err != nil {
		return 0, err
	}
	reply, err := r.client.AllocatePort()
	if err != nil {
		return 0, err
	}
	call := func() error {
		if classic {
			_, err := r.th.MachRPC(r.send, xferMsg(size, false), reply)
			return err
		}
		return r.call(xferMsg(size, false))
	}
	const N = 150
	d, err := bracket(r.k.CPU, 30, N, call, nil)
	return d.Cycles / N, err
}

// NSResult compares the X.500-style and simplified name services (E5).
type NSResult struct {
	FullCycles   uint64
	SimpleCycles uint64
	Ratio        float64
}

// NameServices measures a deep personality-path lookup on both services.
func NameServices() (NSResult, error) {
	eng := cpu.NewEngine(cpu.Pentium133())
	layout := cpu.NewLayout(0x400000)
	full := names.NewService(eng, layout)
	simple := names.NewSimpleService(eng, layout)
	if err := full.Bind("/servers/personality/os2/files", names.Binding{}); err != nil {
		return NSResult{}, err
	}
	if err := simple.Bind("os2-files", names.Binding{}); err != nil {
		return NSResult{}, err
	}
	const warm, N = 20, 200
	fd, err := bracket(eng, warm, N, func() error { _, err := full.Lookup("/servers/personality/os2/files"); return err }, nil)
	if err != nil {
		return NSResult{}, err
	}
	sd, err := bracket(eng, warm, N, func() error { _, err := simple.Lookup("os2-files"); return err }, nil)
	if err != nil {
		return NSResult{}, err
	}
	fc, sc := fd.Cycles/N, sd.Cycles/N
	return NSResult{FullCycles: fc, SimpleCycles: sc, Ratio: float64(fc) / float64(sc)}, nil
}

// ObjResult compares fine-grained and coarse object stacks (E6).
type ObjResult struct {
	FineCycles     uint64
	CoarseCycles   uint64
	Ratio          float64
	FineDispatches uint64
	MetadataBytes  uint64
}

// Objects measures one datagram round trip through the networking
// framework in both object modes.
func Objects() (ObjResult, error) {
	cost := func(mode netsvc.Mode) (uint64, *netsvc.Stack, error) {
		eng := cpu.NewEngine(cpu.Pentium133())
		layout := cpu.NewLayout(0xB00000)
		intr := iosys.NewInterruptController(eng, layout, 8)
		na := drivers.NewNIC(eng, intr, 1, "a")
		nb := drivers.NewNIC(eng, intr, 2, "b")
		drivers.Connect(na, nb)
		sa, err := netsvc.NewStack(eng, layout, na, "a", mode)
		if err != nil {
			return 0, nil, err
		}
		sb, err := netsvc.NewStack(eng, layout, nb, "b", mode)
		if err != nil {
			return 0, nil, err
		}
		ep, err := sa.Bind(1)
		if err != nil {
			return 0, nil, err
		}
		if _, err := sb.Bind(2); err != nil {
			return 0, nil, err
		}
		payload := make([]byte, 256)
		const N = 100
		d, err := bracket(eng, 10, N, func() error {
			err := ep.SendTo("b", 2, payload)
			sb.Pump()
			return err
		}, nil)
		return d.Cycles / N, sa, err
	}
	fine, sa, err := cost(netsvc.FineGrained)
	if err != nil {
		return ObjResult{}, err
	}
	coarse, _, err := cost(netsvc.Coarse)
	if err != nil {
		return ObjResult{}, err
	}
	return ObjResult{
		FineCycles: fine, CoarseCycles: coarse,
		Ratio:          float64(fine) / float64(coarse),
		FineDispatches: sa.Hierarchy().Dispatches(),
		MetadataBytes:  sa.Hierarchy().MetadataFootprint(),
	}, nil
}

// MemResult is the two-memory-managers footprint experiment (E7).
type MemResult struct {
	Allocations    int
	RequestedBytes uint64
	ResidentBytes  uint64
	Overhead       float64
	MetadataBytes  uint64
	MapEntries     int
}

// MemFootprint allocates many small eager OS/2 allocations and reports
// the blow-up.
func MemFootprint() (MemResult, error) {
	s, err := core.Boot(core.DefaultConfig())
	if err != nil {
		return MemResult{}, err
	}
	p, err := s.OS2.CreateProcess("footprint")
	if err != nil {
		return MemResult{}, err
	}
	const n = 200
	for i := 0; i < n; i++ {
		if _, e := p.DosAllocMem(100+uint64(i%7)*33, true); e != os2.NoError {
			return MemResult{}, fmt.Errorf("alloc %d: %v", i, e)
		}
	}
	rep := p.Mem.Footprint()
	return MemResult{
		Allocations:    rep.Allocations,
		RequestedBytes: rep.RequestedBytes,
		ResidentBytes:  rep.ResidentBytes,
		Overhead:       rep.Overhead(),
		MetadataBytes:  rep.MetadataBytes,
		MapEntries:     rep.MapEntries,
	}, nil
}

// DriverResult is one driver model's per-operation cost (E9).
type DriverResult struct {
	Model  string
	Cycles uint64
}

// DriverModels runs the same 1-sector write through all three driver
// architectures.
func DriverModels() ([]DriverResult, error) {
	run := func(model core.DriverModel) (DriverResult, error) {
		k := mach.New(cpu.Pentium133())
		layout := k.Layout()
		intr := iosys.NewInterruptController(k.CPU, layout, 32)
		dma := iosys.NewDMAController(k.CPU, layout, 4)
		hrm := iosys.NewHRM(k.CPU, layout)
		disk, err := drivers.NewDisk(k.CPU, dma, intr, 14, 4096)
		if err != nil {
			return DriverResult{}, err
		}
		var d drivers.BlockDriver
		switch model {
		case core.DriverKernel:
			d, err = drivers.NewKernelBlockDriver(k, layout, disk, intr)
		case core.DriverOODDM:
			d, err = drivers.NewOODDMBlockDriver(k, layout, disk, intr)
		default:
			d, err = drivers.NewUserBlockDriver(k, layout, disk, hrm, intr, 1)
		}
		if err != nil {
			return DriverResult{}, err
		}
		app := k.NewTask("app")
		th, err := app.NewBoundThread("main")
		if err != nil {
			return DriverResult{}, err
		}
		buf := make([]byte, drivers.SectorSize)
		const N = 100
		c, err := bracket(k.CPU, 10, N, func() error { return d.WriteSectors(th, 0, buf) }, nil)
		return DriverResult{Model: d.Model(), Cycles: c.Cycles / N}, err
	}
	var out []DriverResult
	for _, m := range []core.DriverModel{core.DriverKernel, core.DriverOODDM, core.DriverUser} {
		r, err := run(m)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// MVMResult compares interpreted and translated guest execution (E10).
type MVMResult struct {
	InterpCycles    uint64
	ColdTransCycles uint64
	HotTransCycles  uint64
	Speedup         float64
	CacheHits       uint64
	CacheMisses     uint64
}

// MVMTranslator runs the same guest program under both engines.
func MVMTranslator() (MVMResult, error) {
	k := mach.New(cpu.Pentium133())
	fsrv, err := vfs.NewServer(k, 1)
	if err != nil {
		return MVMResult{}, err
	}
	fsrv.Mount("/", vfs.NewMemFS())
	console := drivers.NewConsole(k.CPU)
	srv := mvm.NewServer(k, fsrv, console)

	a := mvm.NewAsm()
	a.MovImm(mvm.AX, 0).MovImm(mvm.BX, 3000)
	a.Label("loop")
	a.Add(mvm.AX, mvm.BX)
	a.Dec(mvm.BX)
	a.CmpImm(mvm.BX, 0)
	a.Jnz("loop")
	a.Hlt()
	prog, err := a.Assemble()
	if err != nil {
		return MVMResult{}, err
	}

	// run loads the program, outside the bracket, and runs it once.
	run := func(vm *mvm.VM) (uint64, error) {
		vm.Load(prog)
		d, err := bracket(k.CPU, 0, 1, func() error { return vm.Run(1 << 26) }, nil)
		return d.Cycles, err
	}
	vi, err := srv.NewVM("i", mvm.Interpret)
	if err != nil {
		return MVMResult{}, err
	}
	interp, err := run(vi)
	if err != nil {
		return MVMResult{}, err
	}
	vt, err := srv.NewVM("t", mvm.Translate)
	if err != nil {
		return MVMResult{}, err
	}
	cold, err := run(vt)
	if err != nil {
		return MVMResult{}, err
	}
	hot, err := run(vt)
	if err != nil {
		return MVMResult{}, err
	}
	hits, misses, _ := vt.TranslatorStats()
	return MVMResult{
		InterpCycles: interp, ColdTransCycles: cold, HotTransCycles: hot,
		Speedup:   float64(interp) / float64(hot),
		CacheHits: hits, CacheMisses: misses,
	}, nil
}

// FSResult is one physical format's behaviour under the union layer (E8).
type FSResult struct {
	FS            string
	LongNameOK    bool
	EAOK          bool
	CaseSensitive bool
}

// FSPersonality probes each format through the dispatcher.
func FSPersonality() ([]FSResult, error) {
	build := func(name string) (vfs.FileSystem, error) {
		var fsys vfs.FileSystem
		dev := vfs.NewRAMDisk(4096)
		var err error
		switch name {
		case "fat":
			fsys, err = fat.New(), fat.Format(dev)
		case "hpfs":
			fsys, err = hpfs.New(), hpfs.Format(dev)
		default:
			dev = vfs.NewRAMDisk(8192)
			fsys, err = jfs.New(), jfs.Format(dev)
		}
		if err != nil {
			return nil, err
		}
		return fsys, fsys.Mount(dev)
	}
	var out []FSResult
	for _, name := range []string{"fat", "hpfs", "jfs"} {
		fsys, err := build(name)
		if err != nil {
			return nil, err
		}
		d := vfs.NewDispatcher()
		if err := d.Mount("/", fsys); err != nil {
			return nil, err
		}
		r := FSResult{FS: name, CaseSensitive: fsys.Caps().CaseSensitive}
		_, lerr := d.Open(vfs.ProfileTalOS, "/A Long Descriptive Name.doc", true, true)
		r.LongNameOK = lerr == nil
		if fd, err := d.Open(vfs.ProfileOS2, "/E.DAT", true, true); err == nil {
			d.WriteAt(fd, make([]byte, 512), 0)
			d.Close(fd)
		}
		r.EAOK = d.SetEA(vfs.ProfileOS2, "/E.DAT", ".TYPE", "text") == nil
		out = append(out, r)
	}
	return out, nil
}

// TrapVsRPCNote summarizes why CPI differs, from the counter detail.
func TrapVsRPCNote(t Table2Result) string {
	return fmt.Sprintf(
		"RPC executes %.1fx the instructions but %.1fx the cycles: the round trip's code footprint misses the I-cache and the two address-space switches flush the TLB, so the processor stalls (CPI %.1f vs %.1f).",
		t.RPCInstr/t.TrapInstr, t.RPCCycles/t.TrapCycles, t.RPCCPI, t.TrapCPI)
}
