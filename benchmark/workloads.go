package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/drivers"
	"repro/internal/kflight"
	"repro/internal/klat"
	"repro/internal/kprof"
	"repro/internal/kstat"
	"repro/internal/mach"
	"repro/internal/os2"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// The two profiles are data: both are plain core.Config values.

func paperProfile() core.Config { return core.DefaultConfig() }

func tunedProfile() core.Config {
	cfg := core.DefaultConfig()
	cfg.CacheSectors = 256
	cfg.ZeroCopy = true
	cfg.BatchRPC = true
	cfg.ServerPool = 1
	cfg.CPUs = 1
	return cfg
}

func bootNative() (*core.NativeSystem, error) {
	return core.BootNative(cpu.Pentium133(), 16, 16384)
}

// shutdown ends every task of a kernel and detaches its observation
// planes, so a pass's system can be collected: server loops otherwise
// stay parked in receive and pin the whole boot.
func shutdown(k *mach.Kernel) {
	for _, t := range k.Tasks() {
		t.Terminate()
	}
	kprof.Detach(k.CPU)
	klat.Detach(k.CPU)
	kflight.Detach(k.CPU)
	kstat.Detach(k.CPU)
}

// part is one timed window of a pass: the measured work of one boot.
type part struct {
	name       string
	start, end int64 // host ns since the run's epoch
	ctr        cpu.Counters
	mallocs    uint64
	bytes      uint64
	ops        []opSample
	disk       uint64  // sectors the disk moved, when the kernel has one
	scale      float64 // host-speed calibration of this window's wall times
	steady     bool    // the host ran at one speed throughout the window

	// Filled by traced windows only.
	prof  kprof.Profile
	stats kstat.Snapshot
	tail  *klat.Dump
}

// passResult is what one pass of a workload measured.
type passResult struct {
	start, end int64
	parts      []part
	ratio      float64 // model_ratio of this pass
	cells      int     // published cells behind accErr
	accErr     float64 // mean relative error against them
	native     uint64  // native baseline cycles of the same stream
	check      check   // output verification
	makespan   uint64  // virtual-clock advance (multi-engine passes)
	migrations uint64
	steals     uint64
}

func (p *passResult) cycles() (c uint64) {
	for i := range p.parts {
		c += p.parts[i].ctr.Cycles
	}
	return c
}

// hostNS is the calibrated wall time of the pass's timed windows.
func (p *passResult) hostNS() (ns float64) {
	for i := range p.parts {
		ns += float64(p.parts[i].end-p.parts[i].start) * p.parts[i].scale
	}
	return ns
}

// steady reports whether the host kept one speed through every window.
func (p *passResult) steady() bool {
	for i := range p.parts {
		if !p.parts[i].steady {
			return false
		}
	}
	return true
}

// harness holds what every workload's timed windows share.
type harness struct {
	epoch time.Time
	trace bool        // attach kprof, snapshot kstat and klat around windows
	recs  []*recorder // recs[0] serves single-client workloads
}

func newHarness() *harness {
	h := &harness{epoch: time.Now()}
	for i := 0; i < smpClients; i++ {
		h.recs = append(h.recs, newRecorder(h.epoch))
	}
	return h
}

// window runs fn as one timed part on kernel k.  Everything the
// benchmark reports about a pass is read here, from outside: host clock
// (with the host's speed taken right before and after), engine counters,
// allocator statistics, and on a traced run the profiler, the kstat
// delta and the tail-latency dump.
func (h *harness) window(name string, k *mach.Kernel, disk *drivers.Disk, fn func()) part {
	eng := k.CPU
	var prof *kprof.Profiler
	var st *kstat.Set
	var mark kstat.Snapshot
	if h.trace {
		// A fresh tracker, so histograms and exemplars cover the window
		// and not the boot and population before it.
		klat.Detach(eng)
		klat.Attach(eng)
		if st = kstat.For(eng); st != nil {
			mark = st.Snapshot()
		}
		prof = kprof.Attach(eng)
		prof.Reset()
		prof.Enable()
	}
	first := make([]int, len(h.recs))
	for i, r := range h.recs {
		first[i] = len(r.ops)
	}
	d0 := sectorsMoved(disk)
	speed := hostSpeed()
	m0 := readMem()
	c0 := eng.Counters()
	t0 := time.Now()
	fn()
	t1 := time.Now()
	c1 := eng.Counters()
	m1 := readMem()
	scale, steady := calibration(speed, hostSpeed())

	p := part{
		name:    name,
		start:   t0.Sub(h.epoch).Nanoseconds(),
		end:     t1.Sub(h.epoch).Nanoseconds(),
		ctr:     c1.Sub(c0),
		mallocs: m1.mallocs - m0.mallocs,
		bytes:   m1.bytes - m0.bytes,
		disk:    sectorsMoved(disk) - d0,
		scale:   scale,
		steady:  steady,
	}
	for i, r := range h.recs {
		p.ops = append(p.ops, r.ops[first[i]:]...)
	}
	if h.trace {
		prof.Disable()
		p.prof = prof.Snapshot()
		kprof.Detach(eng)
		if st != nil {
			p.stats = st.Snapshot().Delta(mark)
		}
		p.tail = klat.For(eng).Dump()
	}
	return p
}

// sectorsMoved is how many sectors a disk has read and written so far;
// a kernel-only rig has no disk.
func sectorsMoved(d *drivers.Disk) uint64 {
	if d == nil {
		return 0
	}
	r, w := d.Counts()
	return r + w
}

// workloadImpl is one of the six workloads.
type workloadImpl interface {
	// setup prepares what every pass reuses: generated streams and the
	// native baseline.  It does not run warm-up passes; the runner does.
	setup(seed uint64) error
	// pass runs one fixed-size pass and verifies its output.
	pass(h *harness) (passResult, error)
}

func newWorkload(name string) (workloadImpl, error) {
	switch name {
	case "table1_file":
		return &table1{rows: []workload.Row{workload.FileIntensive1, workload.FileIntensive2},
			pins: []uint64{pinFI1, pinFI2}}, nil
	case "table1_ui":
		return &table1{rows: []workload.Row{workload.GraphicsLow, workload.GraphicsMedium, workload.GraphicsHigh,
			workload.PMTaskingMedium, workload.PMTaskingHigh}}, nil
	case "fileops_read":
		return &fileops{name: name, mix: readMix}, nil
	case "fileops_write":
		return &fileops{name: name, mix: writeMix}, nil
	case "rpc_mix":
		return &rpcMix{}, nil
	case "clients_smp":
		return &clientsSMP{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// deterministic reports whether a workload's modeled cycles must repeat
// exactly from pass to pass.  clients_smp's do not yet: its bursts are
// charged in the order the host releases them (ROADMAP item 1).
func deterministic(name string) bool { return name != "clients_smp" }

// --- table1_file, table1_ui ------------------------------------------------

// table1 runs pinned Table 1 rows, a fresh paper-profile boot per row.
type table1 struct {
	rows   []workload.Row
	pins   []uint64 // tier-1 pinned WPOS cycles per row, when pinned
	native []uint64
}

func (w *table1) setup(uint64) error {
	w.native = w.native[:0]
	for _, row := range w.rows {
		n, err := bootNative()
		if err != nil {
			return err
		}
		res, err := workload.Run(row, n.WorkloadEnv())
		shutdown(n.Kernel)
		if err != nil {
			return err
		}
		w.native = append(w.native, res.Cycles)
	}
	return nil
}

func (w *table1) pass(h *harness) (passResult, error) {
	var out passResult
	rec := h.recs[0]
	for i, row := range w.rows {
		s, err := core.Boot(paperProfile())
		if err != nil {
			return out, err
		}
		env := s.WorkloadEnv()
		newProcess := env.NewProcess
		env.NewProcess = func(name string) (workload.OS2Process, error) {
			p, err := newProcess(name)
			return timedProc{p, rec}, err
		}
		rec.clock = engineClock(env.Eng)
		var runErr error
		pt := h.window(string(row), s.Kernel, s.Disk, func() { _, runErr = workload.Run(row, env) })
		shutdown(s.Kernel)
		if runErr != nil {
			return out, runErr
		}
		out.parts = append(out.parts, pt)
		out.native += w.native[i]

		r := float64(pt.ctr.Cycles) / float64(w.native[i])
		out.ratio += r / float64(len(w.rows))
		paper := paperTable1[string(row)]
		out.accErr += math.Abs(r-paper) / paper / float64(len(w.rows))
		out.cells++
		if w.pins != nil {
			out.check.attempted++
			if pt.ctr.Cycles != w.pins[i] {
				out.check.failed++
			}
		}
	}
	return out, nil
}

// --- fileops_read, fileops_write -------------------------------------------

// readMix: 16 files x 4 KiB = 128 sectors, half the tuned cache.  90%
// reads in three shapes, 10% aligned overwrites.
var readMix = mix{files: 16, fileBytes: 4096, rounds: 30, count: [numOpKinds]int{
	readSeq512: 3, readSeq4K: 3, readRand512: 3, write512: 1,
}}

// writeMix: 32 files x 8 KiB = 512 sectors, twice the cache, and growing
// as the appends land.  80% writes in four shapes, 20% reads.
var writeMix = mix{files: 32, fileBytes: 8192, rounds: 15, count: [numOpKinds]int{
	write512: 3, update100: 2, append4K: 2, churn: 1, readSeq512: 1, readRand512: 1,
}}

// fileops replays one seeded stream per pass on a fresh tuned boot whose
// caches are as volume population left them.
type fileops struct {
	name   string
	mix    mix
	ops    []fileOp
	sh     *shadow
	native uint64
}

func (w *fileops) setup(seed uint64) error {
	w.ops = genOps(rngFor(seed, w.name, 0), w.mix)
	w.sh = newShadow("/R", w.mix)

	n, err := bootNative()
	if err != nil {
		return err
	}
	defer shutdown(n.Kernel)
	p, err := n.Sys.CreateProcess("bench")
	if err != nil {
		return err
	}
	if err := w.sh.populate(p); err != nil {
		return fmt.Errorf("native: %w", err)
	}
	base := n.Kernel.CPU.Counters()
	if c := w.sh.run(p, w.ops); c.failed > 0 {
		return fmt.Errorf("native baseline read %d wrong bytes", c.failed)
	}
	w.native = n.Kernel.CPU.Counters().Sub(base).Cycles
	return nil
}

// populated boots cfg and fills one shadow directory per process name,
// leaving caches as population and a Sync left them.
func populated(cfg core.Config, shadows []*shadow, mixes []mix) (*core.System, []*os2.Process, error) {
	s, err := core.Boot(cfg)
	if err != nil {
		return nil, nil, err
	}
	var procs []*os2.Process
	for i, sh := range shadows {
		sh.reset(mixes[i])
		p, err := s.OS2.CreateProcess(fmt.Sprintf("bench%d", i))
		if err != nil {
			return nil, nil, err
		}
		if err := sh.populate(p); err != nil {
			return nil, nil, err
		}
		procs = append(procs, p)
	}
	c, err := s.Files.NewClient(procs[0].Thread(), vfs.ProfileOS2)
	if err != nil {
		return nil, nil, err
	}
	if err := c.Sync(); err != nil {
		return nil, nil, err
	}
	return s, procs, nil
}

func (w *fileops) pass(h *harness) (passResult, error) {
	var out passResult
	s, procs, err := populated(tunedProfile(), []*shadow{w.sh}, []mix{w.mix})
	if err != nil {
		return out, err
	}
	defer shutdown(s.Kernel)
	rec := h.recs[0]
	rec.clock = engineClock(s.Kernel.CPU)
	pt := h.window(w.name, s.Kernel, s.Disk, func() {
		out.check.add(w.sh.run(timedProc{procs[0], rec}, w.ops))
	})
	out.check.add(w.sh.readBack(procs[0]))
	out.parts = []part{pt}
	out.native = w.native
	out.ratio = float64(pt.ctr.Cycles) / float64(w.native)
	return out, nil
}

// --- rpc_mix ---------------------------------------------------------------

type rpcKind uint8

const (
	rpcTrap      rpcKind = iota // thread_self
	rpcCall32                   // 32 B inline Call
	rpcCopy512                  // 512 B inline copy
	rpcCopy4K                   // one page, copied inline
	rpcRegion4K                 // one page by region descriptor
	rpcRegion64K                // 16 pages by region descriptor
	rpcBatch8x32                // CallV of eight 32 B sub-requests
	numRPCKinds
)

// rpcCounts is one pass's seeded stream; the Table 2 segment follows it.
// The classic queued mach_msg round trip is not in it: its server
// re-enters receive while the client resumes, the two charge the engine's
// order-sensitive cache model from two goroutines, and a pass would no
// longer model the same cycles twice (the bug class of ROADMAP item 1).
// probeMach reports it as an average instead.
var rpcCounts = [numRPCKinds]int{
	rpcTrap: 600, rpcCall32: 600, rpcCopy512: 200, rpcCopy4K: 150,
	rpcRegion4K: 150, rpcRegion64K: 50, rpcBatch8x32: 150,
}

// Table 2's procedure: warm the path, then average a fixed loop.
const (
	table2Warm = 50
	table2N    = 400
)

// rpcMix exercises mach and cpu alone: a kernel, an echo task serving
// one reworked-RPC port and one classic port, and a client thread.
type rpcMix struct {
	stream []rpcKind
	fills  []byte
}

func (w *rpcMix) setup(seed uint64) error {
	rng := rngFor(seed, "rpc_mix", 0)
	w.stream = w.stream[:0]
	for k := rpcKind(0); k < numRPCKinds; k++ {
		for i := 0; i < rpcCounts[k]; i++ {
			w.stream = append(w.stream, k)
		}
	}
	rng.Shuffle(len(w.stream), func(i, j int) { w.stream[i], w.stream[j] = w.stream[j], w.stream[i] })
	w.fills = make([]byte, len(w.stream))
	for i := range w.fills {
		w.fills[i] = byte(rng.UintN(256))
	}
	return nil
}

// echoRig is the kernel-only fixture of rpc_mix and of the mach probes:
// an echo task serving one reworked-RPC port, and a client thread.
type echoRig struct {
	k   *mach.Kernel
	srv *mach.Task
	cli *mach.Task
	th  *mach.Thread
	rpc mach.PortName // the client's send right to the echo port
}

func echo(m *mach.Message) *mach.Message { return &mach.Message{Body: m.Body} }

func newEchoRig(stats bool) (*echoRig, error) {
	k := mach.New(cpu.Pentium133())
	if stats {
		kstat.Attach(k.CPU)
	}
	r := &echoRig{k: k, srv: k.NewTask("echo"), cli: k.NewTask("client")}
	port, err := r.srv.AllocatePort()
	if err != nil {
		return nil, err
	}
	if _, err := r.srv.Spawn("rpc", func(th *mach.Thread) { th.Serve(port, echo) }); err != nil {
		return nil, err
	}
	if r.rpc, err = r.cli.InsertRight(r.srv, port, mach.DispMakeSend); err != nil {
		return nil, err
	}
	if r.th, err = r.cli.NewBoundThread("main"); err != nil {
		return nil, err
	}
	return r, nil
}

// inline echoes n copied bytes; region sends n bytes by reference.
func (r *echoRig) inline(n int, fill byte, buf []byte, c *check) error {
	body := pattern(buf[:n], fill)
	reply, err := r.th.Call(r.rpc, &mach.Message{Body: body}, mach.CallOpts{})
	if err == nil {
		c.compare(reply.Body, body)
	}
	return err
}

func (r *echoRig) region(n int, buf []byte) error {
	_, err := r.th.Call(r.rpc, &mach.Message{Regions: []mach.RegionDesc{{Len: uint64(n), Data: buf[:n]}}}, mach.CallOpts{})
	return err
}

// do issues one operation of the stream as one recorded call and checks
// the echoed bytes.
func (r *echoRig) do(rec *recorder, kind rpcKind, fill byte, buf []byte, c *check) {
	m := rec.begin()
	var err error
	switch kind {
	case rpcTrap:
		r.th.Self()
	case rpcCall32:
		err = r.inline(32, fill, buf, c)
	case rpcCopy512:
		err = r.inline(512, fill, buf, c)
	case rpcCopy4K:
		err = r.inline(4096, fill, buf, c)
	case rpcRegion4K:
		err = r.region(4096, buf)
	case rpcRegion64K:
		err = r.region(65536, buf)
	case rpcBatch8x32:
		reqs := make([]*mach.Message, 8)
		for i := range reqs {
			reqs[i] = &mach.Message{Body: pattern(buf[32*i:32*i+32], fill+byte(i))}
		}
		var replies []*mach.Message
		if replies, err = r.th.CallV(r.rpc, reqs, mach.CallOpts{}); err == nil {
			for i, reply := range replies {
				c.compare(reply.Body, reqs[i].Body)
			}
		}
	}
	rec.end(m, err != nil)
}

func (w *rpcMix) pass(h *harness) (passResult, error) {
	var out passResult
	rig, err := newEchoRig(h.trace)
	if err != nil {
		return out, err
	}
	defer shutdown(rig.k)
	rec := h.recs[0]
	rec.clock = engineClock(rig.k.CPU)
	buf := make([]byte, 65536)

	// loop is Table 2's measurement: warm the path, then the counter
	// delta of a fixed loop.
	loop := func(kind rpcKind) cpu.Counters {
		for i := 0; i < table2Warm; i++ {
			rig.do(rec, kind, 0, buf, &out.check)
		}
		base := rig.k.CPU.Counters()
		for i := 0; i < table2N; i++ {
			rig.do(rec, kind, 0, buf, &out.check)
		}
		return rig.k.CPU.Counters().Sub(base)
	}
	var rpc, trap cpu.Counters
	pt := h.window("rpc_mix", rig.k, nil, func() {
		for i, kind := range w.stream {
			rig.do(rec, kind, w.fills[i], buf, &out.check)
		}
		rpc = loop(rpcCall32)
		trap = loop(rpcTrap)
	})
	out.parts = []part{pt}

	measured := [4]float64{
		float64(rpc.Instructions) / float64(trap.Instructions),
		float64(rpc.Cycles) / float64(trap.Cycles),
		float64(rpc.BusCycles) / float64(trap.BusCycles),
		rpc.CPI() / trap.CPI(),
	}
	out.ratio = measured[1]
	for i, m := range measured {
		out.accErr += math.Abs(m-paperTable2[i]) / paperTable2[i] / 4
	}
	out.cells = 4
	return out, nil
}

// --- clients_smp -----------------------------------------------------------

const smpClients = 4

// smpMix is one client's half-read, half-write stream over its own
// directory of 8 files x 4 KiB.
var smpMix = mix{files: 8, fileBytes: 4096, rounds: 2, count: [numOpKinds]int{
	readSeq512: 4, readSeq4K: 2, readRand512: 4,
	write512: 5, update100: 2, append4K: 2, churn: 1,
}}

func smpProfile() core.Config {
	cfg := tunedProfile()
	cfg.CPUs = 2
	cfg.ServerPool = 2
	return cfg
}

// clientsSMP is the one concurrent cell: four closed-loop clients, each
// waiting for every reply before its next call.
type clientsSMP struct {
	ops     [smpClients][]fileOp
	shadows []*shadow
	mixes   []mix
	native  uint64
}

func (w *clientsSMP) setup(seed uint64) error {
	w.shadows, w.mixes = nil, nil
	for c := 0; c < smpClients; c++ {
		w.ops[c] = genOps(rngFor(seed, "clients_smp", c), smpMix)
		w.shadows = append(w.shadows, newShadow(fmt.Sprintf("/C%d", c), smpMix))
		w.mixes = append(w.mixes, smpMix)
	}
	// The native baseline runs the four streams one after another: it has
	// one processor and no servers to overlap.
	n, err := bootNative()
	if err != nil {
		return err
	}
	defer shutdown(n.Kernel)
	w.native = 0
	for c, sh := range w.shadows {
		p, err := n.Sys.CreateProcess(fmt.Sprintf("bench%d", c))
		if err != nil {
			return err
		}
		if err := sh.populate(p); err != nil {
			return fmt.Errorf("native: %w", err)
		}
		base := n.Kernel.CPU.Counters()
		if chk := sh.run(p, w.ops[c]); chk.failed > 0 {
			return fmt.Errorf("native baseline read %d wrong bytes", chk.failed)
		}
		w.native += n.Kernel.CPU.Counters().Sub(base).Cycles
	}
	return nil
}

// schedTotals sums the dispatcher's per-engine statistics.
func schedTotals(k *mach.Kernel) (virtual, migrations, steals uint64) {
	for _, st := range k.SchedStats() {
		virtual = max(virtual, st.Virtual)
		migrations += st.Migrations
		steals += st.Steals
	}
	return
}

func (w *clientsSMP) pass(h *harness) (passResult, error) {
	var out passResult
	s, procs, err := populated(smpProfile(), w.shadows, w.mixes)
	if err != nil {
		return out, err
	}
	defer shutdown(s.Kernel)
	for c, p := range procs {
		// Calls are timed on the calling thread's virtual clock: with
		// other clients charging the same engines, an engine-counter
		// delta would count their work too.
		h.recs[c].clock = p.Thread().VT
	}
	vt0, mig0, steal0 := schedTotals(s.Kernel)
	checks := make([]check, smpClients)
	pt := h.window("clients_smp", s.Kernel, s.Disk, func() {
		var wg sync.WaitGroup
		for c := range procs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				checks[c] = w.shadows[c].run(timedProc{procs[c], h.recs[c]}, w.ops[c])
			}()
		}
		wg.Wait()
	})
	vt1, mig1, steal1 := schedTotals(s.Kernel)
	out.makespan, out.migrations, out.steals = vt1-vt0, mig1-mig0, steal1-steal0
	for c, p := range procs {
		out.check.add(checks[c])
		out.check.add(w.shadows[c].readBack(p))
	}
	out.parts = []part{pt}
	out.native = w.native
	out.ratio = float64(pt.ctr.Cycles) / float64(w.native)
	return out, nil
}
