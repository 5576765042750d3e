package main

import (
	"slices"
	"time"

	"repro/internal/bcache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/drivers"
	"repro/internal/iosys"
	"repro/internal/mach"
	"repro/internal/vfs"
)

// Layer probes: each calls one layer's public entry point in a loop, on
// the smallest rig that layer needs, and reports host time per call (and
// modeled cycles where Table 2 defines them).  They do not depend on the
// workload or the seed.

const (
	probeWarm  = 50
	probeCalls = 2000
)

// timeCalls runs fn probeCalls times after a warm-up and returns the
// median host nanoseconds of one call.
func timeCalls(fn func() error) (float64, error) {
	for i := 0; i < probeWarm; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	ns := make([]float64, probeCalls)
	for i := range ns {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ns[i] = float64(time.Since(t).Nanoseconds())
	}
	slices.Sort(ns)
	return quantile(ns, 0.5), nil
}

func runProbes(put func(name string, v float64, samples int)) error {
	for _, probe := range []func(func(string, float64, int)) error{
		probeMach, probeCPU, probeVFS, probeBcache, probeDriver, probeBoot,
	} {
		if err := probe(put); err != nil {
			return err
		}
	}
	return nil
}

// probeMach is Table 2's rig: a warmed 32-byte Call and a warmed
// thread_self trap, and beside them the classic queued mach_msg round
// trip the rework replaced.
func probeMach(put func(string, float64, int)) error {
	rig, err := newEchoRig(false)
	if err != nil {
		return err
	}
	defer shutdown(rig.k)
	body := make([]byte, 32)
	call := func() error {
		_, err := rig.th.Call(rig.rpc, &mach.Message{Body: body}, mach.CallOpts{})
		return err
	}
	ns, err := timeCalls(call)
	if err != nil {
		return err
	}
	m0, c0 := readMem(), rig.k.CPU.Counters()
	for i := 0; i < probeCalls; i++ {
		if err := call(); err != nil {
			return err
		}
	}
	m1, c1 := readMem(), rig.k.CPU.Counters()
	for i := 0; i < probeWarm; i++ {
		rig.th.Self()
	}
	t0 := rig.k.CPU.Counters()
	for i := 0; i < probeCalls; i++ {
		rig.th.Self()
	}
	t1 := rig.k.CPU.Counters()
	put("mach.null_call_host_ns_p50", ns, probeCalls)
	put("mach.null_call_model_cycles", float64(c1.Sub(c0).Cycles)/probeCalls, probeCalls)
	put("mach.null_call_allocs", float64(m1.mallocs-m0.mallocs)/probeCalls, probeCalls)
	put("mach.trap_model_cycles", float64(t1.Sub(t0).Cycles)/probeCalls, probeCalls)

	// The classic path last: its server thread's charges overlap the
	// client's, so it must not exist while the numbers above are taken.
	port, err := rig.srv.AllocatePort()
	if err != nil {
		return err
	}
	if _, err := rig.srv.Spawn("classic", func(th *mach.Thread) { th.MachServe(port, echo) }); err != nil {
		return err
	}
	dest, err := rig.cli.InsertRight(rig.srv, port, mach.DispMakeSend)
	if err != nil {
		return err
	}
	reply, err := rig.cli.AllocatePort()
	if err != nil {
		return err
	}
	classic := func() error {
		_, err := rig.th.MachRPC(dest, &mach.Message{Body: body}, reply)
		return err
	}
	for i := 0; i < probeWarm; i++ {
		if err := classic(); err != nil {
			return err
		}
	}
	q0 := rig.k.CPU.Counters()
	for i := 0; i < probeCalls; i++ {
		if err := classic(); err != nil {
			return err
		}
	}
	put("mach.classic_call_model_cycles", float64(rig.k.CPU.Counters().Sub(q0).Cycles)/probeCalls, probeCalls)
	return nil
}

// probeCPU times the cost model itself: Exec over a few regions that
// compete for the I-cache, as kernel paths do.
func probeCPU(put func(string, float64, int)) error {
	eng := cpu.NewEngine(cpu.Pentium133())
	layout := cpu.NewLayout(0x400000)
	regions := []cpu.Region{
		layout.PlaceInstr("probe_a", 120), layout.PlaceInstr("probe_b", 400),
		layout.PlaceInstr("probe_c", 1200), layout.PlaceInstr("probe_d", 3000),
	}
	const rounds = 20000
	for _, r := range regions {
		eng.Exec(r)
	}
	base := eng.Counters()
	start := time.Now()
	for i := 0; i < rounds; i++ {
		eng.Exec(regions[i%len(regions)])
	}
	ns := float64(time.Since(start).Nanoseconds())
	instr := float64(eng.Counters().Sub(base).Instructions)
	put("cpu.exec_host_ns_per_kinstr", ns/(instr/1000), rounds)
	return nil
}

// probeVFS reads one page through vfs.Client from a memory file system:
// the file server's protocol and dispatch without a device below it.
func probeVFS(put func(string, float64, int)) error {
	k := mach.New(cpu.Pentium133())
	defer shutdown(k)
	srv, err := vfs.NewServer(k, 1)
	if err != nil {
		return err
	}
	if err := srv.Mount("/", vfs.NewMemFS()); err != nil {
		return err
	}
	th, err := k.NewTask("probe").NewBoundThread("main")
	if err != nil {
		return err
	}
	c, err := srv.NewClient(th, vfs.ProfileOS2)
	if err != nil {
		return err
	}
	f, err := c.Open("/PROBE.DAT", true, true)
	if err != nil {
		return err
	}
	buf := make([]byte, page)
	if _, err := f.WriteAt(buf, 0); err != nil {
		return err
	}
	ns, err := timeCalls(func() error { _, err := f.ReadAt(buf, 0); return err })
	if err != nil {
		return err
	}
	put("vfs.call_host_us_p50", ns/1e3, probeCalls)
	return f.Close()
}

// probeBcache times the buffer cache's hit path over a RAM disk.
func probeBcache(put func(string, float64, int)) error {
	eng := cpu.NewEngine(cpu.Pentium133())
	c := bcache.New(eng, cpu.NewLayout(0x400000), vfs.NewRAMDisk(1024), bcache.Config{CapacitySectors: 256})
	buf := make([]byte, sector)
	if err := c.ReadSectors(7, buf); err != nil {
		return err
	}
	ns, err := timeCalls(func() error { return c.ReadSectors(7, buf) })
	if err != nil {
		return err
	}
	put("bcache.call_host_ns_p50", ns, probeCalls)
	return nil
}

// probeDriver reads 8 sectors through the user-level block driver: one
// crossing, the driver task, the disk and the reflected interrupt.
func probeDriver(put func(string, float64, int)) error {
	k := mach.New(cpu.Pentium133())
	defer shutdown(k)
	layout := k.Layout()
	intr := iosys.NewInterruptController(k.CPU, layout, 32)
	dma := iosys.NewDMAController(k.CPU, layout, 4)
	disk, err := drivers.NewDisk(k.CPU, dma, intr, 14, 4096)
	if err != nil {
		return err
	}
	var d drivers.BlockDriver
	if d, err = drivers.NewUserBlockDriver(k, layout, disk, iosys.NewHRM(k.CPU, layout), intr, 1); err != nil {
		return err
	}
	th, err := k.NewTask("probe").NewBoundThread("main")
	if err != nil {
		return err
	}
	ns, err := timeCalls(func() error { _, err := d.ReadSectors(th, 64, 8); return err })
	if err != nil {
		return err
	}
	put("drivers.call_host_us_p50", ns/1e3, probeCalls)
	return nil
}

// probeBoot boots the paper profile a few times.
func probeBoot(put func(string, float64, int)) error {
	const boots = 5
	var ms, allocs []float64
	var cycles uint64
	for i := 0; i < boots; i++ {
		m0 := readMem()
		start := time.Now()
		s, err := core.Boot(paperProfile())
		if err != nil {
			return err
		}
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
		allocs = append(allocs, float64(readMem().mallocs-m0.mallocs))
		cycles = s.Kernel.CPU.Counters().Cycles
		shutdown(s.Kernel)
	}
	put("core.boot_host_ms_p50", median(ms), boots)
	put("core.boot_allocs", median(allocs), boots)
	put("core.boot_model_cycles", float64(cycles), boots)
	return nil
}
