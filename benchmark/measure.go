package main

import (
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/cpu"
	"repro/internal/os2"
	"repro/internal/vm"
	"repro/internal/workload"
)

// opSample is one API call seen by the benchmark's wrapper.
type opSample struct {
	start  int64  // host ns since the run's epoch
	ns     int64  // host duration
	cycles uint64 // modeled duration
}

// recorder times API calls on both clocks.  Samples go into a slice
// allocated once per run, so the wrapper itself adds no allocation to
// host_allocs_per_op.
type recorder struct {
	epoch  time.Time
	clock  func() uint64 // the modeled clock calls are timed on
	ops    []opSample
	failed int
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, ops: make([]opSample, 0, 1<<16)}
}

// engineClock times calls by the engine's cycle counter: exact when one
// client runs at a time.
func engineClock(eng *cpu.Engine) func() uint64 {
	return func() uint64 { return eng.Counters().Cycles }
}

type opMark struct {
	t time.Time
	c uint64
}

func (r *recorder) begin() opMark { return opMark{time.Now(), r.clock()} }

func (r *recorder) end(m opMark, failed bool) {
	now := time.Now()
	r.ops = append(r.ops, opSample{
		start:  m.t.Sub(r.epoch).Nanoseconds(),
		ns:     now.Sub(m.t).Nanoseconds(),
		cycles: r.clock() - m.c,
	})
	if failed {
		r.failed++
	}
}

// timedProc wraps the OS/2 API surface so every call is one sample.
type timedProc struct {
	workload.OS2Process
	r *recorder
}

func (p timedProc) DosOpen(path string, write, create bool) (uint32, os2.Error) {
	m := p.r.begin()
	h, e := p.OS2Process.DosOpen(path, write, create)
	p.r.end(m, e != os2.NoError)
	return h, e
}

func (p timedProc) DosRead(h uint32, buf []byte) (int, os2.Error) {
	m := p.r.begin()
	n, e := p.OS2Process.DosRead(h, buf)
	p.r.end(m, e != os2.NoError)
	return n, e
}

func (p timedProc) DosWrite(h uint32, data []byte) (int, os2.Error) {
	m := p.r.begin()
	n, e := p.OS2Process.DosWrite(h, data)
	p.r.end(m, e != os2.NoError)
	return n, e
}

func (p timedProc) DosSetFilePtr(h uint32, pos int64) os2.Error {
	m := p.r.begin()
	e := p.OS2Process.DosSetFilePtr(h, pos)
	p.r.end(m, e != os2.NoError)
	return e
}

func (p timedProc) DosClose(h uint32) os2.Error {
	m := p.r.begin()
	e := p.OS2Process.DosClose(h)
	p.r.end(m, e != os2.NoError)
	return e
}

func (p timedProc) DosDelete(path string) os2.Error {
	m := p.r.begin()
	e := p.OS2Process.DosDelete(path)
	p.r.end(m, e != os2.NoError)
	return e
}

func (p timedProc) DosMkdir(path string) os2.Error {
	m := p.r.begin()
	e := p.OS2Process.DosMkdir(path)
	p.r.end(m, e != os2.NoError)
	return e
}

func (p timedProc) DosAllocMem(bytes uint64, commit bool) (vm.VAddr, os2.Error) {
	m := p.r.begin()
	a, e := p.OS2Process.DosAllocMem(bytes, commit)
	p.r.end(m, e != os2.NoError)
	return a, e
}

func (p timedProc) DosFreeMem(base vm.VAddr) os2.Error {
	m := p.r.begin()
	e := p.OS2Process.DosFreeMem(base)
	p.r.end(m, e != os2.NoError)
	return e
}

func (p timedProc) WinPostMsg(dst os2.PID, msg, arg uint32) os2.Error {
	m := p.r.begin()
	e := p.OS2Process.WinPostMsg(dst, msg, arg)
	p.r.end(m, e != os2.NoError)
	return e
}

func (p timedProc) WinGetMsg(wait bool) (os2.PMMsg, os2.Error) {
	m := p.r.begin()
	msg, e := p.OS2Process.WinGetMsg(wait)
	p.r.end(m, e != os2.NoError)
	return msg, e
}

func (p timedProc) GfxLibCall(instr uint64) {
	m := p.r.begin()
	p.OS2Process.GfxLibCall(instr)
	p.r.end(m, false)
}

// Host-speed calibration.  This sandbox's processors switch every few
// seconds between full speed and little more than half of it, with
// nothing to see in the guest (no steal time, the other CPU idle): code
// that keeps the core busy — copies, hashing, independent loads,
// which is what the simulator is made of — slows 1.7 to 2 times, a chain
// of dependent arithmetic hardly at all, as when the core's other
// hardware thread is taken.  A raw wall time therefore says more about
// the minute it was taken in than about the program.  Every host time the
// benchmark reports is scaled by how fast a fixed reference loop of the
// first kind ran right before and after it: calibrated time = wall time
// x refNominalNS / the loop's measured time.  The loop uses the standard
// library only, so no change to the simulator can move it.

// refNominalNS is the reference loop's duration on the host the
// benchmark was sized on, in its fast state; it only fixes the unit.
const refNominalNS = 0.94e6

var (
	refWords = make([]uint64, 1<<15) // 256 KiB: resident in L2
	refSrc   = make([]byte, 4096)
	refDst   = make([]byte, 4096)
	refTable = func() map[uint64]uint64 {
		m := make(map[uint64]uint64, 4096)
		for i := uint64(0); i < 4096; i++ {
			m[i*2654435761] = i
		}
		return m
	}()
	refSink uint64
)

// refLoop is the fixed work: page copies, a four-way sum and map
// look-ups, each a third of it.
func refLoop() time.Duration {
	start := time.Now()
	for i := 0; i < 10000; i++ {
		copy(refDst, refSrc)
		refSrc[i&4095]++
	}
	var a, b, c, d uint64
	for round := 0; round < 25; round++ {
		for i := 0; i+3 < len(refWords); i += 4 {
			a += refWords[i]
			b += refWords[i+1] ^ a
			c += refWords[i+2]
			d += refWords[i+3] ^ c
		}
	}
	for i := uint64(0); i < 40000; i++ {
		a += refTable[(i&4095)*2654435761]
	}
	refSink += a + b + c + d + uint64(refDst[0])
	return time.Since(start)
}

// hostSpeed measures the reference loop: the faster of two, since what
// interrupts a loop only ever adds to it.
func hostSpeed() float64 {
	return float64(min(refLoop(), refLoop()).Nanoseconds())
}

// calibration turns two hostSpeed readings taken around a measurement
// into the factor its wall times are multiplied by.  steady is false when
// the readings disagree by more than 15%: the host changed speed in
// between, and neither reading describes the measurement.
func calibration(before, after float64) (scale float64, steady bool) {
	mean := (before + after) / 2
	return refNominalNS / mean, max(before, after)-min(before, after) <= 0.15*mean
}

// memMark is a runtime.MemStats reading reduced to what the host
// metrics use.
type memMark struct {
	mallocs, bytes uint64
	gcs            uint32
	pauseNS        uint64
}

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs}
}

// quantile returns the q-quantile of sorted values by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// spread is the interquartile range over the median: how far a metric's
// passes disagree with each other.
func spread(v []float64) float64 {
	s := sortedCopy(v)
	if m := quantile(s, 0.5); m != 0 {
		return (quantile(s, 0.75) - quantile(s, 0.25)) / math.Abs(m)
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
