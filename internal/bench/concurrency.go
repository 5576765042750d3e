package bench

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/cpu"
	"repro/internal/ktrace"
	"repro/internal/mach"
	"repro/internal/vfs"
)

// Experiment E-POOL: multi-threaded server pools over port sets.
//
// The paper's Release 2 work made the servers multi-threaded so that a
// single personality server could field requests from many clients at
// once.  The simulation runs on one host CPU and a single modeled cycle
// engine, so raw wall-clock throughput of the concurrent phase says
// nothing about SMP scaling; instead the experiment is split:
//
//  1. a SERIAL calibration run, traced with ktrace, decomposes one
//     file-server operation into the client+kernel segment c (stubs,
//     traps, copies, address-space switches, resume) and the
//     server-occupancy segment h (handler plus reply delivery, measured
//     from the EvRPCServe spans that both Serve and ServerPool emit
//     around exactly that segment);
//  2. the modeled throughput of C clients against a pool of P server
//     threads follows the closed-system bottleneck bound
//         X(C,P) = min(C/(c+h), P/h) cycles^-1
//     — with one server thread the server is the bottleneck as soon as
//     C > (c+h)/h; with P threads the knee moves out by a factor of P;
//  3. a REAL concurrent phase (C goroutine clients hammering the pooled
//     server) exercises the liveness and safety of the pool under the
//     race detector and reports how the requests spread across workers.
//
// The serial cycles-per-op number doubles as the single-client latency
// gate: growing the pool must not change it.

// concHz is the modeled clock of the Pentium 133 engine every experiment
// boots (see cpu.Pentium133 and the 133 MHz ktime clock), used to express
// the modeled bound in operations per second.
const concHz = 133e6

// concOpBytes is the payload of the measured operation: a 4 KiB ReadAt,
// the file-server op whose reply copy makes the server segment dominant —
// the case pools exist for.
const concOpBytes = 4096

// concCalOps is the number of serial operations averaged during
// calibration.
const concCalOps = 64

// ConcurrencyResult is one cell of the E-POOL sweep.
type ConcurrencyResult struct {
	Clients int
	Pool    int

	// CyclesPerOp is the serial single-client round trip c+h; it must be
	// independent of Pool (single-client latency is not taxed).
	CyclesPerOp float64
	// ServerCycles is h, the server-occupancy segment per op, calibrated
	// from the EvRPCServe spans of the serial run.  ClientCycles is c.
	ServerCycles float64
	ClientCycles float64

	// ModeledOpsPerSec is the bottleneck bound min(C/(c+h), P/h)*Hz.
	ModeledOpsPerSec float64

	// RealOps counts operations completed by the real concurrent phase;
	// WorkerOps is the per-worker distribution across the file pool
	// (nil for pool<=1, where dedicated per-file threads serve).
	RealOps   uint64
	WorkerOps []uint64
}

func (r ConcurrencyResult) String() string {
	return fmt.Sprintf("clients=%d pool=%d serial=%.0fcy/op (server %.0f, client %.0f) modeled=%.0f ops/s",
		r.Clients, r.Pool, r.CyclesPerOp, r.ServerCycles, r.ClientCycles, r.ModeledOpsPerSec)
}

// ConcurrentClients runs E-POOL for one (clients, pool) cell with
// opsPerClient operations per client in the real concurrent phase.
func ConcurrentClients(clients, pool, opsPerClient int) (ConcurrencyResult, error) {
	res := ConcurrencyResult{Clients: clients, Pool: pool}
	if clients < 1 || pool < 1 || opsPerClient < 1 {
		return res, fmt.Errorf("bench: bad E-POOL cell clients=%d pool=%d ops=%d", clients, pool, opsPerClient)
	}

	k := mach.New(cpu.Pentium133())
	srv, err := vfs.NewServer(k, pool)
	if err != nil {
		return res, err
	}
	if err := srv.Mount("/", vfs.NewMemFS()); err != nil {
		return res, err
	}

	// --- Serial calibration ------------------------------------------------
	cal := k.NewTask("cal")
	calTh, err := cal.NewBoundThread("main")
	if err != nil {
		return res, err
	}
	calCl, err := srv.NewClient(calTh, vfs.ProfileOS2)
	if err != nil {
		return res, err
	}
	f, err := calCl.Open("/cal.dat", true, true)
	if err != nil {
		return res, err
	}
	payload := make([]byte, concOpBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := f.WriteAt(payload, 0); err != nil {
		return res, err
	}
	buf := make([]byte, concOpBytes)
	// Warm the path once untraced so calibration sees the steady state.
	if _, err := f.ReadAt(buf, 0); err != nil {
		return res, err
	}

	tr := ktrace.AttachSized(k.CPU, 1<<15)
	start := k.CPU.Counters().Cycles
	for i := 0; i < concCalOps; i++ {
		if _, err := f.ReadAt(buf, 0); err != nil {
			ktrace.Detach(k.CPU)
			return res, err
		}
	}
	total := k.CPU.Counters().Cycles - start
	events := tr.Events()
	dropped := tr.Dropped()
	ktrace.Detach(k.CPU)
	if dropped != 0 {
		return res, fmt.Errorf("bench: E-POOL calibration trace dropped %d events", dropped)
	}

	var serverCycles uint64
	spans := 0
	for _, sc := range ktrace.BuildSpans(events) {
		if sc.Type == cpu.EvRPCServe && strings.HasPrefix(sc.Name, "serve:fileserver") {
			serverCycles += sc.InclCycles
			spans++
		}
	}
	if spans < concCalOps {
		return res, fmt.Errorf("bench: E-POOL calibration saw %d serve spans for %d ops", spans, concCalOps)
	}
	res.CyclesPerOp = float64(total) / concCalOps
	res.ServerCycles = float64(serverCycles) / float64(spans)
	res.ClientCycles = res.CyclesPerOp - res.ServerCycles
	if res.ClientCycles < 0 {
		res.ClientCycles = 0
	}
	if err := f.Close(); err != nil {
		return res, err
	}

	// --- Modeled throughput ------------------------------------------------
	// Closed-system bottleneck bound: each of the C clients cycles through
	// c+h of work per op, of which h occupies one of the P server threads.
	demand := res.CyclesPerOp
	perServer := res.ServerCycles / float64(pool)
	bottleneck := demand / float64(clients)
	if perServer > bottleneck {
		bottleneck = perServer
	}
	res.ModeledOpsPerSec = concHz / bottleneck

	// --- Real concurrent phase --------------------------------------------
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := k.NewTask(fmt.Sprintf("client%d", c))
			defer task.Terminate()
			th, err := task.NewBoundThread("main")
			if err != nil {
				errs <- err
				return
			}
			cl, err := srv.NewClient(th, vfs.ProfileOS2)
			if err != nil {
				errs <- err
				return
			}
			cf, err := cl.Open(fmt.Sprintf("/c%d.dat", c), true, true)
			if err != nil {
				errs <- err
				return
			}
			defer cf.Close()
			if _, err := cf.WriteAt(payload, 0); err != nil {
				errs <- err
				return
			}
			b := make([]byte, concOpBytes)
			for i := 0; i < opsPerClient; i++ {
				if _, err := cf.ReadAt(b, 0); err != nil {
					errs <- fmt.Errorf("client %d op %d: %w", c, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return res, err
	}
	res.RealOps = uint64(clients * opsPerClient)
	if fp := srv.FilePool(); fp != nil {
		res.WorkerOps = fp.WorkerOps()
	}
	return res, nil
}
