package bench

import (
	"sync"

	"repro/internal/cpu"
	"repro/internal/mach"
)

// The three pieces every cell measures through: the kernel-only RPC rig,
// the warm-then-measure bracket and the concurrent client fan-out.

// rig is the kernel-only RPC rig behind Table 2, E-CTR, E-PROF, E-IPC and
// E-XFER: a fresh kernel, a server task serving one port and a client
// task holding a send right to it, with a bound thread.
type rig struct {
	k      *mach.Kernel
	client *mach.Task
	th     *mach.Thread
	send   mach.PortName
}

// The rig's two servers: Table 2's echoes the request's body, the
// sweeps' replies with an empty message.
func echoBody(m *mach.Message) *mach.Message { return &mach.Message{Body: m.Body} }
func sink(*mach.Message) *mach.Message       { return &mach.Message{} }

// newRig builds the rig, its server answering with reply: through the
// reworked Serve, or the classic mach_msg loop when classic.
func newRig(classic bool, reply mach.Handler) (*rig, error) {
	k := mach.New(cpu.Pentium133())
	srv := k.NewTask("server")
	recv, err := srv.AllocatePort()
	if err != nil {
		return nil, err
	}
	serve := (*mach.Thread).Serve
	if classic {
		serve = (*mach.Thread).MachServe
	}
	if _, err := srv.Spawn("loop", func(th *mach.Thread) { serve(th, recv, reply) }); err != nil {
		return nil, err
	}
	client := k.NewTask("client")
	send, err := client.InsertRight(srv, recv, mach.DispMakeSend)
	if err != nil {
		return nil, err
	}
	th, err := client.NewBoundThread("main")
	if err != nil {
		return nil, err
	}
	return &rig{k: k, client: client, th: th, send: send}, nil
}

// call makes one reworked RPC carrying m.
func (r *rig) call(m *mach.Message) error {
	_, err := r.th.Call(r.send, m, mach.CallOpts{})
	return err
}

// rpc32 is Table 2's RPC: a 32-byte request.
func (r *rig) rpc32() error { return r.call(xferMsg(32, false)) }

// trap is Table 2's trap: thread_self.
func (r *rig) trap() error { r.th.Self(); return nil }

// Table 2's loops: warming calls, then measured calls, per operation.
const table2Warm, table2N = 50, 400

// table2 measures Table 2's two loops on the rig, the RPC loop first;
// window opens over each measured loop (see bracket).
func (r *rig) table2(window func() func()) (trap, rpc cpu.Counters, err error) {
	if rpc, err = bracket(r.k.CPU, table2Warm, table2N, r.rpc32, window); err != nil {
		return trap, rpc, err
	}
	trap, err = bracket(r.k.CPU, table2Warm, table2N, r.trap, window)
	return trap, rpc, err
}

// bracket calls op warm times, then measures n more calls of it against
// eng's counters and returns the delta.  window, when set, opens just
// before the measured calls, and the close it returns runs just after
// them, on success or not: a plane attached or snapshotted over exactly
// the measured calls.  An op error in either phase is returned, with no
// delta.
func bracket(eng *cpu.Engine, warm, n int, op func() error, window func() (close func())) (cpu.Counters, error) {
	for i := 0; i < warm; i++ {
		if err := op(); err != nil {
			return cpu.Counters{}, err
		}
	}
	if window != nil {
		defer window()()
	}
	base := eng.Counters()
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return cpu.Counters{}, err
		}
	}
	return eng.Counters().Sub(base), nil
}

// Clients runs client(0), ..., client(n-1) concurrently, waits for all of
// them, and returns the first error by client index.
func Clients(n int, client func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = client(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
