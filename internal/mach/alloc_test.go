package mach_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mach"
)

// crossingRig is one client thread holding send rights to a server task
// on kernel k: the fixture of the allocation budget below.  send is the
// first of sends.
type crossingRig struct {
	th    *mach.Thread
	send  mach.PortName
	sends []mach.PortName
}

// newCrossingRig builds a server task on k with ports receive rights,
// served by serve, plus a client thread with a send right to each.
func newCrossingRig(t testing.TB, k *mach.Kernel, ports int, serve func(srv *mach.Task, recvs []mach.PortName) error) crossingRig {
	t.Helper()
	srv := k.NewTask("echo")
	t.Cleanup(srv.Terminate)
	recvs := make([]mach.PortName, ports)
	for i := range recvs {
		recv, err := srv.AllocatePort()
		if err != nil {
			t.Fatal(err)
		}
		recvs[i] = recv
	}
	if err := serve(srv, recvs); err != nil {
		t.Fatal(err)
	}
	cli := k.NewTask("client")
	t.Cleanup(cli.Terminate)
	sends := make([]mach.PortName, ports)
	for i, recv := range recvs {
		send, err := cli.InsertRight(srv, recv, mach.DispMakeSend)
		if err != nil {
			t.Fatal(err)
		}
		sends[i] = send
	}
	th, err := cli.NewBoundThread("main")
	if err != nil {
		t.Fatal(err)
	}
	return crossingRig{th: th, send: sends[0], sends: sends}
}

// bareKernel is a kernel with no observation plane attached.
func bareKernel(testing.TB) *mach.Kernel { return mach.New(cpu.Pentium133()) }

// bootedKernel is a default boot's kernel, which carries the planes
// core.Boot attaches (kstat, kflight, klat).
func bootedKernel(t testing.TB) *mach.Kernel {
	s, err := core.Boot(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, task := range s.Kernel.Tasks() {
			task.Terminate()
		}
	})
	return s.Kernel
}

// echoServe serves recvs[0] with a thread that answers every request
// with reply.
func echoServe(reply *mach.Message) func(*mach.Task, []mach.PortName) error {
	return func(srv *mach.Task, recvs []mach.PortName) error {
		_, err := srv.Spawn("loop", func(th *mach.Thread) {
			th.Serve(recvs[0], func(*mach.Message) *mach.Message { return reply })
		})
		return err
	}
}

// TestCrossingAllocs pins the host allocation budget of one RPC crossing:
// the per-call state lives in the calling thread and in the server slot
// the call takes, so a null Call allocates nothing on any serve shape; a region Call allocates nothing in mach; a vectored
// call allocates only the reply slice CallV returns.  On a default boot
// the one allocation left is the observation record of the call, which
// holds its latency hop.  Every handler here returns a reply built once,
// so what is counted is the kernel's own.
func TestCrossingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	reply := &mach.Message{ID: 1}
	serve := echoServe(reply)
	servePool := func(srv *mach.Task, recvs []mach.PortName) error {
		_, err := srv.ServePool("pool", recvs[0], 2, func(*mach.Message) *mach.Message { return reply })
		return err
	}
	serveSet := func(srv *mach.Task, recvs []mach.PortName) error {
		ps, err := srv.AllocatePortSet()
		if err != nil {
			return err
		}
		for _, recv := range recvs {
			if err := ps.AddMember(recv); err != nil {
				return err
			}
		}
		_, err = srv.ServeSetPool("set", ps, 2, func(mach.PortName, *mach.Message) *mach.Message { return reply })
		return err
	}
	null := &mach.Message{ID: 1}
	region := make([]byte, 64<<10)
	regionReq := &mach.Message{ID: 2, Regions: []mach.RegionDesc{{Len: uint64(len(region)), Data: region}}}
	batch := make([]*mach.Message, 8)
	for i := range batch {
		batch[i] = &mach.Message{ID: mach.MsgID(0x80 + i), Body: make([]byte, 32)}
	}
	call := func(req *mach.Message) func(*testing.T, crossingRig) {
		return func(t *testing.T, r crossingRig) {
			if _, err := r.th.Call(r.send, req, mach.CallOpts{}); err != nil {
				t.Fatal(err)
			}
		}
	}

	cases := []struct {
		name   string
		kernel func(testing.TB) *mach.Kernel
		ports  int
		serve  func(*mach.Task, []mach.PortName) error
		op     func(*testing.T, crossingRig)
		max    float64
		exact  bool
	}{
		{"Serve null Call", bareKernel, 1, serve, call(null), 0, true},
		{"ServePool null Call", bareKernel, 1, servePool, call(null), 0, true},
		{"ServeSetPool null Call", bareKernel, 1, serveSet, call(null), 0, true},
		// A file server's traffic: a port per open file and several
		// operations per client thread.  Each call re-aims the thread's
		// one pair of wait records, whatever port and operation it names.
		{"many ports and ops", bareKernel, 16, serveSet, func(t *testing.T, r crossingRig) {
			for i, send := range r.sends {
				if _, err := r.th.Call(send, &mach.Message{ID: mach.MsgID(0x100 + i%5)}, mach.CallOpts{}); err != nil {
					t.Fatal(err)
				}
			}
		}, 0, true},
		// Call keeps no reference to its request, so a literal passed
		// straight in stays on the caller's stack.
		{"literal null Call", bareKernel, 1, serve, func(t *testing.T, r crossingRig) {
			if _, err := r.th.Call(r.send, &mach.Message{ID: 1}, mach.CallOpts{}); err != nil {
				t.Fatal(err)
			}
		}, 0, true},
		{"region Call", bareKernel, 1, serve, call(regionReq), 0, true},
		{"8-wide CallV", bareKernel, 1, serve, func(t *testing.T, r crossingRig) {
			if _, err := r.th.CallV(r.send, batch, mach.CallOpts{}); err != nil {
				t.Fatal(err)
			}
		}, 1, false},
		{"Self", bareKernel, 1, serve, func(_ *testing.T, r crossingRig) { r.th.Self() }, 0, true},
		// core.Boot attaches kstat, kflight and klat: the call's record,
		// allocated with its hop, is the one allocation the crossing keeps.
		{"default-boot null Call", bootedKernel, 1, serve, call(null), 1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newCrossingRig(t, c.kernel(t), c.ports, c.serve)
			// Warm up past every amortized growth: the flight ring fills
			// (512 records per engine), the latency families mint their
			// exemplar reservoirs.
			for i := 0; i < 1000; i++ {
				c.op(t, r)
			}
			got := testing.AllocsPerRun(200, func() { c.op(t, r) })
			if got > c.max || c.exact && got != c.max {
				t.Errorf("%.2f allocations per call, budget %v", got, c.max)
			}
		})
	}
}

// BenchmarkCrossing is the host cost of one null Call, on a bare kernel
// and on a default boot, in one process.  The host's speed can change
// between runs, so the number to read is booted's booted/bare metric: the
// observation planes' cost as a multiple of the crossing's own.
func BenchmarkCrossing(b *testing.B) {
	var bareNs float64
	for _, c := range []struct {
		name   string
		kernel func(testing.TB) *mach.Kernel
	}{{"bare", bareKernel}, {"booted", bootedKernel}} {
		b.Run(c.name, func(b *testing.B) {
			r := newCrossingRig(b, c.kernel(b), 1, echoServe(&mach.Message{ID: 1}))
			req := &mach.Message{ID: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.th.Call(r.send, req, mach.CallOpts{}); err != nil {
					b.Fatal(err)
				}
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if c.name == "bare" {
				bareNs = ns
			} else if bareNs > 0 {
				b.ReportMetric(ns/bareNs, "booted/bare")
			}
		})
	}
}
