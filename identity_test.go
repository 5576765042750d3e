package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/klat"
	"repro/internal/mach"
	"repro/internal/workload"
)

// TestIdentityLookupsBounded gates the host-cost contract of the latency
// plane on a paper boot with everything attached as core.Boot leaves it:
// naming a goroutine costs a stack unwind, so klat may do it once per
// serving thread and once per call made from inside a handler — never
// for a client's own call, however many it makes.
func TestIdentityLookupsBounded(t *testing.T) {
	s, err := core.Boot(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if klat.For(s.Kernel.CPU) == nil {
		t.Fatal("boot did not attach klat")
	}
	lookups := s.Stats.Counter("klat.identity_lookups")

	// An echo server on the booted kernel and an OS/2 process with a file
	// open on the RAM-backed /hpfs volume: every server thread involved
	// has served once (and so named itself) before the stretch starts.
	srv, cli := s.Kernel.NewTask("echo"), s.Kernel.NewTask("echo-client")
	port, err := srv.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Spawn("rpc", func(th *mach.Thread) {
		th.Serve(port, func(m *mach.Message) *mach.Message { return &mach.Message{Body: m.Body} })
	}); err != nil {
		t.Fatal(err)
	}
	send, err := cli.InsertRight(srv, port, mach.DispMakeSend)
	if err != nil {
		t.Fatal(err)
	}
	th, err := cli.NewBoundThread("main")
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.OS2.CreateProcess("ident.exe")
	if err != nil {
		t.Fatal(err)
	}
	h, e := p.DosOpen("/hpfs/IDENT.DAT", true, true)
	if e != 0 {
		t.Fatalf("DosOpen: %v", e)
	}
	if _, e := p.DosWrite(h, make([]byte, 4096)); e != 0 {
		t.Fatalf("DosWrite: %v", e)
	}
	clientStretch := func() {
		for i := 0; i < 50; i++ {
			th.Self()
			if _, err := th.Call(send, &mach.Message{Body: make([]byte, 32)}, mach.CallOpts{}); err != nil {
				t.Fatal(err)
			}
			if e := p.DosSetFilePtr(h, 0); e != 0 {
				t.Fatalf("seek: %v", e)
			}
			if n, e := p.DosRead(h, make([]byte, 512)); e != 0 || n != 512 {
				t.Fatalf("DosRead: n=%d %v", n, e)
			}
		}
	}
	clientStretch()

	// Client-only stretch: hops are minted, bound and recorded on every
	// call, no handler calls onward (the volume is RAM), so nobody has to
	// ask who they are.
	base, calls := lookups.Value(), s.Stats.Counter("mach.rpc.calls").Value()
	clientStretch()
	if n := s.Stats.Counter("mach.rpc.calls").Value() - calls; n < 100 {
		t.Fatalf("stretch made %d calls, want >= 100", n)
	}
	if got := lookups.Value() - base; got != 0 {
		t.Fatalf("client-only stretch derived goroutine identity %d times, want 0", got)
	}
	p.DosClose(h)

	// File Intensive 1: the only calls made from inside a handler are the
	// file server's to the block driver, each of which must find its
	// parent hop; beyond those, one lookup per thread that served.
	// Thread IDs are kernel-wide and monotonic, so two marker threads
	// count the threads the run itself created (one per open file).
	driver := s.Stats.Counter("mach.rpc.to.blockdrv.calls")
	threads := 0
	for _, task := range s.Kernel.Tasks() {
		threads += task.ThreadCount()
	}
	mark0, err := cli.NewBoundThread("mark0")
	if err != nil {
		t.Fatal(err)
	}
	base, nested := lookups.Value(), driver.Value()
	res, err := workload.Run(workload.FileIntensive1, s.WorkloadEnv())
	if err != nil {
		t.Fatal(err)
	}
	nested = driver.Value() - nested
	if nested == 0 {
		t.Fatal("File Intensive 1 never reached the block driver")
	}
	mark1, err := cli.NewBoundThread("mark1")
	if err != nil {
		t.Fatal(err)
	}
	threads += int(mark1.ID() - mark0.ID())
	got := lookups.Value() - base
	t.Logf("FI1: %d cycles, %d driver calls, %d threads, %d identity lookups", res.Cycles, nested, threads, got)
	if max := nested + uint64(threads); got > max {
		t.Fatalf("FI1 derived goroutine identity %d times, want <= %d driver calls + %d threads", got, nested, threads)
	}
	if got < nested {
		t.Fatalf("FI1 made %d nested driver calls but only %d identity lookups: child hops lost their parents", nested, got)
	}
}
