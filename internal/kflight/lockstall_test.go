package kflight_test

import (
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hpfs"
	"repro/internal/kflight"
	"repro/internal/mach"
	"repro/internal/vfs"
)

// stallDev is a RAM disk that, once stalled, sends every read to a
// driver port whose server never answers — the device call that does not
// return.  It names the request it works for on its own thread, as the
// drivers' SectorDev does.
type stallDev struct {
	*vfs.RAMDisk
	th      *mach.Thread
	drv     mach.PortName
	stalled atomic.Bool
}

func (d *stallDev) Begin(req *mach.Message) { d.th.ActFor(req) }
func (d *stallDev) End()                    { d.th.ActFor(nil) }

func (d *stallDev) ReadSectors(sector uint64, buf []byte) error {
	if !d.stalled.Load() {
		return d.RAMDisk.ReadSectors(sector, buf)
	}
	if _, err := d.th.Call(d.drv, &mach.Message{ID: 0x0D01}, mach.CallOpts{}); err != nil {
		return err
	}
	return vfs.ErrIO
}

// TestLockStallNamedInDump: one file-server request holds a volume's
// kernel lock across a device call that never returns, and a second
// request on the same volume waits for the lock.  The flight dump
// carries both halves of the hang: the waiter's lock
// edge (waiter → volume lock → holding thread) and the reply edge of the
// device call the holder's request is stuck in.  The lock wait inside
// one task is not reported as a deadlock cycle.  The dump survives the
// JSON round trip `kobs flight -read` takes and renders both edges.
func TestLockStallNamedInDump(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ServerPool = 2 // two file-server slots: the second request gets to the lock
	sys, err := core.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := sys.Kernel
	files := sys.Files.Task()

	// The driver that never answers, until the test ends.
	drv := k.NewTask("stuckdrv")
	drvPort, err := drv.AllocatePort()
	if err != nil {
		t.Fatal(err)
	}
	unstick := make(chan struct{})
	if _, err := drv.ServePool("disk", drvPort, 1, func(*mach.Message) *mach.Message {
		<-unstick
		return &mach.Message{}
	}); err != nil {
		t.Fatal(err)
	}
	send, err := files.InsertRight(drv, drvPort, mach.DispMakeSend)
	if err != nil {
		t.Fatal(err)
	}
	th, err := files.NewBoundThread("stuckio")
	if err != nil {
		t.Fatal(err)
	}
	dev := &stallDev{RAMDisk: vfs.NewRAMDisk(2048), th: th, drv: send}
	if err := hpfs.Format(dev); err != nil {
		t.Fatal(err)
	}
	if err := sys.Files.MountVolume("/stuck", hpfs.New(), dev); err != nil {
		t.Fatal(err)
	}
	dev.stalled.Store(true)

	app := k.NewTask("app")
	var clients sync.WaitGroup
	t.Cleanup(func() {
		close(unstick)
		clients.Wait()
		app.Terminate()
		drv.Terminate()
	})
	for _, path := range []string{"/stuck/HOLDER", "/stuck/WAITER"} {
		cth, err := app.NewBoundThread("main")
		if err != nil {
			t.Fatal(err)
		}
		cl, err := sys.Files.NewClient(cth, vfs.ProfileOS2)
		if err != nil {
			t.Fatal(err)
		}
		clients.Add(1)
		go func() {
			defer clients.Done()
			cl.Stat(path)
		}()
		// Wait for this request's stall before sending the next, so the
		// first is the holder.
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
			lock, reply := stallEdges(k.WaitEdges())
			if reply != nil && (path == "/stuck/HOLDER" || lock != nil) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never stalled; edges: %v", path, k.WaitEdges())
			}
		}
	}

	js, err := json.Marshal(k.FlightDump("a request stuck holding a volume"))
	if err != nil {
		t.Fatal(err)
	}
	read := new(kflight.Dump)
	if err := json.Unmarshal(js, read); err != nil {
		t.Fatal(err)
	}

	lock, reply := stallEdges(read.Waits)
	if lock == nil || reply == nil {
		t.Fatalf("dump lacks the lock edge or the stuck device call's reply edge: %v", read.Waits)
	}
	if lock.Task != "fileserver" || lock.OwnerTask != "fileserver" || lock.Holder == "" || lock.HolderID == lock.ThreadID {
		t.Fatalf("lock edge = %+v, want a file-server slot waiting for another", *lock)
	}
	if len(read.Cycles) != 0 {
		t.Fatalf("a lock wait inside the file server reported as a deadlock: %v", read.Cycles)
	}
	var txt strings.Builder
	if err := read.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"BLOCKED fileserver/" + lock.Thread + " --lock--> volume:/stuck held by fileserver/" + lock.Holder,
		"BLOCKED fileserver/stuckio --reply--> port ",
		" [stuckdrv]",
	} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("rendered dump lacks %q:\n%s", want, txt.String())
		}
	}
}

// stallEdges picks the wait on volume:/stuck's lock and the reply wait
// of the call to the stuck driver out of a wait-for graph.
func stallEdges(es []kflight.WaitEdge) (lock, reply *kflight.WaitEdge) {
	for i := range es {
		switch e := &es[i]; {
		case e.Kind == kflight.WaitKernelLock && e.Lock == "volume:/stuck":
			lock = e
		case e.Kind == kflight.WaitReply && e.OwnerTask == "stuckdrv":
			reply = e
		}
	}
	return lock, reply
}
