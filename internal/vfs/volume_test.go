package vfs_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/drivers"
	"repro/internal/iosys"
	"repro/internal/kflight"
	"repro/internal/klat"
	"repro/internal/mach"
	"repro/internal/vfs"
)

// probeFS is a volume whose root answers a lookup of "<h|w><n>" by
// reading n sectors from its device; an "h" lookup first holds the volume
// until released.  It counts the requests inside it at once.
type probeFS struct {
	dev              vfs.BlockDev
	inside           atomic.Int32
	overlap          atomic.Bool
	holding, release chan struct{}
}

func (p *probeFS) Root() vfs.Vnode              { return probeRoot{p: p} }
func (p *probeFS) FSName() string               { return "probe" }
func (p *probeFS) Caps() vfs.Capabilities       { return vfs.Capabilities{MaxNameLen: 255} }
func (p *probeFS) Sync() error                  { return nil }
func (p *probeFS) Mount(dev vfs.BlockDev) error { p.dev = dev; return nil }
func (p *probeFS) Unmount() error               { return nil }

// probeRoot is the probe's root directory; a stat reaches only Lookup.
type probeRoot struct {
	vfs.Vnode
	p *probeFS
}

func (r probeRoot) Lookup(name string) (vfs.Vnode, error) {
	p := r.p
	if p.inside.Add(1) != 1 {
		p.overlap.Store(true)
	}
	defer p.inside.Add(-1)
	if name[0] == 'h' {
		p.holding <- struct{}{}
		<-p.release
	}
	for i := 0; i < int(name[1]-'0'); i++ {
		if err := p.dev.ReadSectors(uint64(i), make([]byte, vfs.SectorSize)); err != nil {
			return nil, err
		}
	}
	return nil, vfs.ErrNotFound
}

// TestVolumeLockTurns drives a volume the way the file server serves it —
// a pool of two handlers, each taking the volume for the request it
// serves — over a device-backed volume (a SectorDev on the user-level
// driver) and a RAM-backed one: requests take turns on the volume's
// kernel lock, a request waiting for it shows in the wait-for graph, the
// wait is marked on the waiting request's ledger under the lock's name
// and not on the one that found the lock free, and every driver call
// lands under the request that held the volume.
func TestVolumeLockTurns(t *testing.T) {
	for _, backing := range []string{"device", "ram"} {
		t.Run(backing, func(t *testing.T) {
			k := mach.New(cpu.Pentium133())
			srv, err := vfs.NewServer(k, 2)
			if err != nil {
				t.Fatal(err)
			}
			var dev vfs.BlockDev = vfs.NewRAMDisk(64)
			if backing == "device" {
				layout := k.Layout()
				intr := iosys.NewInterruptController(k.CPU, layout, 32)
				disk, err := drivers.NewDisk(k.CPU, iosys.NewDMAController(k.CPU, layout, 4), intr, 14, 64)
				if err != nil {
					t.Fatal(err)
				}
				drv, err := drivers.NewUserBlockDriver(k, layout, disk, iosys.NewHRM(k.CPU, layout), intr, 1)
				if err != nil {
					t.Fatal(err)
				}
				th, _ := srv.Task().NewBoundThread("diskio")
				dev = drivers.NewSectorDev(drv, th, disk.Sectors())
			}
			probe := &probeFS{holding: make(chan struct{}), release: make(chan struct{})}
			if err := srv.MountVolume("/", probe, dev); err != nil {
				t.Fatal(err)
			}
			lt := klat.Attach(k.CPU)
			defer klat.Detach(k.CPU)

			app := k.NewTask("app")
			defer app.Terminate()
			done := make(chan struct{})
			stat := func(path string) {
				th, _ := app.NewBoundThread("main")
				cl, err := srv.NewClient(th, vfs.ProfileOS2)
				if err == nil {
					_, err = cl.Stat(path)
				}
				if !errors.Is(err, vfs.ErrNotFound) {
					t.Errorf("stat %s: %v, want ErrNotFound", path, err)
				}
				done <- struct{}{}
			}

			// One request holds the volume while a second asks for it;
			// the clock moves 5000 cycles before the first lets go.
			const stall = 5000
			go stat("/h3")
			<-probe.holding
			go stat("/w2")
			var waiting kflight.WaitEdge
			for deadline := time.Now().Add(10 * time.Second); waiting.Lock == "" && time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
				for _, e := range k.WaitEdges() {
					if e.Kind == kflight.WaitKernelLock {
						waiting = e
					}
				}
			}
			if waiting.Lock != "volume:/" || waiting.Task != "fileserver" || waiting.OwnerTask != "fileserver" ||
				waiting.Holder == "" || waiting.Op != uint32(vfs.MsgStat) {
				t.Fatalf("waiting request's edge = %+v, want a file-server slot waiting for volume:/ held by another", waiting)
			}
			k.CPU.Stall(stall)
			probe.release <- struct{}{}
			<-done
			<-done
			if probe.overlap.Load() {
				t.Fatal("two requests were inside the volume at once")
			}

			var reads []int // driver calls under the holder, then the waiter
			marks := 0
			for _, f := range lt.Dump().Families {
				switch f.Server {
				case "blockdrv":
					if len(f.Exemplars) != 0 {
						t.Fatalf("blockdrv/%#x: a driver call made holding the volume is a root", f.Op)
					}
				case "fileserver":
					if len(f.Exemplars) != 2 {
						t.Fatalf("fileserver/%#x: %d ledgers, want the holder's and the waiter's", f.Op, len(f.Exemplars))
					}
					for _, ex := range f.Exemplars {
						waited, marked := ex.Marks["volume:/"]
						if marked && waited < stall {
							t.Fatalf("waiter marked %d cycles on the volume, want >= %d", waited, stall)
						}
						if marked {
							marks++
							reads = append(reads, len(ex.Children))
						} else {
							reads = append([]int{len(ex.Children)}, reads...)
						}
					}
				}
			}
			want := []int{3, 2}
			if backing == "ram" {
				want = []int{0, 0}
			}
			if marks != 1 || len(reads) != 2 || reads[0] != want[0] || reads[1] != want[1] {
				t.Fatalf("driver calls under (holder, waiter) = %v, want %v, and only the waiter marked", reads, want)
			}
		})
	}
}
