package vfs_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bcache"
	"repro/internal/cpu"
	"repro/internal/drivers"
	"repro/internal/fat"
	"repro/internal/iosys"
	"repro/internal/klat"
	"repro/internal/mach"
	"repro/internal/vfs"
)

// turnSpy sits where core.Boot puts the boot device — a SectorDev over
// the user-level driver — and records what happened under each turn:
// which request held it (the hop ID, written inside the turn) and how
// many driver requests were issued meanwhile (counted by the BlockDriver
// wrapper below, on the goroutine that holds the turn).
type turnSpy struct {
	*drivers.SectorDev
	holder uint64 // hop ID of the request holding the turn, 0 outside one

	mu      sync.Mutex
	perHop  map[uint64]int
	unnamed int
	issued  int
	onIssue func(n int) // called with the running request count, turn held
}

func (s *turnSpy) Begin(req *mach.Message) {
	s.SectorDev.Begin(req)
	s.holder = req.Hop().ID
}

func (s *turnSpy) End() {
	s.holder = 0
	s.SectorDev.End()
}

// countingDriver counts the requests the file server issues to the driver
// against the turn they were issued under.
type countingDriver struct {
	drivers.BlockDriver
	spy *turnSpy
}

func (d *countingDriver) count() {
	s := d.spy
	s.mu.Lock()
	if s.holder == 0 {
		s.unnamed++
	} else {
		s.perHop[s.holder]++
	}
	s.issued++
	n := s.issued
	s.mu.Unlock()
	if s.onIssue != nil {
		s.onIssue(n)
	}
}

func (d *countingDriver) ReadSectors(caller *mach.Thread, sector uint64, count int) ([]byte, error) {
	d.count()
	return d.BlockDriver.ReadSectors(caller, sector, count)
}

func (d *countingDriver) WriteSectors(caller *mach.Thread, sector uint64, data []byte) error {
	d.count()
	return d.BlockDriver.WriteSectors(caller, sector, data)
}

// TestRequestContextExact gates the request context from file-server
// handler to driver stub: a pool-of-4 file server on a FAT volume over
// the user-level block driver, cache off and cache on, four clients
// working four files at once.  Every blockdrv hop in the ledger is
// somebody's child — never a root — and each retained file-server ledger
// has exactly as many driver hops under it as driver requests were issued
// while that request held the device's turn.  Part way through, every
// pool worker is killed from inside a handler that holds the turn (so the
// one running it dies mid-handler, whichever it is): the turn must come
// back, or the run never finishes.  Run under -race in tier 2.
func TestRequestContextExact(t *testing.T) {
	for _, cacheSectors := range []int{0, 64} {
		t.Run(fmt.Sprintf("cache=%d", cacheSectors), func(t *testing.T) {
			k := mach.New(cpu.Pentium133())
			layout := k.Layout()
			intr := iosys.NewInterruptController(k.CPU, layout, 32)
			dma := iosys.NewDMAController(k.CPU, layout, 4)
			disk, err := drivers.NewDisk(k.CPU, dma, intr, 14, 16384)
			if err != nil {
				t.Fatal(err)
			}
			ub, err := drivers.NewUserBlockDriver(k, layout, disk, iosys.NewHRM(k.CPU, layout), intr, 4)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := vfs.NewServer(k, 4)
			if err != nil {
				t.Fatal(err)
			}
			if cacheSectors > 0 {
				srv.SetDevCache(func(dev vfs.BlockDev) vfs.CachedDev {
					return bcache.New(k.CPU, layout, dev, bcache.Config{CapacitySectors: cacheSectors})
				})
			}
			diskTh, err := srv.Task().NewBoundThread("diskio")
			if err != nil {
				t.Fatal(err)
			}
			spy := &turnSpy{perHop: make(map[uint64]int)}
			spy.SectorDev = drivers.NewSectorDev(&countingDriver{ub, spy}, diskTh, disk.Sectors())
			if err := fat.Format(spy); err != nil {
				t.Fatal(err)
			}
			if err := srv.MountVolume("/", fat.New(), spy); err != nil {
				t.Fatal(err)
			}
			// Boot drove the device with no request named; the ledger
			// starts now, when everything that reaches it is served.
			bootIssued := spy.issued
			lt := klat.Attach(k.CPU)
			defer klat.Detach(k.CPU)
			var kill sync.Once
			killed := 0
			spy.onIssue = func(n int) {
				if n < bootIssued+40 {
					return
				}
				kill.Do(func() {
					for _, pool := range []*mach.ServerPool{srv.ControlPool(), srv.FilePool()} {
						for i := 0; i < pool.Size(); i++ {
							if pool.KillWorker(i) {
								killed++
							}
							if err := pool.RespawnWorker(i); err != nil {
								t.Errorf("respawn: %v", err)
							}
						}
					}
				})
			}

			const clients, rounds = 4, 6
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					app := k.NewTask(fmt.Sprintf("app%d", c))
					defer app.Terminate()
					th, _ := app.NewBoundThread("main")
					cl, err := srv.NewClient(th, vfs.ProfileOS2)
					if err != nil {
						t.Error(err)
						return
					}
					payload := bytes.Repeat([]byte{byte('a' + c)}, 3000)
					for r := 0; r < rounds; r++ {
						f, err := cl.Open(fmt.Sprintf("/C%dR%d.DAT", c, r), true, true)
						if err != nil {
							t.Errorf("client %d open: %v", c, err)
							return
						}
						got := make([]byte, len(payload))
						if _, err := f.WriteAt(payload, 0); err != nil {
							t.Errorf("client %d write: %v", c, err)
						} else if n, err := f.ReadAt(got, 0); err != nil || n != len(got) || !bytes.Equal(got, payload) {
							t.Errorf("client %d read back n=%d err=%v", c, n, err)
						} else if _, err := cl.Stat(fmt.Sprintf("/C%dR%d.DAT", c, r)); err != nil {
							t.Errorf("client %d stat: %v", c, err)
						}
						if err := f.Close(); err != nil {
							t.Errorf("client %d close: %v", c, err)
						}
					}
				}(c)
			}
			wg.Wait()

			if killed != 8 {
				t.Fatalf("killed %d pool workers from inside a handler, want all 8", killed)
			}
			if spy.unnamed != bootIssued {
				t.Fatalf("%d driver requests were issued outside any request's turn while serving", spy.unnamed-bootIssued)
			}
			var driverHops uint64
			checked := 0
			for _, f := range lt.Dump().Families {
				switch f.Server {
				case "blockdrv":
					driverHops += f.E2E.Count
					if len(f.Exemplars) != 0 {
						t.Fatalf("blockdrv/%#x: %d driver hops are roots, not children of the request they were made for", f.Op, len(f.Exemplars))
					}
				case "fileserver":
					for _, ex := range f.Exemplars {
						checked++
						for _, c := range ex.Children {
							if c.Server != "blockdrv" || len(c.Children) != 0 {
								t.Fatalf("fileserver/%#x #%d: child %+v, want leaf driver hops only", f.Op, ex.ID, c)
							}
						}
						if got, want := len(ex.Children), spy.perHop[ex.ID]; got != want {
							t.Fatalf("fileserver/%#x #%d: %d driver hops under it, %d driver requests issued while it held the turn", f.Op, ex.ID, got, want)
						}
					}
				}
			}
			if want := uint64(spy.issued - bootIssued); driverHops != want || want == 0 {
				t.Fatalf("%d blockdrv hops recorded, %d driver requests issued", driverHops, want)
			}
			if checked == 0 {
				t.Fatal("no file-server ledgers retained")
			}
		})
	}
}
