package registry

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bcache"
	"repro/internal/cpu"
	"repro/internal/hpfs"
	"repro/internal/klat"
	"repro/internal/mach"
	"repro/internal/vfs"
)

func newRig(t testing.TB, persist bool) (*mach.Kernel, *vfs.Server, *Server, *Client) {
	t.Helper()
	k := mach.New(cpu.Pentium133())
	var fsrv *vfs.Server
	var err error
	if persist {
		fsrv, err = vfs.NewServer(k, 1)
		if err != nil {
			t.Fatal(err)
		}
		fsrv.Mount("/", vfs.NewMemFS())
	}
	srv, err := NewServer(k, fsrv, "/OS2SYS.INI", 1)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	app := k.NewTask("app")
	th, err := app.NewBoundThread("main")
	if err != nil {
		t.Fatal(err)
	}
	c, err := srv.NewClient(th)
	if err != nil {
		t.Fatal(err)
	}
	return k, fsrv, srv, c
}

func TestSetGetDelete(t *testing.T) {
	_, _, _, c := newRig(t, false)
	if err := c.Set("PM_Colors", "Background", "grey"); err != nil {
		t.Fatalf("Set: %v", err)
	}
	v, err := c.Get("PM_Colors", "Background")
	if err != nil || v != "grey" {
		t.Fatalf("Get: %q %v", v, err)
	}
	// Overwrite.
	c.Set("PM_Colors", "Background", "teal")
	if v, _ := c.Get("PM_Colors", "Background"); v != "teal" {
		t.Fatalf("overwrite: %q", v)
	}
	if err := c.Delete("PM_Colors", "Background"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := c.Get("PM_Colors", "Background"); err != ErrNoApp {
		t.Fatalf("get deleted: %v", err)
	}
	if err := c.Delete("PM_Colors", "Background"); err != ErrNoApp {
		t.Fatalf("double delete: %v", err)
	}
}

func TestErrors(t *testing.T) {
	_, _, _, c := newRig(t, false)
	c.Set("App", "a", "1")
	if _, err := c.Get("App", "missing"); err != ErrNoKey {
		t.Fatalf("missing key: %v", err)
	}
	if _, err := c.Get("Nope", "a"); err != ErrNoApp {
		t.Fatalf("missing app: %v", err)
	}
	if err := c.Set("", "k", "v"); err != ErrBadName {
		t.Fatalf("empty app: %v", err)
	}
	if err := c.Set("a=b", "k", "v"); err != ErrBadName {
		t.Fatalf("equals in app: %v", err)
	}
	if err := c.Set("A", "k", strings.Repeat("x", MaxValue+1)); err != ErrTooLarge {
		t.Fatalf("huge value: %v", err)
	}
	if err := c.Set("A", "k", "line\nbreak"); err != ErrTooLarge {
		t.Fatalf("newline value: %v", err)
	}
}

func TestEnumeration(t *testing.T) {
	_, _, _, c := newRig(t, false)
	c.Set("Zebra", "z", "1")
	c.Set("Alpha", "b", "2")
	c.Set("Alpha", "a", "3")
	apps, err := c.Apps()
	if err != nil || len(apps) != 2 || apps[0] != "Alpha" || apps[1] != "Zebra" {
		t.Fatalf("Apps: %v %v", apps, err)
	}
	keys, err := c.Keys("Alpha")
	if err != nil || len(keys) != 2 || keys[0] != "a" {
		t.Fatalf("Keys: %v %v", keys, err)
	}
	if _, err := c.Keys("Nope"); err != ErrNoApp {
		t.Fatalf("keys missing app: %v", err)
	}
	if apps, _ := c.Apps(); apps == nil {
		// non-empty case covered above
		t.Fatal("unexpected nil")
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	k, fsrv, _, c := newRig(t, true)
	c.Set("PM_Fonts", "System", "Helv 8")
	c.Set("Shell", "Desktop", "C:\\DESKTOP")
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// "Restart": a second registry server instance over the same file
	// server re-loads the profile.
	srv2, err := NewServer(k, fsrv, "/OS2SYS.INI", 1)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	app := k.NewTask("app2")
	th, _ := app.NewBoundThread("main")
	c2, err := srv2.NewClient(th)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := c2.Get("PM_Fonts", "System"); err != nil || v != "Helv 8" {
		t.Fatalf("reloaded: %q %v", v, err)
	}
	if v, err := c2.Get("Shell", "Desktop"); err != nil || v != "C:\\DESKTOP" {
		t.Fatalf("reloaded 2: %q %v", v, err)
	}
}

func TestFlushWithoutPersistenceIsNoop(t *testing.T) {
	_, _, _, c := newRig(t, false)
	c.Set("A", "k", "v")
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// Property: for any set of well-formed entries, everything written reads
// back and survives a flush/reload cycle.
func TestPropertyRoundTripThroughProfile(t *testing.T) {
	k, fsrv, _, c := newRig(t, true)
	type kv struct{ app, key, val string }
	sanitize := func(s string, max int) string {
		s = strings.Map(func(r rune) rune {
			if r == '\n' || r == '=' || r == '[' || r == ']' {
				return 'x'
			}
			return r
		}, s)
		if s == "" {
			s = "d"
		}
		if len(s) > max {
			s = s[:max]
		}
		return s
	}
	f := func(raw [][3]string) bool {
		want := map[[2]string]string{}
		for i, r := range raw {
			if i >= 10 {
				break
			}
			e := kv{sanitize(r[0], 30), sanitize(r[1], 30), sanitize(r[2], 100)}
			if err := c.Set(e.app, e.key, e.val); err != nil {
				return false
			}
			want[[2]string{e.app, e.key}] = e.val
		}
		if err := c.Flush(); err != nil {
			return false
		}
		srv2, err := NewServer(k, fsrv, "/OS2SYS.INI", 1)
		if err != nil {
			return false
		}
		app := k.NewTask("check")
		th, _ := app.NewBoundThread("m")
		c2, err := srv2.NewClient(th)
		if err != nil {
			return false
		}
		for ak, v := range want {
			got, err := c2.Get(ak[0], ak[1])
			if err != nil || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestFlushNamesItsRequest: the profile-io thread calls the file server
// on behalf of whichever request is flushing, and says so — a Set that is
// then flushed shows registry → fileserver as parent and children in the
// latency ledger, and nothing the file server did for it stands alone as
// a root.  With a pool of 4 and four clients flushing at once, each flush
// still owns exactly the file operations it caused.
func TestFlushNamesItsRequest(t *testing.T) {
	k := mach.New(cpu.Pentium133())
	fsrv, err := vfs.NewServer(k, 4)
	if err != nil {
		t.Fatal(err)
	}
	fsrv.Mount("/", vfs.NewMemFS())
	srv, err := NewServer(k, fsrv, "/OS2SYS.INI", 4)
	if err != nil {
		t.Fatal(err)
	}
	// Attached after the boot-time load, which nobody asked for.
	lt := klat.Attach(k.CPU)
	defer klat.Detach(k.CPU)

	const clients = 4
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th, _ := k.NewTask("app").NewBoundThread("main")
			c, err := srv.NewClient(th)
			if err != nil {
				t.Error(err)
				return
			}
			if err := c.Set("App", fmt.Sprintf("key%d", i), "v"); err != nil {
				t.Errorf("Set: %v", err)
			}
			if err := c.Flush(); err != nil {
				t.Errorf("Flush: %v", err)
			}
		}(i)
	}
	wg.Wait()

	var fileHops, underFlush uint64
	for _, f := range lt.Dump().Families {
		switch {
		case f.Server == "fileserver":
			fileHops += f.E2E.Count
			if len(f.Exemplars) != 0 {
				t.Fatalf("fileserver/%#x: a file operation made for a flush is a root", f.Op)
			}
		case f.Op == uint32(msgFlush):
			if len(f.Exemplars) != clients {
				t.Fatalf("%d flush ledgers, want %d", len(f.Exemplars), clients)
			}
			for _, ex := range f.Exemplars {
				// open, truncate, write, close
				if len(ex.Children) != 4 {
					t.Fatalf("flush #%d has %d file operations under it, want 4: %+v", ex.ID, len(ex.Children), ex.Children)
				}
				for _, c := range ex.Children {
					if c.Server != "fileserver" {
						t.Fatalf("flush #%d: child %+v is not a file-server hop", ex.ID, c)
					}
					underFlush++
				}
			}
		case f.Op == uint32(msgSet):
			for _, ex := range f.Exemplars {
				if len(ex.Children) != 0 {
					t.Fatalf("set #%d made no calls but has children %+v", ex.ID, ex.Children)
				}
			}
		}
	}
	if fileHops != underFlush || fileHops == 0 {
		t.Fatalf("%d file-server hops recorded, %d under flushes", fileHops, underFlush)
	}
}

// TestFlushReportsWriteBehindFailure: the profile sits on a cached
// volume, so its bytes reach the device only at the file's close, and a
// device error surfaces there.  With the device failing writes, the call
// that flushes must fail, not report a profile that never reached the
// disk as saved.
func TestFlushReportsWriteBehindFailure(t *testing.T) {
	k := mach.New(cpu.Pentium133())
	fsrv, err := vfs.NewServer(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	fsrv.SetDevCache(func(dev vfs.BlockDev) vfs.CachedDev {
		return bcache.New(k.CPU, k.Layout(), dev, bcache.Config{CapacitySectors: 64})
	})
	ram := vfs.NewRAMDisk(2048)
	if err := hpfs.Format(ram); err != nil {
		t.Fatal(err)
	}
	dev := vfs.NewFaultyDev(ram)
	if err := fsrv.MountVolume("/hpfs", hpfs.New(), dev); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(k, fsrv, "/hpfs/OS2SYS.INI", 1)
	if err != nil {
		t.Fatal(err)
	}
	th, _ := k.NewTask("app").NewBoundThread("main")
	c, err := srv.NewClient(th)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("PM_Colors", "Background", "grey"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush on a healthy device: %v", err)
	}
	if err := c.Set("PM_Colors", "Background", "teal"); err != nil {
		t.Fatal(err)
	}
	dev.FailAfter(0, false, true)
	if err := c.Flush(); err == nil || !strings.Contains(err.Error(), vfs.ErrIO.Error()) {
		t.Fatalf("Flush with the device failing writes = %v, want the write-behind's %v", err, vfs.ErrIO)
	}
	dev.Heal()
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush after Heal: %v", err)
	}
}
