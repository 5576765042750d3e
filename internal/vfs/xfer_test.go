package vfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mach"
)

// TestConcurrentRegionTransfer drives region-descriptor reads and writes
// and stats from several client threads into a pooled server at once.
// The transferred pages are shared by reference — zero copies — so any
// aliasing bug between client and server threads is a data race this
// test exists to hand to -race.  (Concurrent CallV carriers over pooled
// slots are mach's TestConcurrentCarriers.)
func TestConcurrentRegionTransfer(t *testing.T) {
	const workers, iters = 4, 6
	k := mach.New(cpu.Pentium133())
	s, err := NewServer(k, workers)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	s.SetTransfer(mach.Transfer{ZeroCopy: true})
	if err := s.Mount("/", NewMemFS()); err != nil {
		t.Fatalf("Mount: %v", err)
	}
	clients := make([]*Client, workers)
	for i := range clients {
		th, err := k.NewTask(fmt.Sprintf("app%d", i)).NewBoundThread("main")
		if err != nil {
			t.Fatal(err)
		}
		if clients[i], err = s.NewClient(th, ProfileOS2); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			fail := func(f string, a ...any) { errs <- fmt.Errorf(f, a...) }
			path := fmt.Sprintf("/w%d.dat", i)
			f, err := c.Open(path, true, true)
			if err != nil {
				fail("open: %w", err)
				return
			}
			defer f.Close()
			page := bytes.Repeat([]byte{byte('A' + i)}, mach.PageSize)
			for it := 0; it < iters; it++ {
				if _, err := f.WriteAt(page, 0); err != nil {
					fail("region write: %w", err)
					return
				}
				got := make([]byte, mach.PageSize)
				if _, err := f.ReadAt(got, 0); err != nil {
					fail("region read: %w", err)
					return
				}
				if !bytes.Equal(got, page) {
					fail("worker %d read back corrupt page", i)
					return
				}
				if a, err := c.Stat(path); err != nil {
					fail("stat: %w", err)
					return
				} else if a.Size != mach.PageSize {
					fail("stat %s: size %d, want %d", path, a.Size, mach.PageSize)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
