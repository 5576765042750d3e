package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kstat"
	"repro/internal/mach"
)

// xferRig boots a server with the given transfer features, a pool of
// worker threads, and an attached kstat set — the crossing-count
// oracle the batching tests read.
func xferRig(t *testing.T, pool int, xf mach.Transfer) (*mach.Kernel, *Server, *Client, *kstat.Set) {
	t.Helper()
	k := mach.New(cpu.Pentium133())
	st := kstat.Attach(k.CPU)
	s, err := NewServer(k, pool)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	s.SetTransfer(xf)
	if err := s.Mount("/", NewMemFS()); err != nil {
		t.Fatalf("Mount: %v", err)
	}
	app := k.NewTask("app")
	th, err := app.NewBoundThread("main")
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.NewClient(th, ProfileOS2)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return k, s, c, st
}

// TestReadDirStatCrossings pins the batching contract in kernel
// entries: every RPC costs exactly two (the client's send trap and the
// server's reply trap), so a batched readdir+stat of N files must cost
// two RPCs — one readdir, one stat-batch carrier — while the
// per-entry fallback costs 1+N.
func TestReadDirStatCrossings(t *testing.T) {
	const nFiles = 12
	populate := func(c *Client) {
		if err := c.Mkdir("/dir"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nFiles; i++ {
			f, err := c.Open(fmt.Sprintf("/dir/f%02d", i), true, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte("x"), 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	measure := func(c *Client, st *kstat.Set) uint64 {
		base := st.Counter("mach.kernel.entries").Value()
		ents, attrs, err := c.ReadDirStat("/dir")
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != nFiles || len(attrs) != nFiles {
			t.Fatalf("ReadDirStat: %d ents, %d attrs, want %d", len(ents), len(attrs), nFiles)
		}
		for i := range ents {
			if attrs[i].Size != 1 {
				t.Fatalf("attr[%d].Size = %d, want 1", i, attrs[i].Size)
			}
		}
		return st.Counter("mach.kernel.entries").Value() - base
	}

	_, _, batched, bst := xferRig(t, 1, mach.Transfer{ZeroCopy: true, Batch: true})
	populate(batched)
	if got, want := measure(batched, bst), uint64(2*2); got != want {
		t.Errorf("batched readdir+stat of %d files = %d kernel entries, want %d (one readdir + one carrier)",
			nFiles, got, want)
	}

	_, _, plain, pst := xferRig(t, 1, mach.Transfer{})
	populate(plain)
	if got, want := measure(plain, pst), uint64(2*(1+nFiles)); got != want {
		t.Errorf("per-entry readdir+stat of %d files = %d kernel entries, want %d",
			nFiles, got, want)
	}
}

// TestStatBatchPerSlotErrors: a batch mixing hits and misses reports
// per-slot errors without failing the call.
func TestStatBatchPerSlotErrors(t *testing.T) {
	_, _, c, _ := xferRig(t, 1, mach.Transfer{ZeroCopy: true, Batch: true})
	f, err := c.Open("/real.dat", true, true)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	attrs, errs, err := c.StatBatch([]string{"/real.dat", "/ghost", "/real.dat"})
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("existing paths errored: %v %v", errs[0], errs[2])
	}
	if errs[1] == nil {
		t.Fatal("missing path did not error")
	}
	if attrs[0].Dir || attrs[2].Dir {
		t.Fatal("file misreported as directory")
	}
}

// TestBatchOpsAreOneCarrier: StatBatch, ReadV and WriteV each cross
// once, as one CallV carrier of N single-op subs — two kernel entries
// and N batched subs per op — on a single-threaded and a pooled server.
// A missing path fails its own slot only.
func TestBatchOpsAreOneCarrier(t *testing.T) {
	for _, pool := range []int{1, 4} {
		t.Run(fmt.Sprintf("pool%d", pool), func(t *testing.T) {
			_, _, c, st := xferRig(t, pool, mach.Transfer{ZeroCopy: true, Batch: true})
			f, err := c.Open("/v.dat", true, true)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt(bytes.Repeat([]byte("x"), 3*mach.PageSize), 0); err != nil {
				t.Fatal(err)
			}
			carrier := func(name string, n uint64, op func() error) {
				t.Helper()
				entries, batched := st.Counter("mach.kernel.entries"), st.Counter("mach.rpc.batched")
				e0, b0 := entries.Value(), batched.Value()
				if err := op(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := entries.Value() - e0; got != 2 {
					t.Errorf("%s: %d kernel entries, want 2 (one carrier)", name, got)
				}
				if got := batched.Value() - b0; got != n {
					t.Errorf("%s: %d batched subs, want %d", name, got, n)
				}
			}
			carrier("StatBatch", 3, func() error {
				attrs, errs, err := c.StatBatch([]string{"/v.dat", "/ghost", "/"})
				if err != nil {
					return err
				}
				if errs[0] != nil || errs[2] != nil || !errors.Is(errs[1], ErrNotFound) {
					return fmt.Errorf("slot errors %v, want nil, %v, nil", errs, ErrNotFound)
				}
				if attrs[0].Size != 3*mach.PageSize || !attrs[2].Dir {
					return fmt.Errorf("attrs %+v", attrs)
				}
				return nil
			})
			carrier("WriteV", 3, func() error {
				ns, err := f.WriteV([]VecWrite{
					{Off: 0, Data: []byte("ab")},
					{Off: int64(mach.PageSize), Data: bytes.Repeat([]byte("p"), mach.PageSize)},
					{Off: 2 * int64(mach.PageSize), Data: []byte("cde")},
				})
				if err != nil {
					return err
				}
				if len(ns) != 3 || ns[0] != 2 || ns[1] != mach.PageSize || ns[2] != 3 {
					return fmt.Errorf("counts %v", ns)
				}
				return nil
			})
			carrier("ReadV", 3, func() error {
				chunks, err := f.ReadV([]Extent{{Off: 0, Len: 3}, {Off: int64(mach.PageSize), Len: mach.PageSize}, {Off: 2 * int64(mach.PageSize), Len: 4}})
				if err != nil {
					return err
				}
				if string(chunks[0]) != "abx" || !bytes.Equal(chunks[1], bytes.Repeat([]byte("p"), mach.PageSize)) || string(chunks[2]) != "cdex" {
					return fmt.Errorf("chunks %q %d bytes %q", chunks[0], len(chunks[1]), chunks[2])
				}
				return nil
			})
		})
	}
}

// TestConcurrentRegionTransfer drives region-descriptor reads and
// writes, vectored I/O, and stat batches from several client threads
// into a pooled server at once.  The transferred pages are shared by
// reference — zero copies — so any aliasing bug between client and
// server threads is a data race this test exists to hand to -race.
func TestConcurrentRegionTransfer(t *testing.T) {
	const workers, iters = 4, 6
	k, s, _, _ := xferRig(t, workers, mach.Transfer{ZeroCopy: true, Batch: true})
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
				if _, err := f.WriteV([]VecWrite{
					{Off: int64(mach.PageSize), Data: []byte("tail0")},
					{Off: int64(mach.PageSize) + 5, Data: []byte("tail1")},
				}); err != nil {
					fail("writev: %w", err)
					return
				}
				chunks, err := f.ReadV([]Extent{{Off: 0, Len: 16}, {Off: int64(mach.PageSize), Len: 10}})
				if err != nil {
					fail("readv: %w", err)
					return
				}
				if string(chunks[1]) != "tail0tail1" {
					fail("readv returned %q", chunks[1])
					return
				}
				if _, serrs, err := c.StatBatch([]string{path, "/nope"}); err != nil {
					fail("statbatch: %w", err)
					return
				} else if serrs[0] != nil {
					fail("statbatch lost %s: %v", path, serrs[0])
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
