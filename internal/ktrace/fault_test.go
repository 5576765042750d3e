package ktrace

import (
	"sync"
	"testing"

	"repro/internal/cpu"
)

// Fault injection: event bursts far larger than the ring must wrap cleanly
// — drop counter accounting for every overwritten event, no corruption of
// surviving entries, and span reconstruction degrading gracefully (spans
// whose begin wrapped out are discarded, never mispaired).

func TestRingOverflowSingleEmitter(t *testing.T) {
	eng := cpu.NewEngine(cpu.Pentium133())
	layout := cpu.NewLayout(0x1000)
	op := layout.PlaceInstr("op", 25)

	const ringSize = 64
	const bursts = 10 * ringSize
	tr := AttachSized(eng, ringSize)
	defer Detach(eng)

	for i := 0; i < bursts; i++ {
		sp := begin(eng, cpu.EvIPCSend, "mach.ipc", "send", nil)
		eng.Exec(op)
		sp.End()
	}

	emitted := tr.Emitted()
	if want := uint64(2 * bursts); emitted != want {
		t.Fatalf("emitted %d events, want %d", emitted, want)
	}
	if got, want := tr.Dropped(), emitted-ringSize; got != want {
		t.Errorf("dropped %d events, want %d", got, want)
	}

	events := tr.Events()
	if len(events) != ringSize {
		t.Fatalf("buffered %d events, want ring size %d", len(events), ringSize)
	}
	// Survivors must be the newest events in strict emission order.
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("ring corrupted: seq %d follows %d", events[i].Seq, events[i-1].Seq)
		}
	}
	if events[len(events)-1].Seq != emitted-1 {
		t.Errorf("newest surviving seq = %d, want %d", events[len(events)-1].Seq, emitted-1)
	}
	// Counter snapshots must be monotone across the surviving window.
	for i := 1; i < len(events); i++ {
		if events[i].Ctr.Cycles < events[i-1].Ctr.Cycles {
			t.Fatalf("counter snapshot went backwards at seq %d", events[i].Seq)
		}
	}
	// Reconstruction on a wrapped ring: no span may pair a begin and end
	// from different spans, and pair counts must be plausible.
	for _, sc := range BuildSpans(events) {
		if sc.End < sc.Begin {
			t.Fatalf("mispaired span: end cycles %d < begin %d", sc.End, sc.Begin)
		}
	}
}

func TestRingOverflowConcurrentBurst(t *testing.T) {
	eng := cpu.NewEngine(cpu.Pentium133())
	layout := cpu.NewLayout(0x1000)
	op := layout.PlaceInstr("op", 10)

	const ringSize = 128
	tr := AttachSized(eng, ringSize)
	defer Detach(eng)

	const goroutines = 6
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sp := begin(eng, cpu.EvNetOp, "netsvc", "burst", nil)
				eng.Exec(op)
				sp.End()
			}
		}()
	}
	wg.Wait()

	emitted := tr.Emitted()
	if want := uint64(2 * goroutines * perG); emitted != want {
		t.Fatalf("emitted %d, want %d (lost events under contention)", emitted, want)
	}
	if got, want := tr.Dropped(), emitted-ringSize; got != want {
		t.Errorf("dropped %d, want %d", got, want)
	}
	events := tr.Events()
	if len(events) != ringSize {
		t.Fatalf("buffered %d, want %d", len(events), ringSize)
	}
	seen := make(map[uint64]bool, len(events))
	for i, e := range events {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d in ring", e.Seq)
		}
		seen[e.Seq] = true
		if i > 0 && e.Seq <= events[i-1].Seq {
			t.Fatalf("ring order corrupted at index %d", i)
		}
	}
	// Reset after overflow must leave a clean tracer.
	tr.Reset()
	if len(tr.Events()) != 0 || tr.Dropped() != 0 {
		t.Errorf("reset left state behind: %d events, %d dropped", len(tr.Events()), tr.Dropped())
	}
	sp := begin(eng, cpu.EvNetOp, "netsvc", "after-reset", nil)
	eng.Exec(op)
	sp.End()
	if got := len(BuildSpans(tr.Events())); got != 1 {
		t.Errorf("post-reset span count = %d, want 1", got)
	}
}
