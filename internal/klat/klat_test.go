package klat

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cpu"
)

func newTracker(t *testing.T) (*Tracker, *cpu.Engine) {
	t.Helper()
	eng := cpu.NewEngine(cpu.Pentium133())
	tr := Attach(eng)
	t.Cleanup(func() { Detach(eng) })
	return tr, eng
}

// call opens a call record made for parent, as the RPC path does.
func call(eng *cpu.Engine, parent *cpu.Span, server string, op uint32, width int) *cpu.Span {
	return eng.Planes().Open(cpu.Event{Type: cpu.EvRPC, Name: server, Arg: uint64(op), Width: width, Req: parent}, nil)
}

// driveHop walks one call through the five stamp points, advancing the
// clock by the given segment widths (in stall cycles) between stamps.
func driveHop(eng *cpu.Engine, parent *cpu.Span, server string, op uint32, send, queue, service, resume uint64) *cpu.Span {
	rec := call(eng, parent, server, op, 0)
	eng.Stall(send)
	rec.Stamp(cpu.PhaseSent, "", 0)
	eng.Stall(queue)
	rec.Stamp(cpu.PhasePicked, "", 0)
	eng.Stall(service)
	rec.Stamp(cpu.PhaseServed, "", 0)
	eng.Stall(resume)
	rec.End()
	return rec
}

// TestTelescoping: the four segments sum to the end-to-end figure
// exactly — the identity every exemplar gate builds on.
func TestTelescoping(t *testing.T) {
	tr, eng := newTracker(t)
	driveHop(eng, nil, "files", 0x0201, 100, 2000, 750, 30)
	d := tr.Dump()
	if len(d.Families) != 1 {
		t.Fatalf("families = %d, want 1", len(d.Families))
	}
	f := d.Families[0]
	if f.Server != "files" || f.Op != 0x0201 {
		t.Fatalf("family = %s/%#x", f.Server, f.Op)
	}
	if len(f.Exemplars) != 1 {
		t.Fatalf("exemplars = %d, want 1", len(f.Exemplars))
	}
	ex := f.Exemplars[0]
	if ex.Send != 100 || ex.Queue != 2000 || ex.Service != 750 || ex.Resume != 30 {
		t.Fatalf("segments = %d/%d/%d/%d", ex.Send, ex.Queue, ex.Service, ex.Resume)
	}
	if got := ex.Send + ex.Queue + ex.Service + ex.Resume; got != ex.E2E {
		t.Fatalf("segment sum %d != e2e %d", got, ex.E2E)
	}
	if sum := componentSum(&ex); sum != ex.E2E {
		t.Fatalf("component sum %d != e2e %d", sum, ex.E2E)
	}
	if f.E2E.Count != 1 || f.E2E.Sum != ex.E2E {
		t.Fatalf("family e2e hist count=%d sum=%d", f.E2E.Count, f.E2E.Sum)
	}
}

func componentSum(h *HopDump) uint64 {
	var sum uint64
	for _, v := range h.Components() {
		sum += v
	}
	return sum
}

// TestNestedChildren: a call that names a serving hop as its parent
// attaches as a child; own-service is the parent's service minus the child's
// window, and the rollup still sums exactly.
func TestNestedChildren(t *testing.T) {
	tr, eng := newTracker(t)
	root := call(eng, nil, "files", 0x0201, 0)
	eng.Stall(10)
	root.Stamp(cpu.PhaseSent, "", 0)
	eng.Stall(20)
	root.Stamp(cpu.PhasePicked, "", 0)
	// Handler runs: some own work, then a nested driver call naming the
	// request it serves, then more own work.
	eng.Stall(100)
	child := driveHop(eng, root, "blockdrv", 0x0d01, 5, 40, 5000, 5)
	eng.Stall(200)
	root.Stamp(cpu.PhaseServed, "", 0)
	eng.Stall(30)
	root.End()

	if Of(child).Root {
		t.Fatal("nested hop must not be a root")
	}
	d := tr.Dump()
	var ex *HopDump
	for i := range d.Families {
		f := &d.Families[i]
		if f.Server == "files" && len(f.Exemplars) == 1 {
			ex = &f.Exemplars[0]
		}
		// The nested driver hop lands in its own family's histograms but
		// never in the reservoir.
		if f.Server == "blockdrv" && len(f.Exemplars) != 0 {
			t.Fatal("non-root hop entered the exemplar reservoir")
		}
	}
	if ex == nil {
		t.Fatal("no files exemplar")
	}
	if len(ex.Children) != 1 {
		t.Fatalf("children = %d, want 1", len(ex.Children))
	}
	c := ex.Children[0]
	if c.Server != "blockdrv" || c.E2E != 5+40+5000+5 {
		t.Fatalf("child = %s e2e=%d", c.Server, c.E2E)
	}
	if want := ex.Service - c.E2E; ex.Own != want {
		t.Fatalf("own = %d, want service %d - child %d", ex.Own, ex.Service, c.E2E)
	}
	if sum := componentSum(ex); sum != ex.E2E {
		t.Fatalf("component sum %d != e2e %d", sum, ex.E2E)
	}
	if !c.Critical {
		t.Fatal("a sequential child is on the critical path")
	}
}

// TestMarksSubtractFromOwn: a named wait lands in wait.<mark> and comes
// out of the hop's own-service bucket, keeping the partition exact.
func TestMarksSubtractFromOwn(t *testing.T) {
	tr, eng := newTracker(t)
	rec := call(eng, nil, "files", 0x0202, 0)
	rec.Stamp(cpu.PhaseSent, "", 0)
	rec.Stamp(cpu.PhasePicked, "", 0)
	h := Of(rec)
	h.Wait("volume:/fat", func() { eng.Stall(4000) }) // another holder's 4000 cycles
	eng.Stall(1000)
	eng.Planes().Emit(cpu.Event{Type: cpu.EvCache, Name: "miss", Arg: 3, Req: rec})
	rec.Stamp(cpu.PhaseServed, "", 0)
	rec.End()

	ex := tr.Dump().Families[0].Exemplars[0]
	if ex.Marks["volume:/fat"] != 4000 {
		t.Fatalf("mark = %d, want 4000", ex.Marks["volume:/fat"])
	}
	if ex.Notes["bcache.miss"] != 3 {
		t.Fatalf("note = %d, want 3", ex.Notes["bcache.miss"])
	}
	comp := ex.Components()
	if comp["wait.volume:/fat"] != 4000 {
		t.Fatalf("wait component = %d", comp["wait.volume:/fat"])
	}
	if comp["service.files"] != ex.Own-4000 {
		t.Fatalf("service component = %d, want own %d - 4000", comp["service.files"], ex.Own)
	}
	if sum := componentSum(&ex); sum != ex.E2E {
		t.Fatalf("component sum %d != e2e %d", sum, ex.E2E)
	}
}

// TestReservoirKeepsSlowest: the reservoir is bounded at ExemplarK and
// retains the largest end-to-end figures.
func TestReservoirKeepsSlowest(t *testing.T) {
	tr, eng := newTracker(t)
	n := ExemplarK + 5
	for i := 1; i <= n; i++ {
		driveHop(eng, nil, "files", 0x0201, 0, 0, uint64(i)*1000, 0)
	}
	f := tr.Dump().Families[0]
	if len(f.Exemplars) != ExemplarK {
		t.Fatalf("reservoir = %d, want %d", len(f.Exemplars), ExemplarK)
	}
	// Slowest first, and only the top K survived.
	for i, ex := range f.Exemplars {
		want := uint64(n-i) * 1000
		if ex.E2E != want {
			t.Fatalf("exemplar %d e2e = %d, want %d", i, ex.E2E, want)
		}
	}
	if f.E2E.Count != uint64(n) {
		t.Fatalf("histogram count = %d, want %d (every hop observes)", f.E2E.Count, n)
	}
	if p99, p50 := f.E2E.Quantile(0.99), f.E2E.Quantile(0.50); p99 < p50 {
		t.Fatalf("p99 %d < p50 %d", p99, p50)
	}
}

// TestCarrierCriticalPath: a carrier's critical path descends into the
// slowest sub only; sub windows partition the carrier's service.
func TestCarrierCriticalPath(t *testing.T) {
	tr, eng := newTracker(t)
	carrier := call(eng, nil, "blockdrv", 0x0d02, 3)
	eng.Stall(10)
	carrier.Stamp(cpu.PhaseSent, "", 0)
	eng.Stall(20)
	carrier.Stamp(cpu.PhasePicked, "", 0)
	widths := []uint64{500, 9000, 700}
	for _, w := range widths {
		sh := Of(carrier).BeginSub(0x0d02)
		eng.Stall(w)
		Of(sh).EndSub()
	}
	carrier.Stamp(cpu.PhaseServed, "", 0)
	eng.Stall(5)
	carrier.End()

	ex := tr.Dump().Families[0].Exemplars[0]
	if ex.Width != 3 || len(ex.Children) != 3 {
		t.Fatalf("width=%d children=%d", ex.Width, len(ex.Children))
	}
	for i, c := range ex.Children {
		if !c.Sub || c.E2E != widths[i] {
			t.Fatalf("sub %d: sub=%v e2e=%d want %d", i, c.Sub, c.E2E, widths[i])
		}
		if onPath := i == 1; c.Critical != onPath {
			t.Fatalf("sub %d critical=%v, want %v (slowest sub only)", i, c.Critical, onPath)
		}
	}
	if ex.Own != ex.Service-(500+9000+700) {
		t.Fatalf("own = %d", ex.Own)
	}
	if sum := componentSum(&ex); sum != ex.E2E {
		t.Fatalf("component sum %d != e2e %d", sum, ex.E2E)
	}
}

// TestFailedHopDiscarded: error outcomes never reach histograms or the
// reservoir — their server-side stamps may still be in flight.
func TestFailedHopDiscarded(t *testing.T) {
	tr, eng := newTracker(t)
	rec := call(eng, nil, "files", 0x0201, 0)
	eng.Stall(100)
	rec.Close(cpu.Event{Err: "timeout"})
	if d := tr.Dump(); len(d.Families) != 0 {
		t.Fatalf("failed hop recorded: %+v", d.Families)
	}
}

// TestFailedNestedHopInLedger: a nested call that fails after its server
// picked it up stays in its root's ledger as one failed window, so the
// root's components still sum to its end-to-end cycles.
func TestFailedNestedHopInLedger(t *testing.T) {
	tr, eng := newTracker(t)
	root := call(eng, nil, "files", 0x0201, 0)
	eng.Stall(100)
	root.Stamp(cpu.PhaseSent, "", 0)
	root.Stamp(cpu.PhasePicked, "", 0)
	eng.Stall(200)
	child := call(eng, root, "blockdrv", 0x0d01, 0)
	child.Stamp(cpu.PhaseSent, "", 0)
	eng.Stall(5)
	child.Stamp(cpu.PhasePicked, "", 0)
	eng.Stall(5000) // the server works past the caller's deadline
	child.Close(cpu.Event{Err: "timeout"})
	eng.Stall(100)
	root.Stamp(cpu.PhaseServed, "", 0)
	eng.Stall(5)
	root.End()

	ex := tr.Dump().Families[0].Exemplars[0]
	if ex.E2E != 5410 || len(ex.Children) != 1 || !ex.Children[0].Failed {
		t.Fatalf("root e2e=%d children=%+v, want 5410 and one failed child", ex.E2E, ex.Children)
	}
	comp := ex.Components()
	if comp["failed.blockdrv"] != 5005 {
		t.Fatalf("failed component = %d, want the child's whole window 5005: %v", comp["failed.blockdrv"], comp)
	}
	if sum := componentSum(&ex); sum != ex.E2E {
		t.Fatalf("component sum %d != e2e %d: %v", sum, ex.E2E, comp)
	}
}

// TestParentNaming: a hop's place in a ledger is whatever its opener
// named and nothing else — no parent makes a root however many requests
// are in service around it, a served hop and a carrier's sub-hop both
// adopt the calls that name them, and a parent whose client already gave
// up (sealed) adopts nothing: the failure direction is "unlinked", never
// "mislinked".
func TestParentNaming(t *testing.T) {
	_, eng := newTracker(t)
	a := call(eng, nil, "a", 1, 0)
	b := call(eng, nil, "b", 2, 2)
	a.Stamp(cpu.PhasePicked, "", 0)
	b.Stamp(cpu.PhasePicked, "", 0)
	if unnamed := driveHop(eng, nil, "x", 3, 1, 1, 1, 1); !Of(unnamed).Root {
		t.Fatal("a call that named no parent was linked under a request in service")
	}
	underA := Of(driveHop(eng, a, "x", 4, 1, 1, 1, 1))
	sub := Of(b).BeginSub(5)
	underSub := Of(driveHop(eng, sub, "x", 6, 1, 1, 1, 1))
	Of(sub).EndSub()
	if underA.Root || underSub.Root {
		t.Fatal("a call that named its parent was recorded as a root")
	}
	ha, hb, hs := Of(a), Of(b), Of(sub)
	if len(ha.children) != 1 || ha.children[0] != underA {
		t.Fatalf("a's children = %v, want exactly the call that named it", ha.children)
	}
	if len(hb.children) != 1 || hb.children[0] != hs || len(hs.children) != 1 || hs.children[0] != underSub {
		t.Fatal("the carrier's sub-hop did not adopt the call that named it")
	}
	a.End()
	if late := Of(call(eng, a, "x", 7, 0)); !late.Root || len(ha.children) != 1 {
		t.Fatal("a sealed hop adopted a late child")
	}
}

// TestNilSafety: every hook is a no-op with the plane detached — the
// shape the whole RPC path relies on.
func TestNilSafety(t *testing.T) {
	eng := cpu.NewEngine(cpu.Pentium133())
	if For(eng) != nil { // not attached
		t.Fatal("For on unattached engine")
	}
	rec := call(eng, nil, "x", 1, 0)
	if rec != nil || Of(rec) != nil {
		t.Fatal("a detached engine minted a call record")
	}
	rec.Stamp(cpu.PhaseSent, "", 0)
	rec.Stamp(cpu.PhasePicked, "", 0)
	rec.Stamp(cpu.PhaseServed, "", 0)
	h := Of(rec)
	Of(h.BeginSub(1)).EndSub()
	waited := false
	h.Wait("m", func() { waited = true })
	if !waited {
		t.Fatal("a nil hop did not run the wait")
	}
	h.Note("n", 1)
	rec.End()
}

// TestDumpRoundTrip: JSON out, JSON in, same ledger.
func TestDumpRoundTrip(t *testing.T) {
	tr, eng := newTracker(t)
	driveHop(eng, nil, "files", 0x0201, 1, 2, 3, 4)
	js, err := json.Marshal(tr.Dump())
	if err != nil {
		t.Fatal(err)
	}
	d := new(Dump)
	if err := json.Unmarshal(js, d); err != nil {
		t.Fatal(err)
	}
	if len(d.Families) != 1 || d.Families[0].Exemplars[0].E2E != 10 {
		t.Fatalf("round trip mangled the dump: %+v", d)
	}
	var txt bytes.Buffer
	if err := d.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if txt.Len() == 0 {
		t.Fatal("empty text render")
	}
}

// TestConcurrentRecordAndDump: recorders on many goroutines race dump
// queries; run under -race in tier 2.
func TestConcurrentRecordAndDump(t *testing.T) {
	tr, eng := newTracker(t)
	var rec sync.WaitGroup
	for g := 0; g < 4; g++ {
		rec.Add(1)
		go func(g int) {
			defer rec.Done()
			for i := 0; i < 200; i++ {
				driveHop(eng, nil, fmt.Sprintf("srv%d", g%2), uint32(g), 1, 1, uint64(i), 1)
			}
		}(g)
	}
	stop := make(chan struct{})
	var dmp sync.WaitGroup
	dmp.Add(1)
	go func() {
		defer dmp.Done()
		for {
			select {
			case <-stop:
				return
			default:
				d := tr.Dump()
				for i := range d.Families {
					for j := range d.Families[i].Exemplars {
						ex := &d.Families[i].Exemplars[j]
						if sum := componentSum(ex); sum != ex.E2E {
							t.Errorf("component sum %d != e2e %d", sum, ex.E2E)
							return
						}
					}
				}
			}
		}
	}()
	rec.Wait()
	close(stop)
	dmp.Wait()
	tr.Dump()
}
