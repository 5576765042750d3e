package kflight

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kstat"
)

// emit records one flight-vocabulary instant on eng.
func emit(eng *cpu.Engine, arg uint64) {
	eng.Planes().Emit(cpu.Event{Type: cpu.EvVMFault, Subsystem: "test", Name: "ev", Arg: arg})
}

// sampleSnapshot builds a kstat snapshot with one busy gauge set, for
// dump-rendering tests.
func sampleSnapshot() kstat.Snapshot {
	set := kstat.NewSet()
	set.Counter("mach.rpc.replies").Add(3)
	set.GaugeFunc("test.pool.busy", func() int64 { return 2 })
	return set.Snapshot()
}

func TestRingOverflowKeepsNewest(t *testing.T) {
	eng := cpu.NewEngine(cpu.Pentium133())
	r := AttachSized(eng, 4)
	for i := 0; i < 10; i++ {
		emit(eng, uint64(i))
	}
	if got := r.EngineDumps()[0].Emitted; got != 10 {
		t.Fatalf("Emitted = %d, want 10", got)
	}
	ev := r.EngineDumps()[0].Events
	if len(ev) != 4 {
		t.Fatalf("buffered %d events, want ring size 4", len(ev))
	}
	// The ring keeps the newest K: sequences 6..9, oldest first.
	for i, e := range ev {
		if want := uint64(6 + i); e.Seq != want {
			t.Errorf("event %d: seq = %d, want %d", i, e.Seq, want)
		}
	}
	dumps := r.EngineDumps()
	if len(dumps) != 1 || dumps[0].Dropped != 6 || dumps[0].Emitted != 10 {
		t.Fatalf("EngineDumps = %+v, want 1 ring with emitted=10 dropped=6", dumps)
	}
}

func TestConcurrentEmitAndSnapshot(t *testing.T) {
	eng := cpu.NewEngine(cpu.Pentium133())
	r := AttachSized(eng, 64)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// A reader sweeping the ring while writers wrap it — the race detector
	// is the assertion.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.EngineDumps()
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < per; i++ {
				emit(eng, uint64(w))
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if got := r.EngineDumps()[0].Emitted; got != workers*per {
		t.Fatalf("Emitted = %d, want %d", got, workers*per)
	}
	ev := r.EngineDumps()[0].Events
	if len(ev) != 64 {
		t.Fatalf("buffered %d events, want 64", len(ev))
	}
}

func TestAttachDetach(t *testing.T) {
	eng := cpu.NewEngine(cpu.Pentium133())
	if For(eng) != nil {
		t.Fatal("fresh engine should have no recorder")
	}
	r := AttachSized(eng, 16)
	if For(eng) != r {
		t.Fatal("For should return the attached recorder")
	}
	if again := Attach(eng); again != r {
		t.Fatal("second Attach must return the existing recorder")
	}
	Detach(eng)
	if For(eng) != nil {
		t.Fatal("Detach should clear the registry")
	}
}

func edge(task string, taskID uint32, kind WaitKind, port uint64, owner string, ownerID uint32) WaitEdge {
	return WaitEdge{Task: task, TaskID: taskID, Thread: "t", ThreadID: taskID,
		Kind: kind, PortID: port, OwnerTask: owner, OwnerTaskID: ownerID}
}

func TestFindCyclesTwoTask(t *testing.T) {
	edges := []WaitEdge{
		edge("ping", 1, WaitReply, 20, "pong", 2),
		edge("pong", 2, WaitRendezvous, 10, "ping", 1),
		// Parked receivers never join cycles.
		edge("idle", 3, WaitQueueRecv, 30, "idle", 3),
	}
	cycles := FindCycles(edges)
	if len(cycles) != 1 {
		t.Fatalf("found %d cycles, want 1: %v", len(cycles), cycles)
	}
	rendered := RenderCycle(cycles[0])
	for _, want := range []string{"ping", "pong", "reply", "rendezvous"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered cycle %q missing %q", rendered, want)
		}
	}
	if len(cycles[0]) != 2 {
		t.Fatalf("cycle has %d edges, want 2", len(cycles[0]))
	}
}

func TestFindCyclesSelf(t *testing.T) {
	cycles := FindCycles([]WaitEdge{
		edge("solo", 7, WaitRendezvous, 70, "solo", 7),
	})
	if len(cycles) != 1 || len(cycles[0]) != 1 {
		t.Fatalf("self-deadlock: got %v, want one 1-edge cycle", cycles)
	}
}

func TestFindCyclesNoFalsePositives(t *testing.T) {
	// A chain without a loop, plus receive-side edges everywhere.
	edges := []WaitEdge{
		edge("a", 1, WaitReply, 20, "b", 2),
		edge("b", 2, WaitRendezvous, 30, "c", 3),
		edge("c", 3, WaitQueueRecv, 31, "c", 3),
	}
	if cycles := FindCycles(edges); len(cycles) != 0 {
		t.Fatalf("acyclic graph reported cycles: %v", cycles)
	}
}

func TestFindCyclesDedup(t *testing.T) {
	// The same two-task loop reachable from two extra roots must report
	// exactly one cycle.
	edges := []WaitEdge{
		edge("x", 10, WaitRendezvous, 1, "a", 1),
		edge("y", 11, WaitRendezvous, 1, "a", 1),
		edge("a", 1, WaitReply, 2, "b", 2),
		edge("b", 2, WaitRendezvous, 1, "a", 1),
	}
	if cycles := FindCycles(edges); len(cycles) != 1 {
		t.Fatalf("found %d cycles, want 1 (deduped)", len(cycles))
	}
}

func TestDumpRoundTripAndText(t *testing.T) {
	eng := cpu.NewEngine(cpu.Pentium133())
	r := AttachSized(eng, 8)
	eng.Planes().Open(cpu.Event{Type: cpu.EvRPC, Subsystem: "mach.rpc", Name: "files", Arg: 0x42}, nil)
	waits := []WaitEdge{
		edge("ping", 1, WaitReply, 20, "pong", 2),
		edge("pong", 2, WaitRendezvous, 10, "ping", 1),
	}
	d := Collect("test dump", r, waits, []EngineSnap{{Slot: 0, RunQueue: 1}}, sampleSnapshot())

	js, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	back := new(Dump)
	if err := json.Unmarshal(js, back); err != nil {
		t.Fatal(err)
	}
	if back.Reason != "test dump" || back.TotalEvents() != 1 ||
		len(back.Waits) != 2 || len(back.Cycles) != 1 {
		t.Fatalf("round trip mangled dump: %+v", back)
	}

	var txt bytes.Buffer
	if err := back.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{
		"kflight postmortem — test dump",
		"DEADLOCK: 1 cycle(s)",
		"call:files",
		"BLOCKED",
		"test.pool.busy=2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q in:\n%s", want, out)
		}
	}

	var diff bytes.Buffer
	Diff(&diff, d, back)
	if !strings.Contains(diff.String(), "wait edges: 2 -> 2") {
		t.Errorf("diff missing wait-edge line:\n%s", diff.String())
	}
}
