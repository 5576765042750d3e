package ktrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/cpu"
)

func newEngine() *cpu.Engine {
	return cpu.NewEngine(cpu.Pentium133())
}

func region(layout *cpu.Layout, name string, instr uint64) cpu.Region {
	return layout.PlaceInstr(name, instr)
}

// begin opens a span record on eng; parent, when set, is its carried
// causal parent.
func begin(eng *cpu.Engine, typ cpu.EventType, sub, name string, parent *cpu.Span) *cpu.Span {
	return eng.Planes().Open(cpu.Event{Type: typ, Subsystem: sub, Name: name}, parent)
}

// instant records an instant on eng.
func instant(eng *cpu.Engine, typ cpu.EventType, sub, name string, arg uint64) {
	eng.Planes().Emit(cpu.Event{Type: typ, Subsystem: sub, Name: name, Arg: arg})
}

// TestSpanPairing checks begin/end pairing, inclusive deltas and the
// open-stack fallback parenting.
func TestSpanPairing(t *testing.T) {
	eng := newEngine()
	layout := cpu.NewLayout(0x1000)
	op := region(layout, "op", 100)
	tr := AttachSized(eng, 1024)
	defer Detach(eng)

	outer := begin(eng, cpu.EvAPI, "os2", "DosOpen", nil)
	eng.Exec(op)
	inner := eng.Planes().Open(cpu.Event{Type: cpu.EvRPC, Subsystem: "mach.rpc", Name: "fs", Arg: 0x0f00}, nil)
	eng.Exec(op)
	inner.End()
	eng.Exec(op)
	outer.End()

	spans := BuildSpans(tr.Events())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "DosOpen" || spans[1].Name != "rpc:0x0f00" {
		t.Fatalf("span order wrong: %q, %q", spans[0].Name, spans[1].Name)
	}
	// The inner span began with a zero parent; the open stack must have
	// adopted the outer span.
	if spans[1].ParentID != spans[0].SpanID {
		t.Errorf("inner span parent = %d, want %d", spans[1].ParentID, spans[0].SpanID)
	}
	if spans[1].TraceID != spans[0].TraceID {
		t.Errorf("inner span trace = %d, want %d", spans[1].TraceID, spans[0].TraceID)
	}
	if len(spans[0].Children) != 1 || spans[0].Children[0] != spans[1] {
		t.Errorf("outer span children not linked")
	}
	// Exclusive = inclusive minus the child's inclusive.
	if spans[0].ExclCycles != spans[0].InclCycles-spans[1].InclCycles {
		t.Errorf("exclusive cycles %d != inclusive %d - child %d",
			spans[0].ExclCycles, spans[0].InclCycles, spans[1].InclCycles)
	}
	if spans[0].InclInstr == 0 || spans[1].InclInstr == 0 {
		t.Errorf("spans recorded no instructions: %+v", spans)
	}
}

// TestExplicitContextPropagation models the cross-task hand-off: a span
// context carried explicitly (as in a mach message) parents a span on the
// "server side" even with nothing on the open stack.
func TestExplicitContextPropagation(t *testing.T) {
	eng := newEngine()
	layout := cpu.NewLayout(0x1000)
	op := region(layout, "op", 50)
	tr := AttachSized(eng, 256)
	defer Detach(eng)

	client := begin(eng, cpu.EvRPC, "mach.rpc", "rpc:0x0d01", nil)
	carried := client
	eng.Exec(op)
	client.End()

	server := begin(eng, cpu.EvRPCServe, "mach.rpc", "serve:blockdrv", carried)
	eng.Exec(op)
	server.End()

	spans := BuildSpans(tr.Events())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[1].ParentID != spans[0].SpanID || spans[1].TraceID != spans[0].TraceID {
		t.Errorf("carried context did not parent the server span: %+v", spans[1])
	}
}

// TestAttributePartition checks that exclusive attribution partitions the
// traced cycles across subsystems without double counting.
func TestAttributePartition(t *testing.T) {
	eng := newEngine()
	layout := cpu.NewLayout(0x1000)
	opA := region(layout, "a", 300)
	opB := region(layout, "b", 700)
	tr := AttachSized(eng, 1024)
	defer Detach(eng)

	outer := begin(eng, cpu.EvAPI, "os2", "DosWrite", nil)
	eng.Exec(opA)
	inner := begin(eng, cpu.EvDriverIO, "drivers", "udrv:write", nil)
	eng.Exec(opB)
	inner.End()
	outer.End()

	spans := BuildSpans(tr.Events())
	attr := Attribute(tr.Events())
	var sum uint64
	for _, a := range attr {
		sum += a.Cycles
	}
	var rootIncl uint64
	for _, s := range Roots(spans) {
		rootIncl += s.InclCycles
	}
	if sum != rootIncl {
		t.Errorf("attributed cycles %d != root inclusive cycles %d (double counting?)", sum, rootIncl)
	}
	if len(attr) != 2 {
		t.Fatalf("got %d subsystems, want 2: %+v", len(attr), attr)
	}
	// drivers ran the fatter path; it must dominate and sort first.
	if attr[0].Subsystem != "drivers" {
		t.Errorf("most expensive subsystem = %q, want drivers", attr[0].Subsystem)
	}
}

// TestChromeExport checks the exporter emits valid Chrome trace_event JSON.
func TestChromeExport(t *testing.T) {
	eng := newEngine()
	layout := cpu.NewLayout(0x1000)
	op := region(layout, "op", 80)
	tr := AttachSized(eng, 256)
	defer Detach(eng)

	sp := begin(eng, cpu.EvFSOp, "vfs", "read", nil)
	eng.Exec(op)
	instant(eng, cpu.EvVMFault, "vm", "fault:read", 0x1234)
	sp.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed) != 2 {
		t.Fatalf("got %d trace events, want 2", len(parsed))
	}
	var sawX, sawI bool
	for _, ev := range parsed {
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Errorf("trace event missing %q: %v", k, ev)
			}
		}
		switch ev["ph"] {
		case "X":
			sawX = true
		case "i":
			sawI = true
		}
	}
	if !sawX || !sawI {
		t.Errorf("want one complete and one instant event, got %s", buf.String())
	}
}

// TestSummaryOutput sanity-checks the text summary.
func TestSummaryOutput(t *testing.T) {
	eng := newEngine()
	layout := cpu.NewLayout(0x1000)
	op := region(layout, "op", 120)
	tr := AttachSized(eng, 256)
	defer Detach(eng)
	sp := begin(eng, cpu.EvNameLookup, "names", "lookup:/servers/files", nil)
	eng.Exec(op)
	sp.End()

	var buf bytes.Buffer
	if err := WriteSummary(&buf, tr); err != nil {
		t.Fatalf("WriteSummary: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"names", "subsystem", "cycles(excl)"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestZeroSpanNoop ensures the zero Span is safe to End, the disabled-path
// contract of every hook site.
func TestZeroSpanNoop(t *testing.T) {
	var sp *cpu.Span
	sp.End() // must not panic
	if For(newEngine()) != nil {
		t.Error("unattached engine returned a tracer")
	}
}

// TestConcurrentEmitters drives one tracer from several goroutines; run
// under -race this is the data-race gate for the ring and open stack.
func TestConcurrentEmitters(t *testing.T) {
	eng := newEngine()
	layout := cpu.NewLayout(0x1000)
	op := region(layout, "op", 40)
	tr := AttachSized(eng, 4096)
	defer Detach(eng)

	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sp := begin(eng, cpu.EvRPC, "mach.rpc", "rpc", nil)
				eng.Exec(op)
				instant(eng, cpu.EvVMFault, "vm", "fault", uint64(i))
				child := begin(eng, cpu.EvDriverIO, "drivers", "io", sp)
				child.End()
				sp.End()
				eng.SwitchAddressSpace(uint64(g))
			}
		}(g)
	}
	wg.Wait()

	if got := tr.Emitted(); got < goroutines*perG*5 {
		t.Errorf("emitted %d events, want >= %d", got, goroutines*perG*5)
	}
	// Every event must be well-formed; BuildSpans must not crash or link
	// spans across traces incorrectly.
	for _, sc := range BuildSpans(tr.Events()) {
		if sc.TraceID == 0 || sc.SpanID == 0 {
			t.Fatalf("malformed span: %+v", sc)
		}
		for _, c := range sc.Children {
			if c.TraceID != sc.TraceID {
				t.Fatalf("child trace %d != parent trace %d", c.TraceID, sc.TraceID)
			}
		}
	}
}
