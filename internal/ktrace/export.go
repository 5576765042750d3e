package ktrace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/cpu"
)

// chromeEvent is one entry of the Chrome trace_event JSON array format
// (chrome://tracing, Perfetto).  Simulated cycles stand in for
// microseconds: timestamps are begin-cycle counts, durations are cycle
// deltas, so the viewer's time axis reads directly in cycles.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Dur  uint64            `json:"dur,omitempty"`
	PID  uint64            `json:"pid"`
	TID  uint64            `json:"tid"`
	Args map[string]uint64 `json:"args,omitempty"`
}

// WriteChromeTrace renders the events as a Chrome trace_event JSON array.
// Spans become complete ("X") events carrying their counter deltas;
// instant events become "i" events.  Each causal tree gets its own track
// (tid = TraceID).
//
// The array is streamed: each event is marshalled and written on its own,
// so a full ring export holds one event in memory at a time rather than
// the whole JSON document.
func WriteChromeTrace(w io.Writer, events []cpu.Event) error {
	s := chromeStream{w: w}
	for _, sc := range BuildSpans(events) {
		if err := s.emit(chromeEvent{
			Name: sc.Subsystem + ":" + sc.Name,
			Cat:  sc.Type.String(),
			Ph:   "X",
			Ts:   sc.Begin,
			Dur:  sc.InclCycles,
			PID:  1,
			TID:  sc.TraceID,
			Args: map[string]uint64{
				"instr": sc.InclInstr, "cycles": sc.InclCycles,
				"bus": sc.InclBus, "excl_cycles": sc.ExclCycles,
				"span": sc.SpanID, "parent": sc.ParentID,
			},
		}); err != nil {
			return err
		}
	}
	for _, e := range events {
		if e.Phase != cpu.PhaseInstant {
			continue
		}
		if err := s.emit(chromeEvent{
			Name: e.Subsystem + ":" + e.Name,
			Cat:  e.Type.String(),
			Ph:   "i",
			Ts:   e.Ctr.Cycles,
			PID:  1,
			TID:  e.TraceID,
			Args: map[string]uint64{"arg": e.Arg},
		}); err != nil {
			return err
		}
	}
	return s.close()
}

// chromeStream writes a JSON array one element at a time.
type chromeStream struct {
	w      io.Writer
	opened bool
}

func (s *chromeStream) emit(e chromeEvent) error {
	sep := ",\n"
	if !s.opened {
		s.opened = true
		sep = "[\n"
	}
	if _, err := io.WriteString(s.w, sep); err != nil {
		return err
	}
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = s.w.Write(b)
	return err
}

func (s *chromeStream) close() error {
	if !s.opened {
		_, err := io.WriteString(s.w, "[]\n")
		return err
	}
	_, err := io.WriteString(s.w, "\n]\n")
	return err
}

// WriteSummary prints the per-subsystem exclusive-cost attribution table
// plus ring statistics.
func WriteSummary(w io.Writer, t *Tracer) error {
	events := t.Events()
	attr := Attribute(events)
	var total uint64
	for _, a := range attr {
		total += a.Cycles
	}
	fmt.Fprintf(w, "ktrace summary: %d events buffered, %d emitted, %d dropped (ring wrap)\n",
		len(events), t.Emitted(), t.Dropped())
	fmt.Fprintf(w, "\n%-12s %7s %12s %14s %12s %6s %7s\n",
		"subsystem", "spans", "instr", "cycles(excl)", "bus", "cpi", "share")
	for _, a := range attr {
		share := 0.0
		if total > 0 {
			share = 100 * float64(a.Cycles) / float64(total)
		}
		fmt.Fprintf(w, "%-12s %7d %12d %14d %12d %6.2f %6.1f%%\n",
			a.Subsystem, a.Spans, a.Instr, a.Cycles, a.Bus, a.CPI(), share)
	}
	fmt.Fprintf(w, "%-12s %7s %12s %14d\n", "total", "", "", total)
	return nil
}

// WriteTree renders the first n causal trees, one line per span with
// inclusive/exclusive cycles — DosOpen across personality -> file server
// -> driver as an indented tree.
func WriteTree(w io.Writer, events []cpu.Event, n int) {
	spans := BuildSpans(events)
	roots := Roots(spans)
	if n > 0 && len(roots) > n {
		fmt.Fprintf(w, "(showing %d of %d causal trees)\n", n, len(roots))
		roots = roots[:n]
	}
	for _, r := range roots {
		writeTreeNode(w, r, 0)
	}
}

func writeTreeNode(w io.Writer, s *SpanCost, depth int) {
	fmt.Fprintf(w, "%s%s:%s  incl=%d excl=%d cycles\n",
		strings.Repeat("  ", depth), s.Subsystem, s.Name, s.InclCycles, s.ExclCycles)
	for _, c := range s.Children {
		writeTreeNode(w, c, depth+1)
	}
}
