package chaos

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kflight"
)

// TestFailWritesFlightDump checks the postmortem path the soak takes on an
// invariant violation: fail() must write a parseable kflight dump artifact
// next to the replay flags and name it in the error message.
func TestFailWritesFlightDump(t *testing.T) {
	dir := t.TempDir()
	h := &harness{cfg: Config{Seed: 42, DumpDir: dir}.withDefaults(), faults: map[string]int{}}
	sys, err := core.Boot(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h.sys = sys
	h.logf("synthetic epoch for the dump test")

	ferr := h.fail(errors.New("synthetic invariant violation"))
	if ferr == nil {
		t.Fatal("fail returned nil")
	}
	if !strings.Contains(ferr.Error(), "flight dump: ") {
		t.Fatalf("failure message does not name the artifact:\n%s", ferr)
	}
	path := ferr.Error()[strings.Index(ferr.Error(), "flight dump: ")+len("flight dump: "):]
	js, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("artifact missing: %v", err)
	}
	var d kflight.Dump
	if err := json.Unmarshal(js, &d); err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	if !strings.Contains(d.Reason, "chaos invariant failure") ||
		!strings.Contains(d.Reason, "synthetic invariant violation") {
		t.Errorf("dump reason = %q", d.Reason)
	}
	if d.TotalEvents() == 0 {
		t.Error("dump carries no flight-ring events from the booted system")
	}
	if len(d.Stats.Counters) == 0 {
		t.Error("dump carries no kstat snapshot")
	}
}

// TestFailDumpDisabled checks the "-" opt-out: no artifact, no mention.
func TestFailDumpDisabled(t *testing.T) {
	h := &harness{cfg: Config{Seed: 43, DumpDir: "-"}.withDefaults(), faults: map[string]int{}}
	sys, err := core.Boot(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h.sys = sys
	ferr := h.fail(errors.New("synthetic"))
	if strings.Contains(ferr.Error(), "flight dump:") {
		t.Fatalf("disabled dump still advertised an artifact:\n%s", ferr)
	}
}
