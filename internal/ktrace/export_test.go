package ktrace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cpu"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// bootTrace builds a small, fully deterministic boot-shaped trace: a
// single goroutine drives the engine, so event order, counter stamps and
// span ids are identical on every run — which is what makes a golden file
// of the streaming chrome export possible (real multi-threaded traces
// interleave server and client events nondeterministically).
func bootTrace(t *testing.T) []cpu.Event {
	t.Helper()
	eng := cpu.NewEngine(cpu.Pentium133())
	l := cpu.NewLayout(0x10_0000)
	rInit := l.PlaceInstr("boot_init", 300)
	rMount := l.PlaceInstr("fs_mount", 500)
	rLookup := l.PlaceInstr("name_lookup", 120)
	tr := AttachSized(eng, 64)
	defer Detach(eng)

	boot := begin(eng, cpu.EvTask, "core", "boot", nil)
	eng.Exec(rInit)

	mount := begin(eng, cpu.EvFSOp, "vfs", "mount:hpfs", boot)
	eng.Exec(rMount)
	io := begin(eng, cpu.EvDriverIO, "drivers", "read:superblock", mount)
	eng.Stall(400)
	io.End()
	mount.End()

	lookup := begin(eng, cpu.EvNameLookup, "names", "bind:/servers/files", boot)
	eng.Exec(rLookup)
	lookup.End()

	instant(eng, cpu.EvInterrupt, "kernel", "timer", 32)
	boot.End()
	return tr.Events()
}

// TestChromeStreamGolden pins the streaming chrome exporter's byte output
// for a small boot trace: the "[\n" open, ",\n" separators, "\n]\n" close
// and per-event JSON shape all come from the stream path added in PR 3.
// Regenerate with: go test ./internal/ktrace/ -run Golden -update
func TestChromeStreamGolden(t *testing.T) {
	events := bootTrace(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "boot_trace.chrome.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome export drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}

	// The export must also be valid JSON the viewer can load.
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// 4 spans as complete events + 1 instant.
	if len(parsed) != 5 {
		t.Fatalf("exported %d events, want 5", len(parsed))
	}
}

// TestChromeStreamEmpty pins the empty-trace edge case: a never-opened
// stream closes to the literal empty array.
func TestChromeStreamEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Fatalf("empty trace exported %q, want %q", got, "[]\n")
	}
}
