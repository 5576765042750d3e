package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestE2E is the black-box tier: it builds kobs once, runs every scenario
// the old smoke scripts and make recipes ran as a child process under a
// deadline, and asserts on the output what they asserted.  Each child is
// started with exec.CommandContext and waited for (WaitDelay bounds its
// pipes), so none outlives the test.
func TestE2E(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go tool not on PATH: %v", err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "kobs")
	run(t, 0, goTool, "build", "-o", bin, ".")

	t.Run("stat-prom", func(t *testing.T) {
		// The monitor served a snapshot with live RPC counters.
		out := run(t, 0, bin, "stat", "-format", "prom", "-workload", "file1")
		match(t, out, `(?m)^mach_rpc_calls_total [1-9]`)
	})
	t.Run("prof-servers", func(t *testing.T) {
		// kprof attributed the workload over the system's own RPC.
		out := run(t, 0, bin, "prof", "-workload", "file1", "-format", "servers")
		match(t, out, `attributed [1-9][0-9]* cycles`)
	})
	t.Run("smp", func(t *testing.T) {
		// Four engines all consumed cycles and threads migrated between
		// them: the dispatcher really ran the machine as an SMP.
		out := run(t, 0, bin, "stat", "-cpus", "4", "-clients", "8", "-workload", "file1", "-format", "text", "-family", "cpu.")
		v := map[string]int64{}
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) >= 2 {
				v[f[0]], _ = strconv.ParseInt(f[1], 10, 64)
			}
		}
		if v["cpu.engines"] != 4 {
			t.Fatalf("cpu.engines = %d, want 4\n%s", v["cpu.engines"], out)
		}
		var migrations int64
		for e := 0; e < 4; e++ {
			if c := v["cpu.e"+strconv.Itoa(e)+".cycles"]; c <= 0 {
				t.Errorf("engine %d consumed no cycles", e)
			}
			migrations += v["cpu.e"+strconv.Itoa(e)+".migrations"]
		}
		if migrations <= 0 {
			t.Errorf("no cross-engine migrations recorded\n%s", out)
		}
	})
	t.Run("flight", func(t *testing.T) {
		// Both engine rings buffered events, the wait-for graph has edges
		// (serve threads park in receive), and a healthy boot names no
		// deadlock.
		out := run(t, 0, bin, "flight", "-cpus", "2", "-workload", "file1", "-format", "text")
		if n := atoi(match(t, out, `(?m)^wait-for edges \((\d+) total`)); n < 1 {
			t.Errorf("wait-for graph is empty")
		}
		for _, e := range []string{"0", "1"} {
			if n := atoi(match(t, out, `(?m)^engine `+e+`: (\d+) events buffered`)); n <= 0 {
				t.Errorf("engine %s ring buffered no events", e)
			}
		}
		match(t, out, `(?m)^no cycles in the wait-for graph$`)
	})
	t.Run("flight-offline", func(t *testing.T) {
		// One saved dump renders as every view that reads it, and diffs,
		// without booting.
		dump := filepath.Join(dir, "flight.json")
		if err := os.WriteFile(dump, []byte(run(t, 0, bin, "flight", "-format", "json")), 0o644); err != nil {
			t.Fatal(err)
		}
		match(t, run(t, 0, bin, "flight", "-read", dump), `(?m)^kflight postmortem — monitor query$`)
		match(t, run(t, 0, bin, "stat", "-read", dump, "-family", "mach.rpc."), `(?m)^mach\.rpc\.calls +[1-9]`)
		match(t, run(t, 0, bin, "tail", "-read", dump), `(?m)^fileserver .* [1-9]`)
		match(t, run(t, 0, bin, "flight", "-diff", dump, dump), `(?m)^counters moved \(0\)$`)
	})
	t.Run("detached", func(t *testing.T) {
		// A dump without a plane's section fails that plane's view with
		// exit status 1.
		empty := filepath.Join(dir, "empty.json")
		if err := os.WriteFile(empty, []byte(`{"reason": "no planes"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, view := range []string{"stat", "flight", "tail"} {
			run(t, 1, bin, view, "-read", empty)
		}
	})
	t.Run("top", func(t *testing.T) {
		// Two frames, each the client-side delta of two dumps: the
		// second frame's RPC line counts the second run's calls.
		out := run(t, 0, bin, "top", "-workload", "file1", "-iters", "2", "-interval", "0s")
		match(t, out, `frame 1/2`)
		match(t, out, `frame 2/2[^\x1b]*\nRPC +[1-9]\d* calls`)
	})
	t.Run("tail", func(t *testing.T) {
		// Per-(server, op) families recorded requests, exemplars were
		// retained, and at least one ledger is multi-hop: a file-server
		// request with its nested block-driver hop.
		out := run(t, 0, bin, "tail", "-cpus", "2", "-pool", "2", "-cache", "32", "-workload", "file1", "-top", "2")
		match(t, out, `(?m)^fileserver .* [1-9]`)
		match(t, out, `(?m)^\*call`)
		match(t, out, `(?m)^\*  call blockdrv`)
	})
	t.Run("trace-tree", func(t *testing.T) {
		// A causal tree nests an OS/2 call's RPC down to the disk's
		// reflected interrupt.
		out := run(t, 0, bin, "trace", "-workload", "file2", "-format", "tree", "-trees", "2")
		match(t, out, `(?m)^\(showing 2 of \d+ causal trees\)$`)
		match(t, out, `(?m)^os2:\S+  incl=[1-9]\d* .*\n  mach\.rpc:rpc:`)
		match(t, out, `(?m)^ {10,}iosys:intr:reflect  incl=[1-9]`)
	})
	t.Run("trace-chrome", func(t *testing.T) {
		// The Chrome trace is one JSON array of events with complete
		// ("X") spans among them.
		var events []struct {
			Ph string `json:"ph"`
		}
		if err := json.Unmarshal([]byte(run(t, 0, bin, "trace", "-workload", "file1", "-format", "chrome")), &events); err != nil {
			t.Fatalf("chrome trace is not a JSON array: %v", err)
		}
		spans := 0
		for _, e := range events {
			if e.Ph == "X" {
				spans++
			}
		}
		if spans == 0 {
			t.Errorf("chrome trace of %d events holds no X span", len(events))
		}
	})
	t.Run("trace-attr", func(t *testing.T) {
		// E-ATTR charges the crossing subsystems' cycles against the
		// WPOS-native gap.
		out := run(t, 0, bin, "trace", "-workload", "file1", "-format", "attr")
		match(t, out, `(?m)^  crossing cycles [1-9]\d* = [0-9.]+% of the gap$`)
	})
	t.Run("usage", func(t *testing.T) {
		run(t, 2, bin, "nosuch")
		run(t, 2, bin, "stat", "-workload", "nosuch")
		run(t, 2, bin, "tail", "-format", "nosuch")
	})
}

// run executes one child under a deadline, requires exit status want,
// and returns its stdout.
func run(t *testing.T, want int, name string, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(t.Context(), 90*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.WaitDelay = 5 * time.Second
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	got := 0
	if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
		got = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %s: %v", name, strings.Join(args, " "), err)
	}
	if got != want {
		t.Fatalf("%s %s: exit %d, want %d\n%s%s", name, strings.Join(args, " "), got, want, stdout.String(), stderr.String())
	}
	return stdout.String()
}

// match requires pattern in out and returns its first submatch, if any.
func match(t *testing.T, out, pattern string) string {
	t.Helper()
	m := regexp.MustCompile(pattern).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output does not match %s:\n%s", pattern, out)
	}
	return m[len(m)-1]
}

func atoi(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}
