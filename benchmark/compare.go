package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares one metric of two records against the bound fixed in
// spec.  A change inside the passes' own spread, where that spread is
// wider than the bound, is unresolved rather than unchanged.
func judge(spec metricSpec, base, cur metric) (change float64, verdict string) {
	if base.Value == 0 {
		if cur.Value == 0 {
			return 0, verdictSame
		}
		return math.Inf(1), verdictUnresolved
	}
	// Positive change = worse, whichever direction is better.
	change = (cur.Value - base.Value) / math.Abs(base.Value)
	if spec.Better == higher {
		change = -change
	}
	noise := max(base.Spread, cur.Spread)
	switch {
	case noise > spec.Bound && math.Abs(change) <= noise:
		return change, verdictUnresolved
	case math.Abs(change) <= spec.Bound:
		return change, verdictSame
	case change > 0:
		return change, verdictWorse
	}
	return change, verdictBetter
}

// compareRecords prints one row per (workload, end-to-end metric) and
// returns how many rows got each verdict.
func compareRecords(base, cur *record) map[string]int {
	tally := map[string]int{}
	fmt.Printf("%-14s %-22s %16s %16s %8s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, w := range workloadSpecs {
		b, c := base.Workloads[w.Name], cur.Workloads[w.Name]
		if b == nil || c == nil {
			fmt.Printf("%-14s missing from a record\n", w.Name)
			tally[verdictUnresolved]++
			continue
		}
		for _, spec := range endToEnd {
			bm, cm := b.EndToEnd.Metrics[spec.Name], c.EndToEnd.Metrics[spec.Name]
			_, v := judge(spec, bm, cm)
			tally[v]++
			fmt.Printf("%-14s %-22s %16.4f %16.4f %8.4f %6.1f%%  %s\n",
				w.Name, spec.Name, bm.Value, cm.Value, ratio(cm.Value, bm.Value), spec.Bound*100, v)
		}
	}
	fmt.Printf("better %d, same %d, worse %d, unresolved %d (base %s seed %d, new %s seed %d)\n",
		tally[verdictBetter], tally[verdictSame], tally[verdictWorse], tally[verdictUnresolved],
		base.Commit, base.Seed, cur.Commit, cur.Seed)
	return tally
}

func loadRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := &record{}
	if err := json.Unmarshal(b, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// compareFiles is -compare: it fails when any row is worse.
func compareFiles(basePath, curPath string) error {
	base, err := loadRecord(basePath)
	if err != nil {
		return err
	}
	cur, err := loadRecord(curPath)
	if err != nil {
		return err
	}
	if n := compareRecords(base, cur)[verdictWorse]; n > 0 {
		return fmt.Errorf("%d metric(s) worse than %s by more than their bound", n, basePath)
	}
	return nil
}

// selfCheck is -selfcheck: two suites of the same commit must agree on
// every (workload, end-to-end metric) pair within the metric's bound.
func selfCheck(o options) error {
	first, err := runSuite(o, "")
	if err != nil {
		return err
	}
	if err := first.finish(""); err != nil {
		return err
	}
	second, err := runSuite(o, "")
	if err != nil {
		return err
	}
	if err := second.finish(""); err != nil {
		return err
	}
	tally := compareRecords(first, second)
	if n := tally[verdictBetter] + tally[verdictWorse]; n > 0 {
		return fmt.Errorf("selfcheck: %d pair(s) of the same commit disagree beyond their bound", n)
	}
	return nil
}
