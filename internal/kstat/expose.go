package kstat

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
)

// SortedKeys returns a map's keys in order, for deterministic renders.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Exposition formats over a Snapshot.  These render whatever snapshot
// they are given — full, delta, or filtered — so the CLI and the monitor
// protocol compose freely.

// WriteText renders a human-readable listing: counters and gauges one per
// line, histograms with count/mean/p50/p99/max.
func WriteText(w io.Writer, s Snapshot) error {
	for _, k := range SortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "%-44s %12d\n", k, s.Counters[k]); err != nil {
			return err
		}
	}
	for _, k := range SortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "%-44s %12d (gauge)\n", k, s.Gauges[k]); err != nil {
			return err
		}
	}
	for _, k := range SortedKeys(s.Histograms) {
		h := s.Histograms[k]
		if _, err := fmt.Fprintf(w, "%-44s n=%d mean=%.1f p50=%d p99=%d max=%d\n",
			k, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max()); err != nil {
			return err
		}
	}
	return nil
}

// promName sanitizes a family name into a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// engineFamily splits a per-engine cpu family name ("cpu.e<slot>.<rest>")
// into its rest and slot; ok is false for every other family.
func engineFamily(name string) (rest, slot string, ok bool) {
	const pfx = "cpu.e"
	if !strings.HasPrefix(name, pfx) {
		return "", "", false
	}
	tail := name[len(pfx):]
	dot := strings.IndexByte(tail, '.')
	if dot <= 0 {
		return "", "", false
	}
	slot = tail[:dot]
	for _, r := range slot {
		if r < '0' || r > '9' {
			return "", "", false
		}
	}
	return tail[dot+1:], slot, true
}

// promSeries maps a family name to its Prometheus metric name and label
// set.  Per-engine cpu families fold into one labeled metric:
// cpu.e1.migrations -> cpu_migrations{engine="1"}.  Everything else keeps
// its sanitized name with no labels.
func promSeries(name string) (metric, labels string) {
	if rest, slot, ok := engineFamily(name); ok {
		return promName("cpu." + rest), fmt.Sprintf(`{engine="%s"}`, slot)
	}
	return promName(name), ""
}

// WriteProm renders the snapshot in the Prometheus text exposition
// format: counters as <name>_total, gauges plain, histograms as
// cumulative <name>_bucket{le="..."} series plus _sum and _count.  Only
// occupied buckets (and the mandatory +Inf) are emitted; the series stays
// cumulative, so it parses as a standard histogram.  Per-engine cpu
// families share one metric name with an engine label; the TYPE header is
// emitted once per metric (engine series sort adjacently).
func WriteProm(w io.Writer, s Snapshot) error {
	lastType := ""
	for _, k := range SortedKeys(s.Counters) {
		n, lb := promSeries(k)
		if n != lastType {
			if _, err := fmt.Fprintf(w, "# TYPE %s_total counter\n", n); err != nil {
				return err
			}
			lastType = n
		}
		if _, err := fmt.Fprintf(w, "%s_total%s %d\n", n, lb, s.Counters[k]); err != nil {
			return err
		}
	}
	lastType = ""
	for _, k := range SortedKeys(s.Gauges) {
		n, lb := promSeries(k)
		if n != lastType {
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", n); err != nil {
				return err
			}
			lastType = n
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", n, lb, s.Gauges[k]); err != nil {
			return err
		}
	}
	for _, k := range SortedKeys(s.Histograms) {
		h := s.Histograms[k]
		n := promName(k)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		var cum uint64
		for _, i := range SortedKeys(h.Buckets) {
			cum += h.Buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, BucketUpper(i), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			n, h.Count, n, h.Sum, n, h.Count); err != nil {
			return err
		}
	}
	return nil
}
