#!/bin/sh
# Host-cost profile of Table 1 rows: what the Go simulator spends its CPU
# on while producing them, untraced (every observation plane as core.Boot
# attaches it, none enabled beyond that).  The optional argument is a
# regular expression over the row names after BenchmarkTable1_, e.g.
#   sh scripts/hostprof.sh 'Graphics(Low|Medium|High)'
# and defaults to File Intensive 1 and 2.
# Prints the runtime/pprof CPU profile folded by package, then the top
# functions, so a host-cost change starts from a profile instead of a
# guess.  Runs in the foreground and exits; everything it writes goes to a
# temporary directory under .bench_build/ (git-ignored) that it removes.
# Fixed at 20 passes per row (a pass is a fresh boot plus one run of the
# row, WPOS and native) on one P, top 25 functions, so two profiles are
# comparable; for anything else run `go test -cpuprofile` directly.
set -eu
rows=${1:-FileIntensive[12]}

cd "$(dirname "$0")/.."
mkdir -p .bench_build
dir=$(mktemp -d "$PWD/.bench_build/hostprof.XXXXXX")
trap 'rm -rf "$dir"' EXIT
trap 'exit 1' HUP INT PIPE TERM

GOMAXPROCS=1 go test -timeout 300s -run '^$' -bench "Table1_($rows)\$" \
	-benchtime 20x -cpuprofile "$dir/cpu.pb.gz" -o "$dir/repro.test" . >"$dir/bench.txt" || {
	cat "$dir/bench.txt"
	exit 1
}
grep -E '^Benchmark' "$dir/bench.txt"

PPROF_TMPDIR="$dir" go tool pprof -top -nodecount=100000 -nodefraction=0 -unit=ms \
	"$dir/repro.test" "$dir/cpu.pb.gz" >"$dir/top.txt"

echo
echo "== flat CPU by package =="
awk '
	intable && NF >= 6 {
		name = $6
		for (i = 7; i <= NF; i++) name = name " " $i
		# The package path ends at the first dot after the last slash
		# (slashes inside receiver or type-argument brackets aside).
		path = name
		sub(/[[(].*/, "", path)
		slash = 0
		for (i = 1; i <= length(path); i++) if (substr(path, i, 1) == "/") slash = i
		rest = substr(name, slash + 1)
		dot = index(rest, ".")
		pkg = dot ? substr(name, 1, slash + dot - 1) : name
		flat = $1; sub(/ms$/, "", flat)
		sum[pkg] += flat; total += flat
	}
	$1 == "flat" { intable = 1 }
	END {
		for (p in sum) if (sum[p] > 0) printf "%10.0fms %6.1f%%  %s\n", sum[p], 100 * sum[p] / total, p
	}' "$dir/top.txt" | sort -rn

echo
echo "== top functions (flat) =="
awk '$1 == "flat" { intable = 1 } intable && n++ <= 25' "$dir/top.txt"
