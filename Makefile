GO ?= go

.PHONY: all build test check tables stats profile benchgate smp chaos blackbox tail hostprof

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 300s ./...

# Tier-2 gate: vet + race detector on the concurrency-heavy packages.
check:
	sh scripts/check.sh

tables:
	$(GO) run ./cmd/benchtables

# Smoke test the observability plane: boot wpos, run a workload, query the
# monitor server over the system's own RPC, and require nonzero RPC traffic
# in the Prometheus exposition.
stats:
	$(GO) run ./cmd/kstat -format prom -workload file1 | grep -E '^mach_rpc_calls_total [1-9]'
	@echo "stats smoke ok: monitor served a snapshot with live RPC counters"

# Smoke test the profiler end to end: boot wpos, open a profile window over
# the monitor's RPC, run a workload inside it, and require nonzero
# attributed cycles in the rendered breakdown.
profile:
	$(GO) run ./cmd/kprof -workload file1 -format servers | grep -E 'attributed [1-9][0-9]* cycles'
	@echo "profile smoke ok: kprof attributed the workload over the system's own RPC"

# Benchmark gate: regenerate Table 1 and fail on any WPOS/native ratio
# more than 5% above the committed BENCH_baseline.json.
benchgate:
	sh scripts/benchgate.sh

# SMP smoke: boot with 4 engines, run concurrent workloads, and assert
# nonzero per-engine cycles and migrations through the monitor's RPC.
smp:
	sh scripts/smp_smoke.sh

# Black-box smoke: boot wpos, run a workload, fetch a flight dump over the
# monitor's RPC, and assert nonzero flight-ring events per engine and a
# populated wait-for graph with no false deadlock cycles.
blackbox:
	sh scripts/blackbox_smoke.sh

# Tail-latency smoke: boot wpos, run a workload, fetch the tail dump over
# the monitor's RPC, and assert recorded request families plus retained
# exemplars with multi-hop (driver-chained) ledgers.
tail:
	sh scripts/tail_smoke.sh

# Chaos soak, full corpus: three seeds x 36,000 actions of mixed OS/2 +
# POSIX + MVM + RPC traffic through all six fault kinds with the invariant
# oracle on (tier-1 runs the same test at 6,000 actions per seed).
# A failure prints the exact -chaos.seed/-chaos.actions flags to replay it
# deterministically; see internal/chaos and EXPERIMENTS.md (E-CHAOS).
chaos:
	$(GO) test -timeout 600s ./internal/chaos -run 'TestChaosSoak|TestChaosSingleCPU|TestChaosDeterministic' -chaos.actions=36000 -v

# Host-cost profile: untraced File Intensive 1+2 passes under runtime/pprof,
# folded by package, then the top functions — where the Go simulator's own
# CPU goes while it produces Table 1's file rows.  Foreground; exits.
hostprof:
	sh scripts/hostprof.sh
