#!/bin/sh
# Tier-2 gate: static analysis plus race-detector runs of the packages with
# real concurrency (the tracer's ring is hammered by concurrent emitters;
# kstat's sharded counters and histograms are recorded from every server
# thread at once; mach runs server pools and bound threads; vfs and os2
# serve pooled multi-threaded RPC with shared bookkeeping hammered by their
# pool tests; the monitor serves pooled snapshot queries over that RPC;
# bcache is hit by every file-server pool thread at once; kprof's charge
# sink and context stack are driven from every charging thread at once;
# cpu's Complex routes every charge through a per-OS-thread binding table
# while the SMP dispatcher binds/steals from many goroutines at once;
# kflight's lock-free rings are swept by dump queries racing live
# emitters while the watchdog polls the kstat fabric from its own
# goroutine; the vectored paths move region descriptors and batched
# sub-messages between client threads and pooled servers with zero
# copies, so aliasing bugs there surface only under the race detector —
# the vfs and drivers suites drive CallV/ReadV/WriteV/StatBatch and the
# vectored write-behind flush from many concurrent clients; klat's
# per-request hops are stamped by whichever thread holds the message —
# client, pool worker, carrier demux — while monitor dump queries walk
# live ledgers under the family locks, and TestLedgerParentsUnderPools
# drives four pooled servers nesting calls through one shared thread
# against four unbound clients; cpu's flat TLB and caches are replayed
# against their map/slice reference models over a million accesses each).
# Tier-1 (go build && go test ./...) stays the merge gate; this catches
# data races tier-1 cannot.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go test -race ./internal/cpu/... ./internal/kstat/... ./internal/ktrace/... ./internal/kprof/... ./internal/kflight/... ./internal/klat/... ./internal/mach/... ./internal/vfs/... ./internal/os2/... ./internal/monitor/... ./internal/bcache/... ./internal/drivers/...

# Chaos short soak under the race detector: one seed, all six fault kinds,
# full invariant oracle.  Kept -short so the race-instrumented run stays in
# CI budget; `make chaos` runs the same corpus without instrumentation and
# a failure in either prints the -chaos.seed flags for deterministic replay.
go test -race ./internal/chaos/ -short -run 'TestChaosSoak|TestChaosSingleCPU'

# Benchmark gate: regenerate Table 1 and fail on any WPOS/native ratio
# drifting more than 5% above the committed BENCH_baseline.json — the
# always-on flight recorder must stay invisible to the cost model here
# just as the bit-identical tests require.
sh scripts/benchgate.sh
