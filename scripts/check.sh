#!/bin/sh
# Tier-2 gate: static analysis plus race-detector runs of the packages with
# real concurrency.  The five observation planes (kstat, ktrace, kprof,
# kflight, klat) consume one record stream: each engine publishes its plane
# set copy-on-write, and every stamp point builds one cpu.Event and hands
# it to that set with one atomic load, so attach and detach race live RPC
# traffic by design — the monitor's prof.start does it at run time, and
# the isolation tests drive kprof and klat on and off under a four-client
# Call loop.  Around that attachment the records are consumed from every
# server thread at once: one cpu.Ring type holds the trace and the
# per-engine flight rings (swept by dump queries), one
# open-record stack per engine gives the trace its parents and kprof its
# context, kstat's sharded counters and histograms and kprof's charge sink
# take their updates, and klat's hops are stamped by whichever thread
# holds the message while monitor queries walk live ledgers; mach, vfs, os2,
# bcache, drivers and registry serve pooled, vectored and region RPC from
# many clients (aliasing bugs there surface only under the race detector),
# with the request context named, not discovered — TestLedgerParentsUnderPools,
# TestRequestContextExact and TestFlushNamesItsRequest run here; servers
# are passive, so a caller runs its handler under a pool slot it takes
# from the pool's free list, and the slot-wait, send-once and pool-bound
# tests run fifty times over under the detector, and so do the kernel
# lock's FIFO handoff and the volume lock every file system, cache and
# device adapter relies on instead of a lock of its own (fat, hpfs, jfs
# and mono, which keep none, run under the detector too); cpu's
# Complex routes every charge through a per-OS-thread binding table while
# the SMP dispatcher binds and steals from many goroutines; and cmd/kobs
# runs the end-to-end tier, the CLI as a child process per scenario.
# Tier-1 (go build && go test ./...) stays the merge gate; this catches
# data races tier-1 cannot.
set -eux

cd "$(dirname "$0")/.."

# The gate owns what it starts: each step runs in the background in a
# process group of its own (setsid, where the host has it) and is waited
# for, so a signal interrupts the wait at once and the trap takes the
# whole group down — go and the test binaries alike — instead
# of leaving them to finish on their own after the gate is gone.
if command -v setsid >/dev/null 2>&1; then own=setsid; else own=; fi
job=
cleanup() {
	trap - INT TERM HUP
	if [ -n "$job" ]; then
		kill -TERM "-$job" 2>/dev/null || kill -TERM "$job" 2>/dev/null || true
		wait "$job" 2>/dev/null || true
	fi
	exit 130
}
trap cleanup INT TERM HUP
run() {
	$own "$@" &
	job=$!
	wait "$job"
	job=
}

run go vet ./...

# Formatting drift fails here, not in a later PR that has to reformat it.
test -z "$(gofmt -l .)"

# The request context is named by the handler that holds the message; a
# stack unwind to find it must not come back.
if grep -n 'runtime\.Stack' $(find internal/klat internal/mach internal/vfs internal/bcache internal/drivers -name '*.go' ! -name '*_test.go'); then
	echo "check: runtime.Stack in a non-test file of klat/mach/vfs/bcache/drivers" >&2
	exit 1
fi

# What a request holds across a kernel call is a mach.Lock, which the
# kernel sees; a host mutex in the file path must be held across none, and
# scripts/mutex-allowlist.txt says why for each one.
find internal/vfs internal/bcache internal/drivers internal/fat internal/hpfs internal/jfs -name '*.go' ! -name '*_test.go' | sort |
	xargs awk 'FNR == 1 { typ = "" } /^type [A-Za-z0-9_]+ struct/ { typ = $2 } /sync\.(RW)?Mutex/ { print FILENAME " " typ "." $1 }' |
	while read -r file field; do
		if ! grep -q "^$file $field " scripts/mutex-allowlist.txt; then
			echo "check: host mutex $field in $file is not on scripts/mutex-allowlist.txt" >&2
			exit 1
		fi
	done

# Emission goes through the one record: a stamp point builds a cpu.Event
# and hands it to its engine's plane set, so no emitter reaches for a
# plane of its own.  The read side (flight dumps, the monitor, the bench
# library, kobs and the benchmark) may.
if grep -nE '(ktrace|kflight|klat)\.(For|From)\(|\.Push\("' $(find . -name '*.go' ! -name '*_test.go' \
	! -path './internal/cpu/*' ! -path './internal/kstat/*' ! -path './internal/ktrace/*' \
	! -path './internal/kprof/*' ! -path './internal/kflight/*' ! -path './internal/klat/*' \
	! -path './internal/mach/flight.go' ! -path './internal/monitor/*' ! -path './internal/bench/*' \
	! -path './cmd/kobs/*' ! -path './benchmark/*'); then
	echo "check: a plane reached for outside the record fan-out" >&2
	exit 1
fi

# Every kernel wait parks and wakes through one pair in
# internal/mach/park.go: mach keeps no condition variable, and no blocking
# select outside that file.
if grep -nE 'sync\.(NewCond|Cond)\b' $(find internal/mach -name '*.go' ! -name '*_test.go') ||
	grep -nE '^\s*select \{' $(find internal/mach -name '*.go' ! -name '*_test.go' ! -name park.go); then
	echo "check: a kernel wait outside mach's park/wake pair" >&2
	exit 1
fi

# kstat reads the dispatcher's, pools', port sets' and threads' levels
# where they live: each registers reads of its own state (GaugeFunc,
# CounterFunc) when it is built, and no family is looked up by name on
# the call, slot-claim, burst or thread-death path.
if grep -nE '\.(Counter|Gauge|Histogram)\(' internal/mach/rpc.go internal/mach/pool.go internal/mach/sched.go \
	internal/mach/portset.go internal/mach/park.go internal/mach/task.go; then
	echo "check: a by-name kstat lookup in mach's rpc, pool, sched, portset, park or task" >&2
	exit 1
fi

# A deadlock — a turn or a rendezvous nobody releases — must fail in
# seconds, not hang for go test's ten-minute default.
run go test -race -timeout 300s ./internal/cpu/... ./internal/kstat/... ./internal/ktrace/... ./internal/kprof/... ./internal/kflight/... ./internal/klat/... ./internal/mach/... ./internal/vfs/... ./internal/os2/... ./internal/monitor/... ./internal/bcache/... ./internal/drivers/... ./internal/registry/... ./internal/fat/... ./internal/hpfs/... ./internal/jfs/... ./internal/mono/... ./cmd/kobs/...

# The slot lifecycle: a kept reply, a deadline firing while every slot
# is busy (direct and through a port set), a slot killed mid-handler, two
# calls racing through one send-once right, and a pool never running more
# handlers than it has slots.  Rare interleavings, so many runs.
run go test -race -count=50 -timeout 300s -run 'TestExchange|TestReusedRequestIsRoot|TestSendOnceRace|TestPoolNeverRunsMoreThanSize' ./internal/mach/

# The kernel lock: FIFO handoff with the releaser queued behind a
# waiter, the wait-for edge shown until the handoff (for a carrier's
# sub-request too), and a volume's requests taking turns on it, device-
# and RAM-backed.  With it, the one park/wake pair: every kind of wait
# under every waker that applies, and termination or a deadline racing a
# grant without losing the slot or the lock.
run go test -race -count=50 -timeout 300s -run 'TestLockFIFOHandoff|TestLockUncontendedAllocatesNothing|TestLockWaitFromCarrierSub|TestParkWakeTable|TestParkWakeRaces' ./internal/mach/
run go test -race -count=50 -timeout 300s -run 'TestVolumeLockTurns' ./internal/vfs/

# The file server's batches are CallV carriers of single ops: each batch
# op crosses once, on a single-threaded and a pooled server, and
# region-placed and out-of-line subs from concurrent clients share the
# pooled server's slots and volume lock.
run go test -race -count=20 -timeout 300s -run 'TestBatchOpsAreOneCarrier|TestConcurrentRegionTransfer' ./internal/vfs/

# A pool's busy gauge falls at the reply commit, before the caller is
# released: read the instant each call returns, over many boots.
run go test -race -count=50 -timeout 300s -run 'TestPoolBusyFallsBeforeReply' ./internal/mach/

# The cost model's inner loop (TLB, cache sets, miss charges) with no
# boot around it, run once so the benchmark cannot rot; compare runs of
# it with benchstat.
run go test -run '^$' -bench Touch -benchtime 1x -timeout 120s ./internal/cpu

# Chaos short soak under the race detector: one seed, all six fault kinds,
# full invariant oracle, and one seed's op streams pinned worker by worker.
# Kept -short so the race-instrumented run stays in CI budget; a failure
# prints the -chaos.seed flags for deterministic replay.
run go test -race -timeout 300s ./internal/chaos/ -short -run 'TestChaosSoak|TestChaosSingleCPU|TestChaosDeterministic'

# The one stall detector and the postmortem it writes: drain fires on a
# worker stuck in a pool call (naming the busy gauge) and on one holding
# no kernel wait, guard fires on a harness sync blocked on a held volume
# lock, and fail's dump parses with the stuck call's edge.
run go test -race -count=20 -timeout 300s -run 'TestDrainNamesStall|TestFailWritesFlightDump' ./internal/chaos/

# The full chaos corpus, uninstrumented: three seeds x 36,000 actions.
# Tier-1 runs the same test at 6,000 actions per seed; this is where the
# >=100k-operation soak lives (`make chaos` runs it too).
run go test -timeout 600s ./internal/chaos/ -run TestChaosSoak -chaos.actions=36000

# The paper's tables, exactly: every Table 1 cycle count, every cell of
# the file-path matrix and of the E-XFER sweep, the transfer crossover
# and the file-intensive payoff, and Table 1's shape against the paper.
# Modeled cycles are deterministic, so they are pinned to the cycle here;
# host time is judged by wposbench records (benchmark/, records/).
run go test -timeout 300s -run 'TestCacheObservationOff|TestFileMatrixPinned|TestXferSweepPinned|TestXferRegionZeroPerByte|TestXferFileIntensiveImproves|TestTable1AgainstPaper' .

# internal/bench's shared pieces under the race detector: the client
# fan-out (E-POOL's concurrent phase, the one-client E-SMP cells) and the
# kernel-only RPC rig with its bracket (Table 2, E-CTR, E-PROF, every
# pinned rig cell).
run go test -race -count=3 -timeout 300s -run 'TestServerPoolScaling|TestECTRCounterDerivedTable2' .
run go test -race -count=3 -timeout 300s -run 'TestEPROF|TestRigCellsPinned' ./internal/bench/
