GO ?= go

.PHONY: all build test check tables e2e chaos hostprof

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

# End-to-end tier: build cmd/kobs once, then run it as a child process
# per scenario — metrics over the monitor's RPC (stat, prom), an
# attributed profile window (prof), a 4-engine SMP run, a flight dump with
# its wait-for graph, saved-dump rendering, the tail ledger with nested
# driver hops, and the trace views (causal tree, Chrome JSON, E-ATTR gap
# attribution) — asserting each one's output.  The test reaps every
# process it starts.
e2e:
	$(GO) test -timeout 120s -run E2E ./cmd/kobs

# Chaos soak, full corpus: three seeds x 36,000 actions of mixed OS/2 +
# POSIX + MVM + RPC traffic through all six fault kinds with the invariant
# oracle on (tier-1 runs the same test at 6,000 actions per seed).
# A failure prints the exact -chaos.seed/-chaos.actions flags to replay it
# deterministically; see internal/chaos and EXPERIMENTS.md (E-CHAOS).
chaos:
	$(GO) test -timeout 600s ./internal/chaos -run 'TestChaosSoak|TestChaosSingleCPU|TestChaosDeterministic' -chaos.actions=36000 -v

# Host-cost profile: untraced File Intensive 1+2 passes under runtime/pprof,
# folded by package, then the top functions — where the Go simulator's own
# CPU goes while it produces Table 1's file rows.  Other rows: pass a row
# pattern to the script, e.g. sh scripts/hostprof.sh 'Graphics(Low|Medium|High)'.
# Foreground; exits.
hostprof:
	sh scripts/hostprof.sh
