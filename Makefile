# Convenience targets for the randrowswap-go reproduction.

GO ?= go

.PHONY: all build test test-short bench bench-figures bench-quick bench-guard bench-micro inline-check paranoid vet lint race chaos chaos-fleet chaos-replica loadgen-smoke fuzz serve experiments experiments-check examples alloc-check profile shootout-smoke sweep-smoke clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is what CI runs: vet (the root module and the nested benchmark
# module, which the root ./... skips) plus a gofmt cleanliness check.
lint: vet
	$(GO) -C benchmark vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# race runs the full suite under the race detector (the service layer
# is concurrency-heavy; CI runs this on every PR).
race:
	$(GO) test -race ./...

# paranoid is the full self-verification battery: the whole test suite
# under the race detector with the runtime invariant checks forced on
# (RRS_PARANOID=1 routes every sim.Run through the structural sweeps and
# shadow-model oracles), then the fault-injection suite, which proves
# each corruption class the structure packages can express is detected
# as a typed invariant violation.
paranoid:
	RRS_PARANOID=1 $(GO) test -race ./...
	$(GO) test -race -count=1 ./internal/invariant/

# chaos soaks the serving layer's failure handling under the race
# detector: fault-injected sweeps, journal crash/replay, panic
# isolation. Repeated (-count=2) to shake out ordering luck.
chaos:
	$(GO) test -race -count=2 -run 'Chaos|Journal' ./internal/service/... ./internal/chaos/...

# chaos-fleet is the multi-node soak: a 3-node fleet runs a sweep of
# real simulations while one member is kill -9'd mid-sweep and
# restarted from its journal on the same roster name. Every result must
# arrive exactly once, bit-identical to a plain-engine reference, and
# the survivors must visibly shrink the ring around the dead node. Runs
# under the race detector (the soak shortens its sweep accordingly).
chaos-fleet:
	$(GO) test -race -count=1 -run 'TestFleetSoak' -v ./internal/chaos/

# chaos-replica is the durable-fleet soak: a 3-node fleet with result
# replication completes a sweep, then the node that owns a completed
# result is kill -9'd. Resubmitting that spec must be answered from the
# successor's replica — a cache hit with zero re-executions anywhere,
# bit-identical to a plain-engine reference — and a replacement node
# then joins via gossip (-join semantics) and is routed work without
# any survivor restarting.
chaos-replica:
	$(GO) test -race -count=1 -run 'TestFleetReplica' -v ./internal/chaos/

# loadgen-smoke measures fleet capacity on an in-process 3-node fleet
# (real engine, loopback HTTP) and regenerates the committed
# BENCH_PR8.fleet.json artifact: closed-loop clients ramped 1→2→4, a
# quarter of the jobs re-using one hot spec to show the fleet-wide
# cache path.
loadgen-smoke:
	$(GO) run ./cmd/rrs-loadgen -local 3 -levels 1,2,4 -jobs-per-client 4 \
		-cache-fraction 0.25 -out BENCH_PR8.fleet.json

# fuzz hammers the spec and sweep decode/normalize/hash pipelines
# briefly, then the Retry-After parser and journal replay (never a
# panic, compaction a fixed point, every replayed done job resolvable
# in the result store), then the fleet's membership merge (the same
# table in any order or grouping, a re-merge changes nothing), then
# cross-checks the table-driven PRINCE against its reference core
# under fuzzed keys, and the trace-gap table against the Log1p
# expression under fuzzed MPKIs and draws. A sweep input can expand
# to 4096 children (~0.15 s per run), so minimizing one with the default
# 60 s budget would eat the whole sweep fuzz window; it is capped at 50
# runs.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSpecDecode -fuzztime 30s ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzSweepSpecDecode -fuzztime 20s -fuzzminimizetime 50x ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzParseRetryAfter -fuzztime 10s ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzReplayJournal -fuzztime 20s -fuzzminimizetime 50x ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzMembershipMerge -fuzztime 10s ./internal/fleet/
	$(GO) test -run '^$$' -fuzz FuzzCipherMatchesReference -fuzztime 10s ./internal/prince/
	$(GO) test -run '^$$' -fuzz FuzzExpGapMatchesLog1p -fuzztime 10s ./internal/trace/

# serve starts the simulation job service on :8080.
serve:
	$(GO) run ./cmd/rrs-serve

# bench runs the pinned performance-trajectory set (cmd/rrs-bench):
# representative sims, drift-checked against cmd/rrs-bench/pins.json
# and written to BENCH_PR7.json (the committed baseline bench-guard
# compares against; re-run and commit it when the benchmark machine
# changes). The hot-path micro-benchmarks are package benchmarks:
# go test -bench . ./internal/dram ./internal/memctrl ./internal/tracker ./internal/rit
bench:
	$(GO) run ./cmd/rrs-bench -pins cmd/rrs-bench/pins.json -out BENCH_PR7.json

# bench-quick is the CI smoke subset (fails on any stat drift).
bench-quick:
	$(GO) run ./cmd/rrs-bench -quick -pins cmd/rrs-bench/pins.json -out bench-quick.json

# bench-guard is bench-quick plus a throughput floor: with the paranoid
# checks off (the default), the geomean sim rate must stay within 2% of
# the BENCH_PR7.json baseline — the self-verification layer must cost
# nothing when disabled. The quick sims are sub-second, so the guard
# takes the fastest of 7 repetitions to keep scheduler noise from
# tripping a floor meant to catch code regressions.
bench-guard:
	$(GO) run ./cmd/rrs-bench -quick -reps 7 -pins cmd/rrs-bench/pins.json \
		-baseline BENCH_PR7.json -min-speedup 0.98 -out bench-quick.json

# bench-micro runs every package micro-benchmark once, so CI executes
# them rather than only compiling them; it measures nothing.
bench-micro:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# inline-check fails unless the compiler still inlines the per-access
# helpers whose speed rests on it: the PRINCE-CTR draws, the address
# decode, the cached tREFI window and the trace-gap lookup. An edit that
# pushes one over the inliner's budget of 80 turns it into a call on
# every access, which no test and no pinned statistic would notice.
INLINED := '(*CTR).Next' '(*CTR).Float64' '(*System).Decode' '(*System).RefreshWindow' '(*gapTable).lookup'
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/prince ./internal/dram ./internal/trace 2>&1) || { echo "$$out"; exit 1; }; \
	for f in $(INLINED); do \
		echo "$$out" | sed -n 's/.*: can inline //p' | grep -qxF "$$f" || { echo "inline-check: $$f is not inlinable"; exit 1; }; \
	done; echo "inline-check: all of $(INLINED) inline"

# alloc-check runs the per-access allocation pins: the hot path — and
# every hook layered onto it (paranoid checks, event recording) — must
# stay at 0 allocs/op when its feature is off. CI runs this next to
# bench-guard so an accidental allocation (closure capture, interface
# boxing) fails loudly instead of surfacing as throughput drift. The
# AllocBytes pins cap construction and first-swap allocation at Table 2
# geometry, and the served job's run, which must end with no bank
# holding per-row ACT counts, so a row-indexed array over a whole bank
# cannot come back unnoticed where only the touched rows need state.
# The same holds for CAT slots: an RRS is built without any, and a set
# gets its slots with its first entry. Rubix is built with its forward
# row maps only; a bank's inverse waits for the first Occupant call.
# The trace-gap tables stay under 1 MiB for Table 3's workloads, and a
# second generator with the same workload shares the first one's table.
alloc-check:
	$(GO) test -run 'AllocFree|AllocBytes' -count=1 ./internal/rit ./internal/tracker \
		./internal/dram ./internal/cat ./internal/obs ./internal/mitigation ./internal/cpu \
		./internal/sim ./internal/core ./internal/trace

# shootout-smoke runs the cross-defense comparison at quick scale with
# the invariant engine on: every mitigation in the zoo (RRS, the paper
# baselines, and the successors SRS/Rubix/MINT/PrIDE/DAPPER) must
# produce a perf + security + SRAM row and pass its structural checks.
shootout-smoke:
	$(GO) run ./cmd/rrs-experiments -shootout -scale 64 -epochs 1 \
		-workloads hmmer -paranoid

# sweep-smoke drives the server-side sweep API end to end with the real
# engine: a small sweep over HTTP, submitted twice — the second pass
# must be answered entirely from the result cache
# (rrs_sweep_children_cached_total proves it).
sweep-smoke:
	$(GO) test -run 'TestSweepSmoke' -count=1 -v ./internal/service/

# profile captures CPU and heap pprof profiles of the quick benchmark
# set. Inspect with `go tool pprof cpu.pprof` (web: add -http=:0).
profile:
	$(GO) run ./cmd/rrs-bench -quick -pins cmd/rrs-bench/pins.json \
		-out bench-profile.json -cpuprofile cpu.pprof -memprofile mem.pprof

# One benchmark per table/figure of the paper.
bench-figures:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Regenerate every table and figure (writes to stdout; about 40 s on a
# 2-vCPU host).
experiments:
	$(GO) run ./cmd/rrs-experiments -exp all -scale 16 -epochs 1

# experiments-check regenerates every table and figure, and the
# shootout table at shootout-smoke's settings, and fails on any byte of
# difference from the committed experiments_output.txt (which
# EXPERIMENTS.md quotes) or shootout_output.txt (the defenses' verdicts,
# DESIGN.md §11).
experiments-check:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/rrs-experiments -exp all -scale 16 -epochs 1 > "$$out" && \
	diff -u experiments_output.txt "$$out" && echo "experiments_output.txt is current" && \
	$(GO) run ./cmd/rrs-experiments -shootout -scale 64 -epochs 1 -workloads hmmer > "$$out" && \
	diff -u shootout_output.txt "$$out" && echo "shootout_output.txt is current"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/halfdouble
	$(GO) run ./examples/secanalysis
	$(GO) run ./examples/blockhammer

clean:
	$(GO) clean ./...
