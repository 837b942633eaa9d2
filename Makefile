GO ?= go

# Packages with benchmarks: the figure suite at the root, the event engine
# microbenchmarks, the observability hot-path (hooks-disabled overhead), the
# per-layer request-path rungs (the driver's issue loop over a fixed-capacity
# stub, an iMC channel's store back-pressure over a real DIMM, DIMM read
# miss, on-DIMM DRAM access), the CPU substrate (the core over a
# fixed-latency stub, building the L3), and nvmserved's reply path (a cached
# submission through the HTTP handler) and cloud-job trace capture.
BENCH_PKGS = ./ ./internal/sim/ ./internal/obs/ ./internal/mem/ ./internal/imc/ ./internal/nvdimm/ ./internal/dram/ ./internal/cpu/ ./internal/cache/ ./internal/server/

.PHONY: ci build vet test test-builds race fmt-check fmt fuzz-smoke fuzz bench bench-smoke bench-diff profile-figure event-counts trace-smoke ckpt-smoke cluster-smoke cluster-demo chaos-smoke dash-smoke digests-check

# ci is the gate: vet, build, the full suite under the race detector
# (including the nvmserved integration tests and the randomized ADR
# crash-consistency property test), the tests of the builds ./... does not
# reach, a short fuzz smoke per target, a single-iteration bench smoke, a
# trace-export smoke, a checkpoint/restore smoke, a 3-node cluster smoke, a
# seeded chaos soak, a fleet-dashboard smoke, the perfbench digest check,
# and a gofmt check.
ci: vet build race test-builds fuzz-smoke bench-smoke trace-smoke ckpt-smoke cluster-smoke chaos-smoke dash-smoke digests-check fmt-check

# digests-check runs every perfbench catalogue job and figure through the
# benchmark's own build and compares the digests it records, byte for byte,
# with perfbench/digests.txt: the exactness gate for a change meant to keep
# every output. The digests were recorded on amd64 and, like the golden
# files, are compared only there.
digests-check:
	@if [ "$$($(GO) env GOARCH)" != amd64 ]; then \
		echo "digests-check: digests recorded on amd64, skipped on $$($(GO) env GOARCH)"; exit 0; fi; \
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	bash perfbench/run.sh --record $$tmp/digests.txt && \
	cmp $$tmp/digests.txt perfbench/digests.txt && \
	echo "digests-check: every catalogue job and figure matches perfbench/digests.txt"

# dash-smoke boots a 2-node in-process loopback fleet, runs one job, fetches
# GET /v1/dashboard/data from every member, and validates the payload twice:
# nvmload checks liveness, fleet-wide stage aggregates, and verdict-tally
# stability across members and refetches; tracecheck re-validates the written
# JSON independently (bucket arithmetic, membership, regime tallies).
dash-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/nvmload -dash -dash-out $$tmp/dash.json && \
	$(GO) run ./cmd/tracecheck -dash $$tmp/dash.json

# chaos-smoke runs the seeded in-process chaos soak: a 3-node fleet under
# drops, delays, duplication, slow-drip, a corruption-injecting peer, and a
# healed full partition — asserting byte-identity against a solo reference,
# bounded dispatch attempts, quarantine of the corrupter, anti-entropy
# replica convergence, an exactly-replayable fault schedule, and no
# goroutine leaks. Same seed = same faults, so failures reproduce.
chaos-smoke:
	$(GO) run ./cmd/nvmload -chaos -points 12 -steps 8000 -chaos-seed 1

# ckpt-smoke drives checkpoint/restore end to end through the vans CLI:
# a checkpointing run, a restore that must reproduce the original output
# byte for byte, and a corrupted snapshot that must be rejected (non-zero
# exit) rather than resumed.
ckpt-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/vans ./cmd/vans && \
	$$tmp/vans -pattern chase -region 256K -ckpt-every 1000 \
		-checkpoint $$tmp/snap.ckpt -json > $$tmp/a.json 2>/dev/null && \
	$$tmp/vans -pattern chase -region 256K -ckpt-every 1000 \
		-restore $$tmp/snap.ckpt -json > $$tmp/b.json 2>/dev/null && \
	cmp $$tmp/a.json $$tmp/b.json && \
	head -c 200 $$tmp/snap.ckpt > $$tmp/torn.ckpt && \
	if $$tmp/vans -pattern chase -region 256K -ckpt-every 1000 \
		-restore $$tmp/torn.ckpt -json >/dev/null 2>&1; then \
		echo "ckpt-smoke: torn snapshot was accepted"; exit 1; fi && \
	echo "ckpt-smoke: restore identity and corruption rejection OK"

# cluster-smoke boots a 3-node loopback fleet through nvmload -demo and
# verifies the whole cluster story end to end: consistent-hash sharding,
# peer cache fill, hedged dispatch around a handicapped straggler, a
# SIGKILLed node mid-sweep, and a checkpointing job whose runner is
# SIGKILLed once a survivor holds its snapshot — every phase checked
# byte-identical against a single-node reference. Small sweep sizes keep
# the gate fast.
cluster-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/nvmserved ./cmd/nvmserved && \
	$(GO) build -o $$tmp/nvmload ./cmd/nvmload && \
	$$tmp/nvmload -demo -serve-bin $$tmp/nvmserved \
		-points 12 -throughput-points 24 -kill-points 24

# cluster-demo is the full-size showpiece run of the same orchestration.
cluster-demo:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/nvmserved ./cmd/nvmserved && \
	$(GO) build -o $$tmp/nvmload ./cmd/nvmload && \
	$$tmp/nvmload -demo -serve-bin $$tmp/nvmserved

# trace-smoke exports a tiny Chrome trace through `vans -trace` and validates
# it with tracecheck — the end-to-end guard on the trace_event exporter.
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/vans -pattern seq -bytes 16K -op store-nt \
		-trace $$tmp/trace.json >/dev/null 2>&1 && \
	$(GO) run ./cmd/tracecheck $$tmp/trace.json

# bench refreshes BENCH_quick.json, the checked-in performance snapshot:
# every benchmark three times with allocation stats, averaged per name.
# The snapshot is staged and checked before replacing the committed one, so
# a run that produced no measurements (filtered out, build skew, crash mid
# -pipe) fails the target instead of silently emptying the baseline.
bench:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) test -run '^$$' -bench . -benchmem -count 3 $(BENCH_PKGS) \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > $$tmp && \
	if ! grep -q ns_op $$tmp; then \
		echo "bench: no benchmark results captured; BENCH_quick.json left untouched"; exit 1; fi && \
	mv $$tmp BENCH_quick.json

# bench-smoke runs each benchmark once — catches benchmarks that broke
# without paying for a measurement-grade run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)

# bench-diff measures the current tree (same protocol as `make bench`) and
# compares it against the checked-in BENCH_quick.json baseline, failing on any
# benchmark whose ns/op or allocs/op regressed beyond the tolerance.
# Override with e.g. `make bench-diff BENCH_TOLERANCE=25` on noisy hosts.
BENCH_TOLERANCE ?= 15
bench-diff:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	$(GO) test -run '^$$' -bench . -benchmem -count 3 $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson > $$tmp && \
	$(GO) run ./cmd/benchjson -diff -tolerance $(BENCH_TOLERANCE) BENCH_quick.json $$tmp

# profile-figure runs one root figure bench once under the CPU profiler and
# prints the share of CPU samples whose leaf function lies in each model
# layer: `make profile-figure FIG=Fig4Characterization` (the name after
# "Benchmark" in bench_test.go). Packages outside the listed layers fold
# into "other"; the Go runtime (GC, scheduler, memmove) is "runtime".
FIG ?= Fig4Characterization
profile-figure:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) test -run '^$$' -bench '^Benchmark$(FIG)$$' -benchtime 1x \
		-cpuprofile $$tmp/cpu.prof -o $$tmp/bench.test . > $$tmp/bench.out && \
	grep -q '^Benchmark$(FIG)' $$tmp/bench.out || { echo "profile-figure: no bench named Benchmark$(FIG)"; exit 1; }; \
	$(GO) tool pprof -top -nodecount=1000000 -nodefraction=0 $$tmp/bench.test $$tmp/cpu.prof 2>/dev/null | \
	awk 'BEGIN { n = split("sim dram nvdimm imc media mem cpu cache obs runtime other", order, " ") } \
		/Total samples/ { total = $$0; sub(/.*Total samples = /, "", total); sub(/ .*/, "", total) } \
		/^ *[0-9.]+[a-z]*s? +[0-9.]+% / { \
			share = $$2; sub(/%/, "", share); name = $$6; layer = "other"; \
			if (name ~ /^runtime[.]/) layer = "runtime"; \
			else if (match(name, /^repro\/internal\/[a-z]+[.]/)) { \
				p = substr(name, 16, RLENGTH - 16); \
				if (p ~ /^(sim|dram|nvdimm|imc|media|mem|cpu|cache|obs)$$/) layer = p }; \
			got[layer] += share } \
		END { printf "CPU samples by leaf package (Benchmark$(FIG), %s sampled):\n", total; \
			for (i = 1; i <= n; i++) printf "  %-8s %5.1f%%\n", order[i], got[order[i]] }'

# event-counts prints the events the engine fires per handler and the ticks
# it passes per parked poll, with counts per access, for one store-write job
# (4 MB store-nt, wear 50, a barrier every 4,096 stores) and one 64 MB chase
# job. The counters exist only under the simcount build tag: the default
# build compiles none of them.
event-counts:
	$(GO) test -tags simcount -run '^TestEventCounts$$' -count 1 -v ./internal/vans/

# fuzz-smoke runs each fuzz target briefly off the checked-in seed corpus —
# enough to catch parser/validator regressions without stalling the gate.
fuzz-smoke:
	$(GO) test ./internal/units/ -run '^$$' -fuzz=FuzzParseSize -fuzztime=5s
	$(GO) test ./internal/server/ -run '^$$' -fuzz=FuzzJobSpec -fuzztime=5s
	$(GO) test ./internal/ckpt/ -run '^$$' -fuzz=FuzzCheckpointDecode -fuzztime=5s
	$(GO) test ./internal/chaos/ -run '^$$' -fuzz=FuzzChaosSpec -fuzztime=5s

# fuzz digs longer; run it when touching the parsers or the job model.
fuzz:
	$(GO) test ./internal/units/ -run '^$$' -fuzz=FuzzParseSize -fuzztime=2m
	$(GO) test ./internal/server/ -run '^$$' -fuzz=FuzzJobSpec -fuzztime=2m
	$(GO) test ./internal/ckpt/ -run '^$$' -fuzz=FuzzCheckpointDecode -fuzztime=2m
	$(GO) test ./internal/chaos/ -run '^$$' -fuzz=FuzzChaosSpec -fuzztime=2m

build:
	$(GO) build ./...

# vet covers every build the repo ships: the default one, the simcount
# event counters (compiled only under that tag), and the perfbench module,
# which lies outside the root module's ./...
vet:
	$(GO) vet ./...
	$(GO) vet -tags simcount ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

# test-builds runs the tests that only the other builds compile: the engine
# and VANS under the simcount tag, and the perfbench module's own.
test-builds:
	$(GO) test -tags simcount ./internal/sim/ ./internal/vans/
	cd perfbench && $(GO) test ./...

# race runs every package and every test under the race detector. The
# figure suite in internal/exp is the long pole: about 10 minutes on a 2-vCPU
# host, at go test's 10-minute default, so the timeout is explicit with
# ample headroom.
race:
	$(GO) test -race -timeout 40m ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -w .
