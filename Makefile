# Developer entry points. `make check` is the full pre-merge gate.

GO ?= go

.PHONY: all build vet test race race-hot race-quant chaos bench bench-kernel-smoke bench-quant-smoke serve-smoke metrics-smoke cross bench-vet results-check fuzz-geometry loc check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Targeted race pass over the packages with lock-free hot paths (kernel
# worker pool, per-kind stat counters, pipeline stage drivers and the
# lazily created kernel producers they record on) — quicker
# than the full `race` sweep when iterating on the engine. ./internal/tensor
# includes the per-variant suites of the one GEMM driver (Fpw*, Qpw*) — among
# them TestFpwGatherMatchesReference, every float convolution's gather and
# the padded-tap contract under every tile — which swap the process-wide
# active tile and are therefore never t.Parallel.
race-hot:
	$(GO) test -race ./internal/tensor ./internal/runtime

# Quantized-path property tests under the race detector: kernel
# fast-vs-reference bit-identity at par > 1 (the GEMM driver, the depthwise
# plane walker, the tap-major pool against the one per-cell reference), the
# int8 codec, the scales a load frame carries (bit-exact on
# the wire, validated by the worker), the distributed quant pipeline and the
# int8 grid stage against local RunQ, and int8 pricing of the one-stage
# (capacity-aware OFL) plan.
race-quant:
	$(GO) test -race -run 'Quant|QCodec|QTensor|Qpw|Depthwise|PoolFast' ./internal/tensor ./internal/wire ./internal/runtime ./internal/core ./internal/schemes

# Fault-injection suite under the race detector: worker crashes, hangs,
# flaky connections and panics against the pipeline's recovery machinery
# (deadlines, retry, redial, re-balance) on strip and grid stages and on a
# device shared by several stages, plus the reconfiguration contract — every
# baseline scheme swapped with the pipeline in both precisions, swaps under
# concurrent submitters, a swap over a dead worker, Submit racing Close — and
# the worker's one compute lane holding a shared-device plan to its period.
# Every test carries a watchdog, so a recovery regression fails fast instead
# of wedging CI.
chaos:
	$(GO) test -race -timeout 300s -run 'Chaos|PanicContained|DeadlineFailsConn|Flaky|RunDegraded|SurvivesWorkerCrash|SubmitRacingClose|Adaptive|GridPlan|SharedDevice' ./internal/runtime ./internal/wire ./internal/simulate

# Smoke-run the execution-engine benchmarks (single iteration): catches
# bench-only compile errors and allocation regressions without a full sweep.
# SessionOpen is the boot cost of a float32 and an int8 session (ms/op, B/op).
bench:
	$(GO) test -run NONE -bench 'ConvForwardParallel|RunSegmentAlloc|ConvForwardTile|WireTensorCodec|KernelKinds|SessionOpen' -benchtime=1x -benchmem .

# One-iteration pass over the quant sweep at par 1 and 2 (bench_test.go's
# kernelShapes table, float32 vs int8): catches kernel dispatch and epilogue
# regressions on every kind — the GEMM walker's gather (stem224x3-32-s2,
# conv3x3s2, conv1x7), its in-place source (the pointwise shapes) and the
# depthwise tiles at both strides from 112-wide planes to 7-wide ones —
# without a full timing run.
bench-quant-smoke:
	$(GO) test -run NONE -bench QuantKernelKinds -benchtime=1x .

# One-iteration pass over the float kernel-kind sweep (the same kernelShapes
# table, reference vs production kernels, the latter's rows still named
# `blocked`): exercises every float32 vector tile (conv/pointwise/pool/gap/fc
# and the depthwise shapes at both strides) without a full timing run. Anchored so the
# quant sweep does not run twice inside `check`. The second line forces every
# tile variant the host runs in both dtypes (float: ZMM, YMM, portable; int8:
# VNNI, AVX2, portable) through the one GEMM driver: MobileNetV1's pointwise
# shapes in place and, through the gather, its stem, VGG-style 3x3s, and (float)
# Inception's 1x7 and ToyChain's layers.
bench-kernel-smoke:
	$(GO) test -run NONE -bench '^BenchmarkKernelKinds$$' -benchtime=1x .
	$(GO) test -run NONE -bench '^Benchmark(Fpw|Qpw)Variants$$' -benchtime=1x ./internal/tensor

# Serving-gateway smoke under the race detector: the full binary path
# (loopback workers, HTTP, micro-batcher, drain), the end-to-end
# byte-identity contract between /infer and a local run, a plan=apico
# session swapping plans at the Theorem-2 crossover, and plan=fused spreading
# a GAP/FC-tailed model over the cluster in both precisions.
serve-smoke:
	$(GO) test -race -count=1 -run 'PicoserveSmoke|GatewayInferMatchesLocalRun$$|GatewayAPICO|GatewayFused' ./cmd/picoserve ./internal/serve

# Metrics/SLO smoke under the race detector: boots the full picoserve binary
# with the watcher armed, scrapes GET /metrics for every instrumented series,
# and drives an injected SLO breach through the re-balancer.
metrics-smoke:
	$(GO) test -race -count=1 -run 'PicoserveMetricsSmoke|MetricsEndpoint|SLOBreachTriggersRebalance' ./cmd/picoserve ./internal/serve

# Cross-compile gate for the per-architecture asm surface: the NEON (arm64)
# kernels must assemble and the pure-Go fallback must build on an arch with
# no asm at all. Neither binary runs here — bit-identity on arm64 is
# enforced by the shared scalar contract and the property/fuzz suite.
cross:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./...
	GOOS=linux GOARCH=riscv64 $(GO) build ./...

# bench/ is its own module (go.mod with `replace pico => ../`), so `build`,
# `vet` and `test` above never compile it: an API rename that breaks the
# benchmark behind BENCHMARK.json would otherwise surface only when the
# benchmark next runs. About a second of vet plus the harness's own unit tests.
bench-vet:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# "The figures did not move" as a command: regenerate every table and figure
# of the paper (about 4 s) and diff against results/. Only table2's PICO and
# BFS columns are wall-clock planner times (and set its column widths), so
# that file is compared by its configuration and period-gap columns.
table2cols = awk '/^-/ {next} /^\(/ {print $$1, $$4; next} {print}'
results-check:
	@out=$$(mktemp -d) && trap 'rm -rf "$$out"' EXIT && \
	$(GO) run ./cmd/picobench -exp all -out "$$out" >/dev/null && \
	diff -r -x table2.txt results "$$out" && \
	$(table2cols) results/table2.txt >"$$out/want" && $(table2cols) "$$out/table2.txt" >"$$out/got" && \
	diff "$$out/want" "$$out/got"

# Explore the tile geometry (random kernel/stride/padding chains and rects
# against partition's brute-force oracle) beyond the committed seeds, which
# already run in every `go test`. For iterating; not part of `check`.
fuzz-geometry:
	$(GO) test -run NONE -fuzz FuzzTileGeometry -fuzztime=10s ./internal/partition

# Non-test Go lines per package plus assembly lines: the size numbers
# ROADMAP tracks as its aim-2 ("least code") success metric.
gocount = $$(find $(1) -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
loc:
	@for d in internal/* cmd bench; do printf '%-22s %6d\n' $$d $(call gocount,$$d); done
	@printf '%-22s %6d\n' 'runtime+serve+core' $(call gocount,internal/runtime internal/serve internal/core)
	@printf '%-22s %6d\n' 'internal + cmd' $(call gocount,internal cmd)
	@printf '%-22s %6d\n' 'asm (*.s)' $$(find . -name '*.s' -exec cat {} + | wc -l)

check: build vet cross bench-vet test race race-quant chaos bench bench-kernel-smoke bench-quant-smoke serve-smoke metrics-smoke results-check
