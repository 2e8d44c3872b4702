# Developer entry points. `make check` is the full pre-merge gate.

GO ?= go

.PHONY: all build fmt vet test race race-hot race-quant chaos testbed bench bench-kernel-smoke bench-fpw bench-dw bench-quant-smoke serve-smoke metrics-smoke cross purego bench-vet results-check fuzz-geometry fuzz-plan fuzz-exec fuzz-infer fuzz-speeds loc check

all: check

build:
	$(GO) build ./...

# Formatting gate: lists any Go file gofmt would rewrite and fails if there is
# one.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Targeted race pass over the packages with hot-path concurrency (per-kind
# stat counters, pipeline stage drivers and the lazily created kernel series
# they record on, the telemetry series' writer and fold locks) — quicker
# than the full `race` sweep when iterating on the engine. ./internal/tensor
# includes the per-variant suites of the one GEMM driver (Fpw*, Qpw*) — among
# them TestFpwGatherMatchesReference, every float convolution's gather and
# the padded-tap contract under every tile — which swap the process-wide
# active tile and are therefore never t.Parallel.
race-hot:
	$(GO) test -race ./internal/tensor ./internal/runtime ./internal/telemetry

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
# the worker's one compute lane holding a shared-device plan to its period —
# and the request path: caller-owned result slots nobody reads stalling
# neither the pipeline nor Close, and the gateway's ledger balancing, with no
# goroutine left behind, while a worker crashes under a burst whose clients
# partly hang up, and Shutdown waiting for a session it retired with a tile
# still hung. The pipeline runs at its production retry and redial policy
# (constants, not options). Every test carries a watchdog, so a recovery
# regression fails fast instead of wedging CI.
chaos:
	$(GO) test -race -timeout 300s -run 'Chaos|PanicContained|DeadlineFailsConn|Flaky|SurvivesWorkerCrash|SubmitRacingClose|SubmitToContract|GatewayLedgerUnderFault|ShutdownWaitsForRetiredSession|Adaptive|GridPlan|SharedDevice' ./internal/runtime ./internal/wire ./internal/serve

# The paper's testbed in virtual time: the real pipeline, workers and kernels
# over an in-memory network inside a testing/synctest bubble (the tagged
# internal/runtime/testbed_test.go), ToyChain and TinyGraph through the LW,
# EFL, OFL and PICO plans on the eight PaperHeterogeneous() emulated-speed
# devices in both precisions: per-device compute seconds and PICO's period
# against the cost model, every output against a local run. A block that is
# not durable shows as a silent hang, not a panic, hence the timeout.
testbed:
	GOEXPERIMENT=synctest $(GO) vet ./internal/runtime
	GOEXPERIMENT=synctest $(GO) test -count=1 -timeout 120s -run Testbed ./internal/runtime

# Smoke-run the execution-engine benchmarks (single iteration): catches
# bench-only compile errors and allocation regressions without a full sweep.
# SessionOpen is the boot cost of a float32 and an int8 session (ms/op, B/op),
# split into open-ms and first-result-ms.
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
# Inception's 1x7 and ToyChain's layers — and every depthwise variant (AVX-512
# run tiles, AVX2, portable) through both plane walkers on MobileNetV1's
# depthwise shapes and its 13-layer sum.
bench-kernel-smoke:
	$(GO) test -run NONE -bench '^BenchmarkKernelKinds$$' -benchtime=1x .
	$(GO) test -run NONE -bench '^Benchmark((Fpw|Qpw)Variants|DepthwisePlanes)$$' -benchtime=1x ./internal/tensor

# The float GEMM's timing table (BenchmarkFpwVariants: per-layer GMAC/s and
# the mnv1-pointwise row, MobileNetV1's 13 pointwise layers per op), one tile
# variant per `go test -cpu 1` process: run in one process, a variant's rows
# depend on which variant ran before it. A variant the host lacks matches
# no row. To compare a variant across commits, alternate the two trees' runs.
bench-fpw:
	@for v in avx512 avx2 portable; do \
		$(GO) test -run NONE -bench "^BenchmarkFpwVariants$$/./^$$v$$" -cpu 1 ./internal/tensor || exit 1; \
	done

# The depthwise timing table (BenchmarkDepthwisePlanes: each MobileNetV1
# depthwise shape and the mnv1-13 sum, both dtypes), one variant per
# `go test -cpu 1` process: run after the avx512 rows in one process, the
# avx2 rows read up to 1.6x slower than alone. A variant the host lacks
# matches no row. Not part of `check`.
bench-dw:
	@for v in avx512 avx2 portable; do \
		$(GO) test -run NONE -bench "^BenchmarkDepthwisePlanes$$/././^$$v$$" -cpu 1 ./internal/tensor || exit 1; \
	done

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

# Cross-compile gate: amd64 is the only architecture with asm, so every other
# one — arm64 here — builds the portable kernels of simd_generic.go, which
# `purego` tests on an amd64 host. Those must round exactly as amd64 does:
# MAC chains call fma32, which on arm64 is the one line `return a*b + c`
# (fma_arm64.go) that gc fuses into FMADDS, and every other product is
# wrapped in float32(). So the last line fails if any fused multiply-add in
# internal/tensor's arm64 listing comes from another line, if there is none
# at all (fma32 stopped fusing) and on an empty listing.
fmaline = $$(grep -n 'return a\*b + c' internal/tensor/fma_arm64.go | cut -d: -f1)
cross:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./...
	@line=$(fmaline); GOOS=linux GOARCH=arm64 $(GO) build -gcflags=-S ./internal/tensor 2>&1 | \
	awk -v at="/fma_arm64.go:$$line)" '/STEXT/ {n++} /FMADDS|FMSUBS|FNMADDS|FNMSUBS/ {f++; if (index($$0, at) == 0) {print; bad++}} \
	END {if (!n) print "cross: no assembly listing"; if (!f) print "cross: no fused multiply-add from fma32"; exit !n || !f || bad}'

# The portable kernels on an amd64 host: the purego tag leaves the asm out, so
# internal/tensor's property, fuzz-seed and bit-identity suites (about 75 s:
# the portable float kernels run a software FMA) check the scalar code every
# other architecture ships, TestForwardUnchanged that it computes the bits of
# testdata/forward.golden like the vector kernels, and
# TestPortableBuildRunsNoAsm that the vector gate is off.
purego:
	$(GO) test -tags purego ./internal/tensor

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

# Feed LoadPlan mutated plan files beyond the committed seeds (the plan files
# testdata/plans.golden pins for the toy models): it must never panic, and a
# plan it accepts must save and reload unchanged. Not part of `check`.
fuzz-plan:
	$(GO) test -run NONE -fuzz FuzzPlanLoad -fuzztime=10s ./internal/core

# Feed the binary exec and exec-result header decoders arbitrary bytes beyond
# the committed seeds: a header either is refused or decodes to one that
# re-encodes to exactly those bytes. Not part of `check`.
fuzz-exec:
	$(GO) test -run NONE -fuzz FuzzExecHeaders -fuzztime=10s ./internal/wire

# Feed /infer's request parsing (the query's model, plan and quant, then the
# body) arbitrary strings and bytes beyond the committed seeds: it must never
# panic, must refuse with a 4xx only, and must accept exactly the bodies of
# the model's input size. Not part of `check`.
fuzz-infer:
	$(GO) test -run NONE -fuzz FuzzInferRequest -fuzztime=10s ./internal/serve

# Feed the -speeds parsing picorun and picoserve share arbitrary strings
# beyond the committed seeds: a list it accepts builds a cluster exactly when
# every speed is a positive, finite MAC/s. Not part of `check`.
fuzz-speeds:
	$(GO) test -run NONE -fuzz FuzzParseSpeeds -fuzztime=10s ./internal/cluster

# Non-test Go lines per package plus assembly lines: the size numbers
# ROADMAP tracks as its aim-2 ("least code") success metric.
gocount = $$(find $(1) -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
loc:
	@for d in internal/* cmd bench; do printf '%-22s %6d\n' $$d $(call gocount,$$d); done
	@printf '%-22s %6d\n' 'runtime+serve+core' $(call gocount,internal/runtime internal/serve internal/core)
	@printf '%-22s %6d\n' 'internal + cmd' $(call gocount,internal cmd)
	@printf '%-22s %6d\n' 'asm (*.s)' $$(find . -name '*.s' -exec cat {} + | wc -l)

check: build fmt vet cross purego bench-vet test race race-quant chaos testbed bench bench-kernel-smoke bench-quant-smoke serve-smoke metrics-smoke results-check
