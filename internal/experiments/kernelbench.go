package experiments

import (
	"fmt"
	"runtime"
	"time"

	"pico/internal/nn"
	"pico/internal/tensor"
)

// KernelBenchRow measures one layer-kind micro benchmark: the same layer
// executed by the pre-blocking reference loops and by the cache-blocked
// engine, at one parallelism setting.
type KernelBenchRow struct {
	// Kind names the layer shape: conv3x3, conv3x3s2, conv1x7, pointwise,
	// depthwise, depthwise-s2, depthwise14, pool, gap, fc.
	Kind string `json:"kind"`
	// Shape is the input CxHxW the kernel ran over.
	Shape string `json:"shape"`
	// Par is the kernel worker-count cap.
	Par int `json:"par"`
	// MACs is the layer's multiply-accumulate count (Eq. 2); zero for the
	// pooling kinds the paper does not cost.
	MACs int64 `json:"macs"`
	// BytesMoved is the float32 traffic one forward touches at least once:
	// input read + output write + weights. MACs/BytesMoved separates the
	// compute-bound kinds (conv) from the bandwidth-bound ones (pool, gap,
	// depthwise), which is what decides where blocking can win.
	BytesMoved int64 `json:"bytes_moved"`
	// RefMs and BlockedMs are per-forward wall milliseconds.
	RefMs     float64 `json:"ref_ms"`
	BlockedMs float64 `json:"blocked_ms"`
	// Speedup is RefMs / BlockedMs.
	Speedup float64 `json:"speedup"`
}

// ForwardBenchRow measures a whole-model single-node forward pass, reference
// vs blocked engine at the same parallelism.
type ForwardBenchRow struct {
	Model     string  `json:"model"`
	Par       int     `json:"par"`
	RefMs     float64 `json:"ref_ms"`
	BlockedMs float64 `json:"blocked_ms"`
	Speedup   float64 `json:"speedup"`
}

// KernelBenchResult is the machine-readable artefact `make bench-kernel`
// writes (BENCH_PR4.json): per-layer-kind kernel timings and whole-model
// forward passes, each as reference vs cache-blocked pairs.
type KernelBenchResult struct {
	// GOMAXPROCS records the host parallelism the sweep ran under, since
	// rows at par > 1 only separate from par = 1 on multi-core hosts.
	GOMAXPROCS int `json:"gomaxprocs"`
	// SIMD records whether the float32 kernels ran a vector ISA; blocked
	// times measured without one are not comparable to SIMD hosts.
	// SIMDName says which ("avx2", "neon"), mirroring the quantbench
	// artefact so the two JSON files diff cleanly.
	SIMD     bool              `json:"simd"`
	SIMDName string            `json:"simd_name"`
	Kernels  []KernelBenchRow  `json:"kernels"`
	Forward  []ForwardBenchRow `json:"forward"`
}

// kernelCase is one single-layer model for the micro sweep. Shapes are
// drawn from the evaluation models: VGG-style 3x3 stacks, Inception's 1x7
// and 1x1 mixers, MobileNet's depthwise separables.
type kernelCase struct {
	kind string
	in   nn.Shape
	l    nn.Layer
}

func kernelCases(quick bool) []kernelCase {
	// Quick halves the spatial extent so the sweep stays test-sized.
	d := 1
	if quick {
		d = 2
	}
	return []kernelCase{
		{"conv3x3", nn.Shape{C: 64, H: 56 / d, W: 56 / d},
			nn.Layer{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 64, Act: nn.ReLU}},
		{"conv3x3s2", nn.Shape{C: 64, H: 56 / d, W: 56 / d},
			nn.Layer{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1, OutC: 128, Act: nn.ReLU}},
		{"conv1x7", nn.Shape{C: 64, H: 32 / d, W: 32 / d},
			nn.Layer{Name: "c", Kind: nn.Conv, KH: 1, KW: 7, SH: 1, SW: 1, PH: 0, PW: 3, OutC: 64, Act: nn.ReLU, BatchNorm: true}},
		{"pointwise", nn.Shape{C: 128, H: 28, W: 28},
			nn.Layer{Name: "c", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: 128, Act: nn.ReLU, BatchNorm: true}},
		{"depthwise", nn.Shape{C: 128, H: 28, W: 28},
			nn.Layer{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 128, Groups: 128, Act: nn.ReLU, BatchNorm: true}},
		// MobileNetV1's two awkward depthwise shapes: the big stride-2
		// reduction and the small planes whose rows are barely two vectors.
		{"depthwise-s2", nn.Shape{C: 64, H: 112 / d, W: 112 / d},
			nn.Layer{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1, OutC: 64, Groups: 64, Act: nn.ReLU, BatchNorm: true}},
		{"depthwise14", nn.Shape{C: 512, H: 14, W: 14},
			nn.Layer{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 512, Groups: 512, Act: nn.ReLU, BatchNorm: true}},
		{"pool", nn.Shape{C: 64, H: 56 / d, W: 56 / d},
			nn.Layer{Name: "p", Kind: nn.MaxPool, KH: 2, KW: 2, SH: 2, SW: 2}},
		{"gap", nn.Shape{C: 256, H: 16, W: 16},
			nn.Layer{Name: "g", Kind: nn.GlobalAvgPool}},
		{"fc", nn.Shape{C: 256, H: 4, W: 4},
			nn.Layer{Name: "f", Kind: nn.FullyConnected, OutF: 512, Act: nn.ReLU}},
	}
}

// layerBytesMoved counts the float32 bytes one forward of a single layer
// must touch at least once: the input map, the output map, and the
// parameters (weights + bias, plus the folded batch-norm scale/shift).
func layerBytesMoved(l *nn.Layer, in, out nn.Shape) int64 {
	elems := int64(in.Elems()) + int64(out.Elems())
	switch l.Kind {
	case nn.Conv:
		g := 1
		if l.Groups > 1 {
			g = l.Groups
		}
		elems += int64(l.KH) * int64(l.KW) * int64(in.C/g) * int64(out.C)
		elems += int64(out.C) // bias
		if l.BatchNorm {
			elems += 2 * int64(out.C)
		}
	case nn.FullyConnected:
		elems += int64(in.Elems())*int64(l.OutF) + int64(l.OutF)
	}
	return elems * 4
}

// benchForward times exec.Run(in) until enough samples accumulate and
// returns per-forward milliseconds. The first run (weight generation, arena
// warm-up) happens outside the timed region.
func benchForward(e *tensor.Executor, in tensor.Tensor, minIters int, minDur time.Duration) (float64, error) {
	out, err := e.Run(in)
	if err != nil {
		return 0, err
	}
	tensor.Recycle(out)
	iters := 0
	start := time.Now()
	for elapsed := time.Duration(0); iters < minIters || elapsed < minDur; elapsed = time.Since(start) {
		out, err := e.Run(in)
		if err != nil {
			return 0, err
		}
		tensor.Recycle(out)
		iters++
	}
	return time.Since(start).Seconds() * 1e3 / float64(iters), nil
}

// benchPair times one model under the reference and blocked engines at one
// parallelism and returns the (refMs, blockedMs) pair.
func benchPair(m *nn.Model, par, minIters int, minDur time.Duration) (float64, float64, error) {
	in := tensor.RandomInput(m.Input, 1)
	eRef, err := tensor.NewExecutor(m, 1, tensor.WithParallelism(par), tensor.WithReferenceKernels())
	if err != nil {
		return 0, 0, err
	}
	refMs, err := benchForward(eRef, in, minIters, minDur)
	if err != nil {
		return 0, 0, err
	}
	eBlk, err := tensor.NewExecutor(m, 1, tensor.WithParallelism(par))
	if err != nil {
		return 0, 0, err
	}
	blkMs, err := benchForward(eBlk, in, minIters, minDur)
	if err != nil {
		return 0, 0, err
	}
	return refMs, blkMs, nil
}

// RunKernelBench measures the compute engine: per-layer-kind kernels and
// whole-model forward passes, reference loops vs the cache-blocked engine,
// serial and (on multi-core hosts) parallel. Quick configs shrink shapes and
// skip InceptionV3 so the sweep stays test-sized; `make bench-kernel` runs
// the full sweep.
func RunKernelBench(cfg Config) (*KernelBenchResult, error) {
	quick := cfg.ClosedLoopTasks < Full().ClosedLoopTasks
	res := &KernelBenchResult{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SIMD:       tensor.FloatSIMD(),
		SIMDName:   tensor.SIMDName(),
	}

	pars := []int{1}
	if res.GOMAXPROCS > 1 {
		pars = append(pars, res.GOMAXPROCS)
	}

	minIters, minDur := 5, 200*time.Millisecond
	if quick {
		minIters, minDur = 2, 20*time.Millisecond
	}
	for _, kc := range kernelCases(quick) {
		m := &nn.Model{Name: "kern-" + kc.kind, Input: kc.in, Layers: []nn.Layer{kc.l}}
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("kernel case %s: %w", kc.kind, err)
		}
		for _, par := range pars {
			refMs, blkMs, err := benchPair(m, par, minIters, minDur)
			if err != nil {
				return nil, fmt.Errorf("kernel case %s: %w", kc.kind, err)
			}
			res.Kernels = append(res.Kernels, KernelBenchRow{
				Kind:  kc.kind,
				Shape: fmt.Sprintf("%dx%dx%d", kc.in.C, kc.in.H, kc.in.W),
				Par:   par,
				MACs:  m.LayerFLOPs(0), BytesMoved: layerBytesMoved(&kc.l, kc.in, m.OutShape(0)),
				RefMs: refMs, BlockedMs: blkMs, Speedup: refMs / blkMs,
			})
		}
	}

	fwdIters, fwdDur := 2, 500*time.Millisecond
	models := []*nn.Model{nn.MobileNetV1(), nn.InceptionV3()}
	if quick {
		fwdIters, fwdDur = 1, 0
		models = models[:1] // InceptionV3's reference pass alone is ~10 s
	}
	for _, m := range models {
		for _, par := range pars {
			refMs, blkMs, err := benchPair(m, par, fwdIters, fwdDur)
			if err != nil {
				return nil, fmt.Errorf("forward %s: %w", m.Name, err)
			}
			res.Forward = append(res.Forward, ForwardBenchRow{
				Model: m.Name, Par: par,
				RefMs: refMs, BlockedMs: blkMs, Speedup: refMs / blkMs,
			})
		}
	}
	return res, nil
}

// CompareKernelBench diffs a fresh sweep against a committed baseline and
// returns one error line per kernel benchmark whose blocked time regressed
// by more than tol (e.g. 0.10 for 10%). Rows are matched by (kind, par);
// rows present on only one side are ignored (shapes differ between quick
// and full sweeps).
func CompareKernelBench(baseline, fresh *KernelBenchResult, tol float64) []string {
	type key struct {
		kind string
		par  int
	}
	base := map[key]KernelBenchRow{}
	for _, r := range baseline.Kernels {
		base[key{r.Kind, r.Par}] = r
	}
	var regressions []string
	for _, r := range fresh.Kernels {
		b, ok := base[key{r.Kind, r.Par}]
		if !ok || b.Shape != r.Shape || b.BlockedMs <= 0 {
			continue
		}
		if r.BlockedMs > b.BlockedMs*(1+tol) {
			regressions = append(regressions, fmt.Sprintf(
				"%s par=%d: blocked %.3fms vs baseline %.3fms (+%.1f%%, tolerance %.0f%%)",
				r.Kind, r.Par, r.BlockedMs, b.BlockedMs,
				100*(r.BlockedMs/b.BlockedMs-1), 100*tol))
		}
	}
	return regressions
}

// KernelBench renders RunKernelBench as picobench tables (experiment id
// "kern").
func KernelBench(cfg Config) ([]Table, error) {
	res, err := RunKernelBench(cfg)
	if err != nil {
		return nil, err
	}
	kern := Table{
		ID:      "kern-kernels",
		Title:   "per-layer-kind kernel time, reference vs cache-blocked engine",
		Columns: []string{"kind", "shape", "par", "MMACs", "MB moved", "ref ms", "blocked ms", "speedup"},
		Notes: []string{
			fmt.Sprintf("GOMAXPROCS=%d, float32 SIMD=%q; par rows beyond 1 appear only on multi-core hosts",
				res.GOMAXPROCS, tensor.SIMDName()),
			"MB moved = float32 input + output + weights touched per forward",
		},
	}
	for _, r := range res.Kernels {
		kern.AddRow(r.Kind, r.Shape, fmt.Sprintf("%d", r.Par),
			fmt.Sprintf("%.1f", float64(r.MACs)/1e6), fmt.Sprintf("%.2f", float64(r.BytesMoved)/1e6),
			f3(r.RefMs), f3(r.BlockedMs), fmt.Sprintf("%.2fx", r.Speedup))
	}
	fwd := Table{
		ID:      "kern-forward",
		Title:   "single-node forward pass, reference vs cache-blocked engine",
		Columns: []string{"model", "par", "ref ms", "blocked ms", "speedup"},
	}
	for _, r := range res.Forward {
		fwd.AddRow(r.Model, fmt.Sprintf("%d", r.Par),
			f3(r.RefMs), f3(r.BlockedMs), fmt.Sprintf("%.2fx", r.Speedup))
	}
	return []Table{kern, fwd}, nil
}
