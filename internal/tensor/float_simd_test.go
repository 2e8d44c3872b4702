package tensor

import (
	"math/rand"
	"testing"

	"pico/internal/nn"
	"pico/internal/partition"
)

// simdMixModel builds a model whose layers hit every vectorized float conv
// path: the GEMM tile over gathered taps at stride 1 and 2 and over copied
// channel planes (pointwise), the depthwise fused row and the 2x2 stride-2
// max-pool pair. Spatial extent hw must be even (the pool halves it).
func simdMixModel(name string, c, hw int) *nn.Model {
	return &nn.Model{
		Name:  name,
		Input: nn.Shape{C: c, H: hw, W: hw},
		Layers: []nn.Layer{
			{Name: "c3", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: c, Act: nn.ReLU},
			{Name: "dw", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: c, Groups: c, Act: nn.ReLU, BatchNorm: true},
			{Name: "pw", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: 2 * c, Act: nn.ReLU, BatchNorm: true},
			{Name: "s2", Kind: nn.Conv, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1, OutC: 2 * c, Act: nn.LeakyReLU},
			{Name: "mp", Kind: nn.MaxPool, KH: 2, KW: 2, SH: 2, SW: 2, Act: nn.NoAct},
		},
	}
}

// TestFloatSIMDGridMatchesRun pins the distributed 2D-partition contract for
// the vectorized float path: partial-width grid tiles stitched back
// together must be byte-identical to the whole-map Run, across random grid
// splits, for a model that walks every float SIMD kernel kind. Halo tiles
// force the rect kernels through their edge-tap clamps, which is exactly
// where a vector tile with wrong interior bounds would diverge. Every
// pointwise tile variant the host runs takes the GEMM layers in turn, the
// portable one included.
func TestFloatSIMDGridMatchesRun(t *testing.T) {
	eachFpwVariant(t, func(t *testing.T, vn string) {
		rng := rand.New(rand.NewSource(37))
		for trial := 0; trial < 8; trial++ {
			m := simdMixModel("fsgrid", 4+2*rng.Intn(3), 32+4*rng.Intn(4))
			e := mustExec(t, m)
			in := RandomInput(m.Input, int64(trial))
			whole, err := e.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			out := m.Output()
			rows := 1 + rng.Intn(3)
			cols := 1 + rng.Intn(3)
			got := runGridPartitioned(t, e, 0, m.NumLayers(), in, partition.GridPartition(out.H, out.W, rows, cols))
			if !Equal(whole, got) {
				t.Fatalf("%s trial %d (%dx%d grid on %v): grid stitch differs from Run by %g",
					vn, trial, rows, cols, m.Input, MaxAbsDiff(whole, got))
			}
		}
	})
}

// TestFloatSIMDParallelBitIdentical pins worker-count invariance with the
// vector tiles live: a parallel forward over the SIMD kernel mix (plus the
// gap/fc epilogue the grid tests cannot hold) must reproduce the serial pass
// bit for bit at every parallelism, under every pointwise tile variant — and
// that pass must be the reference kernels' (plain Go, one fma32 per tap).
func TestFloatSIMDParallelBitIdentical(t *testing.T) {
	base := simdMixModel("fspar", 8, 36)
	m := &nn.Model{
		Name:  base.Name,
		Input: base.Input,
		Layers: append(append([]nn.Layer{}, base.Layers...),
			nn.Layer{Name: "gap", Kind: nn.GlobalAvgPool, Act: nn.NoAct},
			nn.Layer{Name: "fc", Kind: nn.FullyConnected, OutF: 37, Act: nn.ReLU}),
	}
	in := RandomInput(m.Input, 13)
	ref, err := NewExecutor(m, 99, WithReferenceKernels())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	eachFpwVariant(t, func(t *testing.T, vn string) {
		for _, par := range workerCounts {
			got, err := mustExecPar(t, m, par).Run(in)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(want, got) {
				t.Fatalf("%s: parallelism %d differs from the reference kernels by %g", vn, par, MaxAbsDiff(want, got))
			}
		}
	})
}
