package runtime

import (
	"testing"

	"pico/internal/nn"
	"pico/internal/tensor"
)

// TestGridPlanMatchesRun is the distributed float 2D-partition contract
// under the vector kernels: a grid stage of float tiles executed on live TCP
// workers and stitched must be byte-identical to the local whole-map Run.
// The model mixes every vectorized conv kind (fused 3-tap, depthwise,
// pointwise, stride-2) plus a 2x2 max-pool, so on SIMD hosts the workers'
// rect tiles run the same vector paths the local executor does.
func TestGridPlanMatchesRun(t *testing.T) {
	m := &nn.Model{
		Name:  "fgrid-rt",
		Input: nn.Shape{C: 6, H: 36, W: 36},
		Layers: []nn.Layer{
			{Name: "c3", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 6, Act: nn.ReLU},
			{Name: "dw", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 6, Groups: 6, Act: nn.ReLU, BatchNorm: true},
			{Name: "pw", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: 12, Act: nn.ReLU, BatchNorm: true},
			{Name: "s2", Kind: nn.Conv, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1, OutC: 12, Act: nn.LeakyReLU},
			{Name: "mp", Kind: nn.MaxPool, KH: 2, KW: 2, SH: 2, SW: 2, Act: nn.NoAct},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	lc := startCluster(t, 4, nil)
	const seed = 8
	p := gridPipeline(t, m, lc, 2, 2, PipelineOptions{Seed: seed})
	ref, err := tensor.NewExecutor(m, seed)
	if err != nil {
		t.Fatal(err)
	}
	for task := int64(1); task <= 3; task++ {
		in := tensor.RandomInput(m.Input, task)
		want, err := ref.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := inferOne(t, p, in); !tensor.Equal(want, got) {
			t.Fatalf("task %d: distributed float grid differs from local Run by %g",
				task, tensor.MaxAbsDiff(want, got))
		}
	}
	// Every tile went through the one per-layer dispatch, so every worker
	// attributes the kinds it ran (the float grid path used to record none).
	for k, w := range lc.Workers {
		ks := w.KindSeconds()
		for _, kind := range []string{"conv", "depthwise", "pointwise", "pool"} {
			if ks[kind] <= 0 {
				t.Errorf("worker %d: no %s seconds attributed after a float grid run: %v", k, kind, ks)
			}
		}
	}
}
