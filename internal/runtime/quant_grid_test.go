package runtime

import (
	"strings"
	"testing"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// TestQuantGridPlanMatchesRunQ is the distributed quantized 2D-partition
// contract: a grid stage of int8 tiles executed on TCP workers and stitched
// must be byte-identical to the local whole-map RunQ — the strips and the
// grid share the same accumulators and requantize epilogue — so the float
// output the pipeline hands back equals Dequantize(RunQ) exactly.
func TestQuantGridPlanMatchesRunQ(t *testing.T) {
	m := nn.ToyChain("qgrid-rt", 5, 2, 8, 33)
	lc := startCluster(t, 4, nil)
	const seed = 8
	p := gridPipeline(t, m, lc, 2, 2, PipelineOptions{Seed: seed, Quantized: true})
	if !p.Plan().Quantized {
		t.Fatal("the int8 grid plan is not marked quantized")
	}
	ref, err := tensor.NewExecutor(m, seed, tensor.WithQuantized())
	if err != nil {
		t.Fatal(err)
	}
	for task := int64(1); task <= 3; task++ {
		in := tensor.RandomInput(m.Input, task)
		want, err := ref.RunQ(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := inferOne(t, p, in); !tensor.Equal(want.Dequantize(), got) {
			t.Fatalf("task %d: distributed quant grid differs from local RunQ", task)
		}
	}
}

// TestGridPlanRejectsFullInputLayers: a segment containing a layer that
// consumes the whole feature map cannot be split across tiles — opening such
// a plan must say so, in either precision, not fail mid-inference.
func TestGridPlanRejectsFullInputLayers(t *testing.T) {
	base := nn.ToyChain("qgrid-fc", 2, 0, 4, 16)
	m := &nn.Model{
		Name:   "qgrid-fc",
		Input:  base.Input,
		Layers: append(append([]nn.Layer{}, base.Layers...), nn.Layer{Name: "gap", Kind: nn.GlobalAvgPool, Act: nn.NoAct}),
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	lc := startCluster(t, 2, nil)
	cl := cluster.Homogeneous(2, 600e6)
	mid := m.Shapes()[2]
	tiles := partition.GridPartition(mid.H, mid.W, 2, 1)
	plan := &core.Plan{Model: m, Cluster: cl, Stages: []core.Stage{{
		From: 0, To: m.NumLayers(),
		DeviceIdx: []int{0, 1},
		Parts:     []partition.Range{tiles[0].Rows, tiles[1].Rows},
		Cols:      []partition.Range{tiles[0].Cols, tiles[1].Cols},
	}}}
	for _, quant := range []bool{false, true} {
		p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{Seed: 1, Quantized: quant})
		if err == nil {
			p.Close()
			t.Fatalf("quant=%v: grid over a GlobalAvgPool segment accepted", quant)
		}
		if !strings.Contains(err.Error(), "full input map") {
			t.Fatalf("quant=%v: wrong rejection: %v", quant, err)
		}
	}
	// The same segment as a single full tile is fine.
	gridPipeline(t, m, lc, 1, 1, PipelineOptions{Seed: 1, Quantized: true})
}

// TestInt8ExecNeedsQuantLoad: calibration is a load-time step, so an int8
// tile for a model loaded without Quant is refused with an error frame (and
// the connection keeps serving); once loaded with Quant the same tile runs,
// and a later float-only load of the same model — another session sharing
// the worker — must not take the int8 path away again.
func TestInt8ExecNeedsQuantLoad(t *testing.T) {
	m := nn.ToyChain("needs-quant", 2, 0, 4, 16)
	const seed = 4
	lc := startCluster(t, 1, nil)
	wc, err := dialWorker(lc.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()
	ref, err := tensor.NewExecutor(m, seed, tensor.WithQuantized())
	if err != nil {
		t.Fatal(err)
	}
	scales, err := ref.QuantScales()
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomInput(m.Input, 1)
	want, err := ref.RunQ(in)
	if err != nil {
		t.Fatal(err)
	}
	out := whole(m.Output())
	tile := tensor.MapOfQ(tensor.QuantizeTensor(in, scales[0]))
	spec := wire.SpecFromModel(m)

	if err := wc.loadModel(spec, seed, nil, 0, m.NumLayers()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wc.exec(out, tile); err == nil || !strings.Contains(err.Error(), "not loaded") {
		t.Fatalf("int8 exec on a float-only load: err = %v, want a not-loaded refusal", err)
	}
	if _, _, err := wc.exec(out, tensor.MapOf(in)); err != nil {
		t.Fatalf("float exec after the refusal: %v", err)
	}
	for _, sc := range [][]float32{scales, nil} {
		if err := wc.loadModel(spec, seed, sc, 0, m.NumLayers()); err != nil {
			t.Fatal(err)
		}
		got, _, err := wc.exec(out, tile)
		if err != nil {
			t.Fatalf("int8 exec after load(quant=%v): %v", sc != nil, err)
		}
		if !tensor.EqualQ(want, got.QTensor()) {
			t.Fatalf("int8 exec after load(quant=%v) differs from local RunQ", sc != nil)
		}
	}
}

// TestLoadReusesExecutor: a worker keeps the executor a load already built
// for the same (model, seed) — one set of weights, one calibration — across
// repeated loads in either precision; only the upgrade from float to int8,
// or a different network under the same name, builds a new one.
func TestLoadReusesExecutor(t *testing.T) {
	m := nn.ToyChain("reload", 2, 0, 4, 16)
	const seed = 9
	lc := startCluster(t, 1, nil)
	wc, err := dialWorker(lc.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()
	load := func(m *nn.Model, quant bool) *tensor.Executor {
		t.Helper()
		var scales []float32
		if quant {
			var err error
			if scales, err = tensor.QuantScales(m, seed); err != nil {
				t.Fatal(err)
			}
		}
		if err := wc.loadModel(wire.SpecFromModel(m), seed, scales, 0, m.NumLayers()); err != nil {
			t.Fatal(err)
		}
		e, ok := lc.Workers[0].executor(m.Name, seed)
		if !ok {
			t.Fatal("no executor after a load")
		}
		return e
	}
	f := load(m, false)
	if load(m, false) != f {
		t.Fatal("a second float load rebuilt the executor")
	}
	q := load(m, true)
	if q == f || !q.Quantized() {
		t.Fatal("an int8 load after a float one did not upgrade the executor")
	}
	for _, quant := range []bool{true, false, true} {
		if load(m, quant) != q {
			t.Fatalf("load(quant=%v) after the upgrade rebuilt (and recalibrated) the executor", quant)
		}
	}
	other := nn.ToyChain("reload", 3, 0, 4, 16)
	if o := load(other, false); o == q || o.Model().NumLayers() != other.NumLayers() {
		t.Fatal("a different network under the same name did not replace the executor")
	}
}
