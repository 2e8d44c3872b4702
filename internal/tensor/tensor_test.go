package tensor

import (
	"math"
	"math/rand"
	"testing"

	"pico/internal/nn"
	"pico/internal/partition"
)

func TestTensorBasics(t *testing.T) {
	a := New(2, 3, 4)
	if a.Elems() != 24 || !a.Valid() {
		t.Fatal("New broken")
	}
	a.Set(1, 2, 3, 42)
	if a.At(1, 2, 3) != 42 {
		t.Fatal("At/Set broken")
	}
	b := a.SliceRows(0, a.H)
	b.Set(0, 0, 0, 7)
	if a.At(0, 0, 0) == 7 {
		t.Fatal("SliceRows aliases data")
	}
	if !Equal(a, a.SliceRows(0, a.H)) {
		t.Fatal("Equal(a, copy) false")
	}
	if Equal(a, b) {
		t.Fatal("Equal ignores data")
	}
	if Equal(a, New(2, 3, 5)) {
		t.Fatal("Equal ignores extents")
	}
	if MaxAbsDiff(a, b) != 7 {
		t.Fatalf("MaxAbsDiff = %v", MaxAbsDiff(a, b))
	}
	if !math.IsInf(MaxAbsDiff(a, New(1, 1, 1)), 1) {
		t.Fatal("MaxAbsDiff on extent mismatch must be +Inf")
	}
}

func TestSliceAndStitchRoundTrip(t *testing.T) {
	src := RandomInput(nn.Shape{C: 3, H: 17, W: 5}, 1)
	parts := []partition.Range{{Lo: 0, Hi: 6}, {Lo: 6, Hi: 7}, {Lo: 7, Hi: 17}}
	var strips []Tensor
	var los []int
	for _, p := range parts {
		strips = append(strips, src.SliceRows(p.Lo, p.Hi))
		los = append(los, p.Lo)
	}
	back, err := StitchRows(strips, los, 17)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(src, back) {
		t.Fatal("slice+stitch is not the identity")
	}
}

func TestStitchRowsErrors(t *testing.T) {
	a := New(1, 2, 3)
	if _, err := StitchRows(nil, nil, 4); err == nil {
		t.Fatal("empty strips accepted")
	}
	if _, err := StitchRows([]Tensor{a}, []int{0}, 4); err == nil {
		t.Fatal("uncovered rows accepted")
	}
	if _, err := StitchRows([]Tensor{a, a}, []int{0, 1}, 3); err == nil {
		t.Fatal("overlapping strips accepted")
	}
	if _, err := StitchRows([]Tensor{a, New(2, 2, 3)}, []int{0, 2}, 4); err == nil {
		t.Fatal("channel mismatch accepted")
	}
	if _, err := StitchRows([]Tensor{a}, []int{3}, 4); err == nil {
		t.Fatal("out-of-range strip accepted")
	}
}

func TestConvHandComputed(t *testing.T) {
	// 1 input channel, 1 output channel, 3x3 kernel of all ones, no bias
	// terms worth worrying about: pin the weights manually.
	l := nn.Layer{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 1, Act: nn.NoAct}
	wts := &convWeights{fparams: fparams{w: make([]float32, 9), bias: []float32{0}}}
	for i := range wts.w {
		wts.w[i] = 1
	}
	in := New(1, 3, 3)
	for i := range in.Data {
		in.Data[i] = 1
	}
	out := convForward(in, stripGeom(&l, in.C, in.W, 0, 3, 0, 3), &l, wts, 1)
	// Center = 9 ones; corners = 4; edges = 6.
	if out.At(0, 1, 1) != 9 || out.At(0, 0, 0) != 4 || out.At(0, 0, 1) != 6 {
		t.Fatalf("conv values: center %v corner %v edge %v", out.At(0, 1, 1), out.At(0, 0, 0), out.At(0, 0, 1))
	}
}

func TestConvStride2Geometry(t *testing.T) {
	l := nn.Layer{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1, OutC: 2, Act: nn.NoAct}
	e := mustExec(t, &nn.Model{Name: "s", Input: nn.Shape{C: 1, H: 9, W: 9}, Layers: []nn.Layer{l}})
	in := RandomInput(nn.Shape{C: 1, H: 9, W: 9}, 2)
	out, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.C != 2 || out.H != 5 || out.W != 5 {
		t.Fatalf("out extent %dx%dx%d, want 2x5x5", out.C, out.H, out.W)
	}
}

func TestMaxPoolExcludesPadding(t *testing.T) {
	l := nn.Layer{Name: "p", Kind: nn.MaxPool, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1, Act: nn.NoAct}
	in := New(1, 4, 4)
	for i := range in.Data {
		in.Data[i] = -1 // all negative: padding zeros must NOT win
	}
	out := poolForward(in, stripGeom(&l, in.C, in.W, 0, 4, 0, 2), &l, 1)
	for _, v := range out.Data {
		if v != -1 {
			t.Fatalf("padding leaked into max pool: %v", v)
		}
	}
}

func TestAvgPoolValidCountDivisor(t *testing.T) {
	l := nn.Layer{Name: "p", Kind: nn.AvgPool, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Act: nn.NoAct}
	in := New(1, 3, 3)
	for i := range in.Data {
		in.Data[i] = 6
	}
	out := poolForward(in, stripGeom(&l, in.C, in.W, 0, 3, 0, 3), &l, 1)
	// Corner windows see 4 valid cells of value 6: average 6 (divisor
	// counts valid cells only).
	if out.At(0, 0, 0) != 6 {
		t.Fatalf("corner avg = %v, want 6", out.At(0, 0, 0))
	}
}

func TestActivations(t *testing.T) {
	xs := []float32{-2, -0.5, 0, 1}
	relu := append([]float32(nil), xs...)
	applyActivation(relu, nn.ReLU)
	if relu[0] != 0 || relu[1] != 0 || relu[3] != 1 {
		t.Fatalf("relu = %v", relu)
	}
	leaky := append([]float32(nil), xs...)
	applyActivation(leaky, nn.LeakyReLU)
	if leaky[0] != -0.2 || leaky[3] != 1 {
		t.Fatalf("leaky = %v", leaky)
	}
}

func mustExec(t *testing.T, m *nn.Model) *Executor {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(m, 99)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runPartitioned executes segment [from, to) split into the given output
// strips and stitches the results — exactly what a stage leader does.
func runPartitioned(t *testing.T, e *Executor, from, to int, full Tensor, parts []partition.Range) Tensor {
	t.Helper()
	outH := e.Model().OutShape(to - 1).H
	var strips []Tensor
	var los []int
	for _, p := range parts {
		if p.Empty() {
			continue
		}
		inR := e.InputRange(from, to, p)
		tile := full.SliceRows(inR.Lo, inR.Hi)
		out, err := e.RunSegment(from, to, tile, p)
		if err != nil {
			t.Fatalf("RunSegment(%v): %v", p, err)
		}
		strips = append(strips, out)
		los = append(los, p.Lo)
	}
	stitched, err := StitchRows(strips, los, outH)
	if err != nil {
		t.Fatal(err)
	}
	return stitched
}

func TestPartitionedMatchesWholeChain(t *testing.T) {
	m := nn.ToyChain("t", 6, 2, 8, 33)
	e := mustExec(t, m)
	in := RandomInput(m.Input, 5)
	whole, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 5} {
		parts := partition.Equal(m.Output().H, p)
		got := runPartitioned(t, e, 0, m.NumLayers(), in, parts)
		if !Equal(whole, got) {
			t.Fatalf("partitioned (%d strips) differs from whole: max diff %g", p, MaxAbsDiff(whole, got))
		}
	}
}

func TestPartitionedMatchesWholeGraph(t *testing.T) {
	m := nn.TinyGraph()
	e := mustExec(t, m)
	in := RandomInput(m.Input, 6)
	whole, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	parts := partition.Equal(m.Output().H, 3)
	got := runPartitioned(t, e, 0, m.NumLayers(), in, parts)
	if !Equal(whole, got) {
		t.Fatalf("graph partitioned differs: max diff %g", MaxAbsDiff(whole, got))
	}
}

func TestPipelineOfSegmentsMatchesWhole(t *testing.T) {
	// Split the model into stages with different strip counts per stage,
	// stitching between stages — the full pipelined dataflow.
	m := nn.ToyChain("t", 8, 3, 6, 29)
	e := mustExec(t, m)
	in := RandomInput(m.Input, 7)
	whole, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	cuts := [][2]int{{0, 3}, {3, 6}, {6, m.NumLayers()}}
	widths := []int{3, 2, 4}
	cur := in
	for si, seg := range cuts {
		outH := m.OutShape(seg[1] - 1).H
		parts := partition.Equal(outH, widths[si])
		cur = runPartitioned(t, e, seg[0], seg[1], cur, parts)
	}
	if !Equal(whole, cur) {
		t.Fatalf("staged execution differs: max diff %g", MaxAbsDiff(whole, cur))
	}
}

func TestPartitionedPropertyRandom(t *testing.T) {
	// Property test: random small models, random segments, random uneven
	// partitions — stitched output always equals the whole-tensor result.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		convs := 2 + rng.Intn(4)
		poolEvery := rng.Intn(3) // 0 disables
		side := 16 + rng.Intn(17)
		m := nn.ToyChain("r", convs, poolEvery, 4+rng.Intn(5), side)
		e := mustExec(t, m)
		in := RandomInput(m.Input, int64(trial))
		whole, err := e.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		outH := m.Output().H
		// Random uneven partition.
		n := 1 + rng.Intn(4)
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 0.2 + rng.Float64()
		}
		parts := partition.Proportional(outH, weights)
		got := runPartitioned(t, e, 0, m.NumLayers(), in, parts)
		if !Equal(whole, got) {
			t.Fatalf("trial %d: partitioned differs (model %s, parts %v): max diff %g",
				trial, m.Name, parts, MaxAbsDiff(whole, got))
		}
	}
}

func TestNonSquareKernels(t *testing.T) {
	// InceptionV3-style factorized 1x7 / 7x1 convolutions, partitioned.
	layers := []nn.Layer{
		{Name: "a", Kind: nn.Conv, KH: 1, KW: 7, SH: 1, SW: 1, PH: 0, PW: 3, OutC: 4, Act: nn.ReLU},
		{Name: "b", Kind: nn.Conv, KH: 7, KW: 1, SH: 1, SW: 1, PH: 3, PW: 0, OutC: 4, Act: nn.ReLU},
	}
	m := &nn.Model{Name: "ns", Input: nn.Shape{C: 2, H: 21, W: 21}, Layers: layers}
	e := mustExec(t, m)
	in := RandomInput(m.Input, 3)
	whole, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	got := runPartitioned(t, e, 0, 2, in, partition.Equal(21, 4))
	if !Equal(whole, got) {
		t.Fatalf("non-square kernels: partitioned differs by %g", MaxAbsDiff(whole, got))
	}
}

func TestFullInputLayersInSegment(t *testing.T) {
	// A segment ending in fc: the executor needs the full input and a
	// single output "row".
	layers := []nn.Layer{
		nn.Conv3x3("c", 4, nn.ReLU),
		nn.MaxPool2x2("p"),
		nn.FC("f", 10, nn.NoAct),
	}
	m := &nn.Model{Name: "fc", Input: nn.Shape{C: 1, H: 8, W: 8}, Layers: layers}
	e := mustExec(t, m)
	in := RandomInput(m.Input, 4)
	out, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.C != 10 || out.H != 1 || out.W != 1 {
		t.Fatalf("fc output extent %dx%dx%d", out.C, out.H, out.W)
	}
}

func TestDeterministicAcrossExecutors(t *testing.T) {
	m := nn.TinyGraph()
	e1 := mustExec(t, m)
	e2 := mustExec(t, m)
	in := RandomInput(m.Input, 1)
	a, err := e1.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e2.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(a, b) {
		t.Fatal("same seed, different results")
	}
	// A different seed must change the result.
	e3, err := NewExecutor(m, 100)
	if err != nil {
		t.Fatal(err)
	}
	c, err := e3.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if Equal(a, c) {
		t.Fatal("different seeds, identical results")
	}
}

func TestSegmentExecutorMatchesSubmodelExecutor(t *testing.T) {
	// A worker holding only the segment sub-model must reproduce the
	// coordinator's results: RunSegment on the full model's executor for a
	// middle segment equals running the extracted sub-model... weight keys
	// are positional on the full model, so workers share the full model
	// description and select [from, to) — verify that path works.
	m := nn.ToyChain("t", 5, 2, 6, 24)
	e := mustExec(t, m)
	in := RandomInput(m.Input, 9)
	whole, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	// Execute in two chained segments without partitioning.
	h1 := m.OutShape(2).H
	mid, err := e.RunSegment(0, 3, in, partition.Full(h1))
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.RunSegment(3, m.NumLayers(), mid, partition.Full(m.Output().H))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(whole, out) {
		t.Fatal("chained segments differ from whole run")
	}
}

func TestRunSegmentValidation(t *testing.T) {
	m := nn.ToyChain("t", 3, 0, 4, 16)
	e := mustExec(t, m)
	in := RandomInput(m.Input, 1)
	if _, err := e.RunSegment(2, 1, in, partition.Full(16)); err == nil {
		t.Fatal("inverted segment accepted")
	}
	if _, err := e.RunSegment(0, 1, in, partition.Range{}); err == nil {
		t.Fatal("empty output range accepted")
	}
	short := in.SliceRows(0, 4)
	if _, err := e.RunSegment(0, 3, short, partition.Full(16)); err == nil {
		t.Fatal("undersized tile accepted")
	}
	if _, err := NewExecutor(&nn.Model{Name: "bad"}, 1); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestResidualBlockValues(t *testing.T) {
	// Identity residual block with hand-pinned convolution behaviour:
	// output = relu(conv2(relu(conv1(x))) + x). Verify the identity path is
	// really added by zeroing the conv weights: out = relu(x + bn(bias)).
	blk := nn.ResidualBlock("r", 2, 1, false)
	m := &nn.Model{Name: "rb", Input: nn.Shape{C: 2, H: 6, W: 6}, Layers: []nn.Layer{blk}}
	e := mustExec(t, m)
	// Force both conv weights to zero, biases to zero, bn to identity.
	for _, key := range []string{"0/0/0", "0/0/1"} {
		w := e.convW(key, &m.Layers[0].Paths[0][0], 2, 0, 0)
		for i := range w.w {
			w.w[i] = 0
		}
		for i := range w.bias {
			w.bias[i] = 0
		}
		for i := range w.bnScale {
			w.bnScale[i] = 1
			w.bnShift[i] = 0
		}
		// Rebuild the tile plan from the zeroed kernel: every block is sparse.
		w.pack(&m.Layers[0].Paths[0][0], 2)
	}
	in := RandomInput(m.Input, 8)
	out, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range in.Data {
		want := v
		if want < 0 {
			want = 0
		}
		if out.Data[i] != want {
			t.Fatalf("residual identity broken at %d: in %v out %v", i, v, out.Data[i])
		}
	}
}

func TestRandomInputDeterministic(t *testing.T) {
	a := RandomInput(nn.Shape{C: 2, H: 4, W: 4}, 5)
	b := RandomInput(nn.Shape{C: 2, H: 4, W: 4}, 5)
	if !Equal(a, b) {
		t.Fatal("RandomInput not deterministic")
	}
	c := RandomInput(nn.Shape{C: 2, H: 4, W: 4}, 6)
	if Equal(a, c) {
		t.Fatal("RandomInput ignores seed")
	}
}
