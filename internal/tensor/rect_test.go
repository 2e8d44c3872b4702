package tensor

import (
	"math/rand"
	"strings"
	"testing"

	"pico/internal/nn"
	"pico/internal/partition"
)

// The whole-map / strip / grid bit-identity matrix lives in
// identity_test.go; this file keeps the grid cases that are not a table row
// (strided geometry, the random property, an interior int8 segment) and the
// validation surface of RunTile and Stitch.

// runTiled executes segment [from, to) as the given tiles — slice the region
// each needs, run it, stitch — which is what a stage or grid leader does.
func runTiled(t *testing.T, e *Executor, from, to int, full FMap, tiles []partition.Rect) FMap {
	t.Helper()
	calc := partition.NewCalc(e.Model())
	outShape := e.Model().OutShape(to - 1)
	var outs []FMap
	var rects []partition.Rect
	for _, tile := range tiles {
		if tile.Empty() {
			continue
		}
		in := full.SliceRect(calc.TileRects(from, to, tile)[0])
		out, err := e.RunTile(from, to, in, tile)
		if err != nil {
			t.Fatalf("RunTile(%v): %v", tile, err)
		}
		outs = append(outs, out)
		rects = append(rects, tile)
	}
	stitched, err := Stitch(outs, rects, outShape.H, outShape.W)
	if err != nil {
		t.Fatal(err)
	}
	return stitched
}

func runGridPartitioned(t *testing.T, e *Executor, from, to int, full Tensor, tiles []partition.Rect) Tensor {
	t.Helper()
	return runTiled(t, e, from, to, MapOf(full), tiles).Tensor()
}

func runGridPartitionedQ(t *testing.T, e *Executor, from, to int, full QTensor, tiles []partition.Rect) QTensor {
	t.Helper()
	return runTiled(t, e, from, to, MapOfQ(full), tiles).QTensor()
}

func TestGridExecutionStrided(t *testing.T) {
	layers := []nn.Layer{
		{Name: "s1", Kind: nn.Conv, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1, OutC: 6, Act: nn.ReLU},
		{Name: "p", Kind: nn.MaxPool, KH: 2, KW: 2, SH: 2, SW: 2, Act: nn.NoAct},
		{Name: "s2", Kind: nn.Conv, KH: 5, KW: 3, SH: 1, SW: 1, PH: 2, PW: 1, OutC: 4, Act: nn.LeakyReLU},
	}
	m := &nn.Model{Name: "gs", Input: nn.Shape{C: 2, H: 41, W: 33}, Layers: layers}
	e := mustExec(t, m)
	in := RandomInput(m.Input, 8)
	whole, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Output()
	got := runGridPartitioned(t, e, 0, 3, in, partition.GridPartition(out.H, out.W, 3, 3))
	if !Equal(whole, got) {
		t.Fatalf("strided grid differs by %g", MaxAbsDiff(whole, got))
	}
}

// TestGridTileWidensToFullInsideBlock: a narrow tile whose halo grows to the
// whole width at a block's output runs that block's paths full-width, so the
// region the tile ships must be the one those paths read — trailing columns an
// odd extent into the stride-2 path never touches included.
func TestGridTileWidensToFullInsideBlock(t *testing.T) {
	layers := []nn.Layer{
		{
			Name: "down", Kind: nn.Block, Combine: nn.Concat, Act: nn.NoAct,
			Paths: [][]nn.Layer{{
				{Name: "s2", Kind: nn.Conv, KH: 3, KW: 3, SH: 2, SW: 2, OutC: 4, Act: nn.ReLU},
			}},
		},
		{Name: "wide", Kind: nn.Conv, KH: 5, KW: 5, SH: 1, SW: 1, PH: 2, PW: 2, OutC: 3, Act: nn.ReLU},
	}
	m := &nn.Model{Name: "widen", Input: nn.Shape{C: 2, H: 20, W: 20}, Layers: layers}
	e := mustExec(t, m)
	in := RandomInput(m.Input, 5)
	whole, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Output() // 9 wide: columns [2,7) need all nine of the block's
	tiles := []partition.Rect{
		{Rows: partition.Full(out.H), Cols: partition.Range{Lo: 0, Hi: 2}},
		{Rows: partition.Full(out.H), Cols: partition.Range{Lo: 2, Hi: 7}},
		{Rows: partition.Full(out.H), Cols: partition.Range{Lo: 7, Hi: out.W}},
	}
	if got := runGridPartitioned(t, e, 0, 2, in, tiles); !Equal(whole, got) {
		t.Fatalf("tiles differ by %g", MaxAbsDiff(whole, got))
	}
}

func TestGridExecutionRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		m := nn.ToyChain("gr", 2+rng.Intn(3), rng.Intn(3), 4+rng.Intn(4), 18+rng.Intn(14))
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
			t.Fatalf("trial %d (%dx%d grid on %v): diff %g", trial, rows, cols, m.Input, MaxAbsDiff(whole, got))
		}
	}
}

// TestQuantGridMidSegment: grid tiles over an interior segment must match a
// single whole-map run of the same segment, so quantized pipelines can
// switch to 2D partitioning at any fusion boundary.
func TestQuantGridMidSegment(t *testing.T) {
	m := nn.ToyChain("qgridmid", 6, 2, 8, 33)
	e, err := NewExecutor(m, 11, WithQuantized())
	if err != nil {
		t.Fatal(err)
	}
	scales, err := QuantScales(m, 11)
	if err != nil {
		t.Fatal(err)
	}
	from, to := 2, 5
	shapes := m.Shapes()
	// Derive the segment input by running the prefix in int8.
	qmid, err := e.RunSegmentQ(0, from, QuantizeTensor(RandomInput(m.Input, 6), scales[0]), partition.Full(shapes[from].H))
	if err != nil {
		t.Fatal(err)
	}
	fullRect := partition.FullRect(shapes[to].H, shapes[to].W)
	whole := runGridPartitionedQ(t, e, from, to, qmid, []partition.Rect{fullRect})
	got := runGridPartitionedQ(t, e, from, to, qmid, partition.GridPartition(shapes[to].H, shapes[to].W, 2, 2))
	if !EqualQ(whole, got) {
		t.Fatal("quant grid tiles over interior segment differ from the whole-map run")
	}
}

// stitchErrorCases drives the one Stitch with tiles of either precision.
func stitchErrorCases(t *testing.T, tile func(h, w int, scale float32) FMap) {
	t.Helper()
	a := tile(2, 2, 0.5)
	r := partition.FullRect(2, 2)
	if _, err := Stitch(nil, nil, 2, 2); err == nil {
		t.Fatal("empty tiles accepted")
	}
	if _, err := Stitch([]FMap{a}, []partition.Rect{r}, 4, 4); err == nil {
		t.Fatal("uncovered cells accepted")
	}
	if _, err := Stitch([]FMap{a, a}, []partition.Rect{r, r}, 2, 2); err == nil {
		t.Fatal("double coverage accepted")
	}
	if _, err := Stitch([]FMap{tile(3, 3, 0.5)}, []partition.Rect{r}, 2, 2); err == nil {
		t.Fatal("extent mismatch accepted")
	}
	// Right area, wrong place: two half-width tiles on the same half.
	half := partition.Rect{Rows: partition.Full(2), Cols: partition.Range{Lo: 0, Hi: 1}}
	b := tile(2, 1, 0.5)
	if _, err := Stitch([]FMap{b, b}, []partition.Rect{half, half}, 2, 2); err == nil {
		t.Fatal("overlap with a matching cell count accepted")
	}
	other := MapOfQ(AllocQ(1, 2, 2, 0.5))
	if a.DType == Int8 {
		other = MapOf(New(1, 2, 2))
	}
	right := partition.Rect{Rows: partition.Full(2), Cols: partition.Range{Lo: 2, Hi: 4}}
	if _, err := Stitch([]FMap{a, other}, []partition.Rect{r, right}, 2, 4); err == nil {
		t.Fatal("mixed precisions accepted")
	}
}

func TestStitchGridErrors(t *testing.T) {
	stitchErrorCases(t, func(h, w int, _ float32) FMap { return MapOf(New(1, h, w)) })
}

func TestStitchGridQErrors(t *testing.T) {
	tile := func(h, w int, scale float32) FMap { return MapOfQ(AllocQ(1, h, w, scale)) }
	stitchErrorCases(t, tile)
	half := partition.Rect{Rows: partition.Full(2), Cols: partition.Range{Lo: 0, Hi: 1}}
	half2 := partition.Rect{Rows: partition.Full(2), Cols: partition.Range{Lo: 1, Hi: 2}}
	if _, err := Stitch([]FMap{tile(2, 1, 0.5), tile(2, 1, 0.25)}, []partition.Rect{half, half2}, 2, 2); err == nil {
		t.Fatal("accepted tiles with mismatched scales")
	}
}

// tileValidationCases drives RunTile's argument checks with a full input
// map of either precision.
func tileValidationCases(t *testing.T, e *Executor, in FMap) {
	t.Helper()
	out := e.Model().Output()
	full := partition.FullRect(out.H, out.W)
	if _, err := e.RunTile(2, 1, in, full); err == nil {
		t.Fatal("inverted segment accepted")
	}
	if _, err := e.RunTile(0, 1, in, partition.Rect{}); err == nil {
		t.Fatal("empty rect accepted")
	}
	small := in.SliceRect(partition.Rect{Rows: partition.Range{Lo: 0, Hi: 4}, Cols: partition.Range{Lo: 0, Hi: 4}})
	if _, err := e.RunTile(0, e.Model().NumLayers(), small, full); err == nil {
		t.Fatal("undersized tile accepted")
	}
	// A region reaching past the output map is refused, even when the tile
	// holds exactly the input it would read.
	n := e.Model().NumLayers()
	for _, r := range []partition.Rect{
		{Rows: partition.Range{Lo: 0, Hi: out.H + 4}, Cols: partition.Full(out.W)},
		{Rows: partition.Range{Lo: out.H, Hi: out.H + 2}, Cols: partition.Full(out.W)},
		{Rows: partition.Full(out.H), Cols: partition.Range{Lo: 0, Hi: out.W + 5}},
	} {
		tile := in.SliceRect(e.calc.TileRects(0, n, r)[0])
		if res, err := e.RunTile(0, n, tile, r); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("region %v of a %v output: %dx%dx%d tile, err %v; want an outside-the-map refusal", r, out, res.C, res.H, res.W, err)
		}
		tile.Recycle()
	}
}

func TestRunSegmentRectValidation(t *testing.T) {
	m := nn.ToyChain("v", 3, 0, 4, 16)
	tileValidationCases(t, mustExec(t, m), MapOf(RandomInput(m.Input, 1)))
}

func TestRunSegmentRectQValidation(t *testing.T) {
	m := nn.ToyChain("qgridval", 3, 2, 8, 16)
	e, err := NewExecutor(m, 1, WithQuantized())
	if err != nil {
		t.Fatal(err)
	}
	scales, err := QuantScales(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	tileValidationCases(t, e, MapOfQ(QuantizeTensor(RandomInput(m.Input, 2), scales[0])))
	out := m.Output()
	wrongScale := MapOfQ(QuantizeTensor(RandomInput(m.Input, 2), 12345))
	if _, err := e.RunTile(0, m.NumLayers(), wrongScale, partition.FullRect(out.H, out.W)); err == nil {
		t.Fatal("accepted tile with non-calibrated scale")
	}
}
