package partition

import (
	"math/rand"
	"testing"

	"pico/internal/nn"
)

func TestGridPartitionCoversExactly(t *testing.T) {
	tiles := GridPartition(10, 7, 3, 2)
	if len(tiles) != 6 {
		t.Fatalf("tiles = %d", len(tiles))
	}
	covered := make([][]bool, 10)
	for i := range covered {
		covered[i] = make([]bool, 7)
	}
	for _, tile := range tiles {
		for r := tile.Rows.Lo; r < tile.Rows.Hi; r++ {
			for c := tile.Cols.Lo; c < tile.Cols.Hi; c++ {
				if covered[r][c] {
					t.Fatalf("cell (%d,%d) covered twice", r, c)
				}
				covered[r][c] = true
			}
		}
	}
	for r := range covered {
		for c := range covered[r] {
			if !covered[r][c] {
				t.Fatalf("cell (%d,%d) uncovered", r, c)
			}
		}
	}
}

func TestRectHelpers(t *testing.T) {
	r := Rect{Rows: Range{1, 3}, Cols: Range{2, 6}}
	if r.Cells() != 8 || r.Empty() {
		t.Fatalf("Cells/Empty wrong for %v", r)
	}
	if !(Rect{Rows: Range{1, 1}, Cols: Range{0, 5}}).Empty() {
		t.Fatal("empty rows must make rect empty")
	}
	if FullRect(4, 5).Cells() != 20 {
		t.Fatal("FullRect wrong")
	}
}

func TestRectFLOPsMatchesRowRegionForFullWidth(t *testing.T) {
	// A full-width rectangle must cost exactly what the 1D row machinery
	// computes for the same rows — the two code paths must agree.
	m := nn.VGG16Conv()
	c := NewCalc(m)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		from := rng.Intn(m.NumLayers() - 1)
		to := from + 1 + rng.Intn(min(6, m.NumLayers()-from))
		outShape := m.OutShape(to - 1)
		lo := rng.Intn(outShape.H)
		hi := lo + 1 + rng.Intn(outShape.H-lo)
		rowFlops := c.SegmentRegionFLOPs(from, to, Range{lo, hi})
		rectFlops := c.SegmentRectFLOPs(from, to, Rect{Rows: Range{lo, hi}, Cols: Full(outShape.W)})
		if rowFlops != rectFlops {
			t.Fatalf("segment [%d,%d) rows [%d,%d): row %d != rect %d", from, to, lo, hi, rowFlops, rectFlops)
		}
	}
}

func TestRectFLOPsGraphModel(t *testing.T) {
	m := nn.TinyGraph()
	c := NewCalc(m)
	outShape := m.Output()
	full := c.SegmentRectFLOPs(0, m.NumLayers(), FullRect(outShape.H, outShape.W))
	if full != m.TotalFLOPs() {
		t.Fatalf("full-rect FLOPs %d != model %d", full, m.TotalFLOPs())
	}
}

func TestGridBeatsSkinnyStrips(t *testing.T) {
	// The overlap halo scales with cut length: p row strips cut (p-1)
	// widths, a sqrt(p) x sqrt(p) grid cuts ~2(sqrt(p)-1) — so for large p
	// on a square map the DeepThings grid wins on BOTH per-device input
	// footprint and total redundant work.
	m := nn.VGG16Conv()
	c := NewCalc(m)
	from, to := 0, 10 // through pool3
	outShape := m.OutShape(to - 1)
	const p = 16
	strips := c.Redundancy(from, to, GridPartition(outShape.H, outShape.W, p, 1))
	grid := c.Redundancy(from, to, GridPartition(outShape.H, outShape.W, 4, 4))
	if grid.MaxInputBytes >= strips.MaxInputBytes {
		t.Fatalf("grid footprint %d >= strip footprint %d", grid.MaxInputBytes, strips.MaxInputBytes)
	}
	if grid.TotalFLOPs >= strips.TotalFLOPs {
		t.Fatalf("16-way grid total %.4g >= skinny strips %.4g", grid.TotalFLOPs, strips.TotalFLOPs)
	}
	if grid.Ratio() <= 0 || strips.Ratio() <= 0 {
		t.Fatal("deep fusion must show redundancy in both layouts")
	}
	// At p=2 the comparison flips: one horizontal cut (W) beats one
	// vertical-plus-nothing... a 1x2 column grid cuts H >= W is equal on a
	// square map; assert strips are at least as good there.
	strips2 := c.Redundancy(from, to, GridPartition(outShape.H, outShape.W, 2, 1))
	cols2 := c.Redundancy(from, to, GridPartition(outShape.H, outShape.W, 1, 2))
	if strips2.TotalFLOPs > cols2.TotalFLOPs*1.05 {
		t.Fatalf("2 row strips %.4g much worse than 2 column strips %.4g on a square map",
			strips2.TotalFLOPs, cols2.TotalFLOPs)
	}
}

func TestRedundancySingleTile(t *testing.T) {
	m := nn.VGG16Conv()
	c := NewCalc(m)
	outShape := m.OutShape(4)
	stats := c.Redundancy(0, 5, []Rect{FullRect(outShape.H, outShape.W)})
	if stats.RedundantFLOPs != 0 {
		t.Fatalf("single tile redundancy %.4g", stats.RedundantFLOPs)
	}
	if stats.TotalFLOPs != float64(m.SegmentFLOPs(0, 5)) {
		t.Fatalf("single tile total %.6g != %.6g", stats.TotalFLOPs, float64(m.SegmentFLOPs(0, 5)))
	}
	if stats.MaxTileFLOPs() != stats.TotalFLOPs {
		t.Fatal("bottleneck of one tile must equal total")
	}
}

// TestCoveredCells checks the per-cell multiplicity count through a one-layer
// model costing one MAC a cell, so covered cells = total - redundant.
func TestCoveredCells(t *testing.T) {
	covered := func(side int, tiles []Rect) float64 {
		m := &nn.Model{Name: "one", Input: nn.Shape{C: 1, H: side, W: side}, Layers: []nn.Layer{nn.Conv1x1("a", 1, nn.ReLU)}}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		stats := NewCalc(m).Redundancy(0, 1, tiles)
		return stats.TotalFLOPs - stats.RedundantFLOPs
	}
	rects := []Rect{
		{Rows: Range{0, 2}, Cols: Range{0, 2}},
		{Rows: Range{1, 3}, Cols: Range{1, 3}}, // overlaps 1 cell
	}
	if got := covered(3, rects); got != 7 {
		t.Fatalf("covered = %v, want 7", got)
	}
	if got := covered(4, nil); got != 0 {
		t.Fatalf("covered = %v, want 0", got)
	}
	// Rects beyond the extent are clamped.
	if got := covered(2, []Rect{{Rows: Range{-5, 99}, Cols: Range{-5, 99}}}); got != 4 {
		t.Fatalf("covered = %v, want 4", got)
	}
}

func TestRectBytes(t *testing.T) {
	m := nn.VGG16()
	c := NewCalc(m)
	// Boundary 0 is the 3x224x224 input.
	b := c.RectBytes(0, Rect{Rows: Range{0, 10}, Cols: Range{0, 20}})
	if b != int64(10*20*3*4) {
		t.Fatalf("RectBytes = %d", b)
	}
}

func TestPathRangesAndHeights(t *testing.T) {
	m := nn.TinyGraph()
	c := NewCalc(m)
	blk := &m.Layers[1] // res1: identity + two 3x3 convs
	main := blk.Paths[0]
	in := m.InShape(1)
	// Two 3x3 s1 convs: [4,8) needs [2,10) at the path input.
	if need := c.PathRects(main, Rect{Rows: Range{4, 8}, Cols: Full(in.W)}, in)[0].Rows; need != (Range{2, 10}) {
		t.Fatalf("path input range = %v, want [2,10)", need)
	}
	shapes := c.pathShapes(main, in)
	if len(shapes) != len(main)+1 || shapes[0].H != in.H || shapes[len(shapes)-1].H != in.H {
		t.Fatalf("pathShapes = %v", shapes)
	}
}

func TestPathRectsGraph(t *testing.T) {
	m := nn.TinyGraph()
	c := NewCalc(m)
	blk := &m.Layers[1]
	main := blk.Paths[0]
	in := m.InShape(1)
	out := Rect{Rows: Range{4, 8}, Cols: Range{2, 6}}
	needs := c.PathRects(main, out, in)
	if len(needs) != len(main)+1 {
		t.Fatalf("PathRects len = %d", len(needs))
	}
	if needs[0].Rows != (Range{2, 10}) || needs[0].Cols != (Range{0, 8}) {
		t.Fatalf("path input rect = %v, want [2,10)x[0,8)", needs[0])
	}
}

func TestRectAndStatsStrings(t *testing.T) {
	r := Rect{Rows: Range{1, 2}, Cols: Range{3, 4}}
	if r.String() != "[1,2)x[3,4)" {
		t.Fatalf("Rect.String = %q", r.String())
	}
	var rs RedundancyStats
	if rs.Ratio() != 0 {
		t.Fatal("zero RedundancyStats ratio must be 0")
	}
}

func TestSegmentRectsFullInputLayer(t *testing.T) {
	// A segment containing fc: grid back-prop must demand the whole map.
	m := nn.VGG16()
	c := NewCalc(m)
	rects := c.SegmentRects(17, 19, FullRect(1, 1)) // pool5 + fc6
	in := m.InShape(17)
	if rects[0].Rows != (Range{0, in.H}) || rects[0].Cols != (Range{0, in.W}) {
		t.Fatalf("fc-crossing rect = %v, want full %dx%d", rects[0], in.H, in.W)
	}
}
