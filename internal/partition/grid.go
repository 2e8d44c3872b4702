package partition

import (
	"fmt"

	"pico/internal/nn"
)

// This file extends the row-strip machinery to DeepThings-style 2D grid
// partitions (Zhao et al., the paper's [7]): the output feature map is cut
// into a rows x cols grid of tiles. Grids shrink each device's input region
// (the memory argument DeepThings makes) at the price of more overlap
// boundary, trading per-device footprint against total redundant work. The
// strip-vs-grid comparison is exposed as an ablation experiment; the
// runtime executes strips (as the paper's PICO does).

// Rect is a rectangular feature-map region.
type Rect struct {
	Rows, Cols Range
}

// Empty reports whether the rectangle covers no cells.
func (r Rect) Empty() bool { return r.Rows.Empty() || r.Cols.Empty() }

// Cells returns the number of covered feature-map positions.
func (r Rect) Cells() int { return r.Rows.Len() * r.Cols.Len() }

func (r Rect) String() string { return fmt.Sprintf("%vx%v", r.Rows, r.Cols) }

// FullRect covers an h x w feature map.
func FullRect(h, w int) Rect { return Rect{Rows: Full(h), Cols: Full(w)} }

// GridPartition splits an h x w map into a rows x cols grid whose tile
// extents differ by at most one in each axis, in row-major order.
func GridPartition(h, w, rows, cols int) []Rect {
	rr := Equal(h, rows)
	cc := Equal(w, cols)
	out := make([]Rect, 0, rows*cols)
	for _, r := range rr {
		for _, c := range cc {
			out = append(out, Rect{Rows: r, Cols: c})
		}
	}
	return out
}

// axisInRange back-propagates one axis of a conv/pool window.
func axisInRange(out Range, k, s, p, inExtent int, mode RFMode) Range {
	if out.Empty() {
		return Range{}
	}
	lo := out.Lo*s - p
	hi := (out.Hi-1)*s - p + k
	r := Range{lo, hi}
	if mode == Clamped {
		r = r.Clamp(inExtent)
	}
	return r
}

// layerInRect back-propagates an output rectangle through one layer.
func (c *Calc) layerInRect(l *nn.Layer, out Rect, in nn.Shape) Rect {
	if out.Empty() {
		return Rect{}
	}
	switch l.Kind {
	case nn.Conv, nn.MaxPool, nn.AvgPool:
		return Rect{
			Rows: axisInRange(out.Rows, l.KH, l.SH, l.PH, in.H, c.Mode),
			Cols: axisInRange(out.Cols, l.KW, l.SW, l.PW, in.W, c.Mode),
		}
	case nn.GlobalAvgPool, nn.FullyConnected:
		return FullRect(in.H, in.W)
	case nn.Block:
		var hull Rect
		for _, path := range l.Paths {
			r := c.pathInRect(path, out, in)
			hull.Rows = hull.Rows.Hull(r.Rows)
			hull.Cols = hull.Cols.Hull(r.Cols)
		}
		return hull
	default:
		panic(fmt.Sprintf("partition: unknown layer kind %v", l.Kind))
	}
}

// pathShapes returns the full shapes at each boundary of a block path.
func (c *Calc) pathShapes(path []nn.Layer, blockIn nn.Shape) []nn.Shape {
	shapes := make([]nn.Shape, len(path)+1)
	shapes[0] = blockIn
	for i := range path {
		next, err := path[i].OutShape(shapes[i])
		if err != nil {
			panic(fmt.Sprintf("partition: invalid block path layer %q: %v", path[i].Name, err))
		}
		shapes[i+1] = next
	}
	return shapes
}

func (c *Calc) pathInRect(path []nn.Layer, out Rect, blockIn nn.Shape) Rect {
	shapes := c.pathShapes(path, blockIn)
	r := out
	for i := len(path) - 1; i >= 0; i-- {
		r = c.layerInRect(&path[i], r, shapes[i])
	}
	return r
}

// SegmentRects back-propagates an output rectangle of segment [from, to)
// to every layer boundary; entry k is the required region at the input of
// layer from+k.
func (c *Calc) SegmentRects(from, to int, out Rect) []Rect {
	if from < 0 || to > len(c.M.Layers) || from >= to {
		panic(fmt.Sprintf("partition: invalid segment [%d,%d)", from, to))
	}
	shapes := c.M.Shapes()
	rects := make([]Rect, to-from+1)
	rects[to-from] = out
	r := out
	for i := to - 1; i >= from; i-- {
		r = c.layerInRect(&c.M.Layers[i], r, shapes[i])
		rects[i-from] = r
	}
	return rects
}

// cellFLOPs returns the MACs to produce one output cell of layer l.
func cellFLOPs(l *nn.Layer, in nn.Shape) int64 {
	switch l.Kind {
	case nn.Conv:
		g := int64(1)
		if l.Groups > 1 {
			g = int64(l.Groups)
		}
		return int64(l.KH) * int64(l.KW) * int64(in.C) / g * int64(l.OutC)
	default:
		return 0
	}
}

// layerRectFLOPs returns the MACs of one layer producing an output
// rectangle; blocks descend into paths.
func (c *Calc) layerRectFLOPs(l *nn.Layer, in nn.Shape, out Rect) int64 {
	if out.Empty() {
		return 0
	}
	switch l.Kind {
	case nn.Block:
		var sum int64
		for _, path := range l.Paths {
			sum += c.pathRectFLOPs(path, in, out)
		}
		return sum
	case nn.FullyConnected:
		return int64(in.Elems()) * int64(l.OutF)
	default:
		return cellFLOPs(l, in) * int64(out.Cells())
	}
}

func (c *Calc) pathRectFLOPs(path []nn.Layer, blockIn nn.Shape, out Rect) int64 {
	if len(path) == 0 {
		return 0
	}
	shapes := c.pathShapes(path, blockIn)
	needs := make([]Rect, len(path)+1)
	r := out
	for i := len(path) - 1; i >= 0; i-- {
		needs[i+1] = r
		r = c.layerInRect(&path[i], r, shapes[i])
	}
	var sum int64
	for i := range path {
		sum += c.layerRectFLOPs(&path[i], shapes[i], needs[i+1])
	}
	return sum
}

// SegmentRectFLOPs returns θ(M_{from→to}; F) for a rectangular output
// region — the 2D-grid analogue of SegmentRegionFLOPs.
func (c *Calc) SegmentRectFLOPs(from, to int, out Rect) int64 {
	rects := c.SegmentRects(from, to, out)
	var sum int64
	for i := from; i < to; i++ {
		sum += c.layerRectFLOPs(&c.M.Layers[i], c.M.InShape(i), rects[i-from+1])
	}
	return sum
}

// RectBytes returns φ(F) for a rectangular region at layer boundary idx.
func (c *Calc) RectBytes(idx int, r Rect) int64 {
	s := c.M.Shapes()[idx]
	rows, cols := r.Rows, r.Cols
	if c.Mode == Clamped {
		rows = rows.Clamp(s.H)
		cols = cols.Clamp(s.W)
	}
	return int64(rows.Len()) * int64(cols.Len()) * int64(s.C) * 4
}

// GridStats summarizes a grid (or strip) partition of a fused segment.
type GridStats struct {
	// TotalFLOPs is the work all tiles perform, Σ θ.
	TotalFLOPs float64
	// RedundantFLOPs is the portion computed more than once across tiles.
	RedundantFLOPs float64
	// MaxTileFLOPs is the heaviest tile's work (the bottleneck).
	MaxTileFLOPs float64
	// MaxInputBytes is the largest per-tile input region — DeepThings'
	// per-device memory-footprint metric.
	MaxInputBytes int64
}

// Ratio returns the redundant work fraction.
func (s *GridStats) Ratio() float64 {
	if s.TotalFLOPs == 0 {
		return 0
	}
	return s.RedundantFLOPs / s.TotalFLOPs
}

// GridStats evaluates a set of output tiles over segment [from, to):
// total/redundant/bottleneck FLOPs plus the worst-case input footprint.
// Multiplicity is counted exactly per feature-map cell with a 2D difference
// array per layer, so the cost is O(layers x (H x W + tiles)).
func (c *Calc) GridStats(from, to int, tiles []Rect) GridStats {
	var stats GridStats
	for _, tile := range tiles {
		if tile.Empty() {
			continue
		}
		f := float64(c.SegmentRectFLOPs(from, to, tile))
		stats.TotalFLOPs += f
		if f > stats.MaxTileFLOPs {
			stats.MaxTileFLOPs = f
		}
		if b := c.RectBytes(from, c.SegmentRects(from, to, tile)[0]); b > stats.MaxInputBytes {
			stats.MaxInputBytes = b
		}
	}
	// Unique (deduplicated) work per layer via multiplicity counting.
	shapes := c.M.Shapes()
	perTile := make([][]Rect, len(tiles))
	for ti, tile := range tiles {
		if tile.Empty() {
			continue
		}
		perTile[ti] = c.SegmentRects(from, to, tile)
	}
	var unique float64
	for i := from; i < to; i++ {
		l := &c.M.Layers[i]
		if l.Kind == nn.Block {
			unique += c.blockUniqueFLOPs(l, shapes[i], perTile, i-from+1)
			continue
		}
		per := float64(cellFLOPs(l, shapes[i]))
		if l.Kind == nn.FullyConnected {
			per = float64(int64(shapes[i].Elems()) * int64(l.OutF))
			// FC occupies a single 1x1 "cell".
		}
		if per == 0 {
			continue
		}
		out := c.M.OutShape(i)
		rects := make([]Rect, 0, len(tiles))
		for ti := range tiles {
			if perTile[ti] != nil {
				rects = append(rects, perTile[ti][i-from+1])
			}
		}
		unique += per * float64(coveredCells(rects, out.H, out.W))
	}
	stats.RedundantFLOPs = stats.TotalFLOPs - unique
	if stats.RedundantFLOPs < 0 {
		stats.RedundantFLOPs = 0
	}
	return stats
}

// blockUniqueFLOPs counts each block path layer's covered cells once.
func (c *Calc) blockUniqueFLOPs(blk *nn.Layer, blockIn nn.Shape, perTile [][]Rect, boundary int) float64 {
	var unique float64
	for _, path := range blk.Paths {
		if len(path) == 0 {
			continue
		}
		shapes := c.pathShapes(path, blockIn)
		// For each tile, the block output rect; back-prop within the path.
		needsPerTile := make([][]Rect, 0, len(perTile))
		for ti := range perTile {
			if perTile[ti] == nil {
				continue
			}
			out := perTile[ti][boundary]
			needs := make([]Rect, len(path)+1)
			r := out
			for i := len(path) - 1; i >= 0; i-- {
				needs[i+1] = r
				r = c.layerInRect(&path[i], r, shapes[i])
			}
			needsPerTile = append(needsPerTile, needs)
		}
		for i := range path {
			per := float64(cellFLOPs(&path[i], shapes[i]))
			if per == 0 {
				continue
			}
			rects := make([]Rect, 0, len(needsPerTile))
			for _, needs := range needsPerTile {
				rects = append(rects, needs[i+1])
			}
			unique += per * float64(coveredCells(rects, shapes[i+1].H, shapes[i+1].W))
		}
	}
	return unique
}

// coveredCells counts cells of an h x w map covered by at least one rect,
// using a 2D difference array.
func coveredCells(rects []Rect, h, w int) int {
	diff := make([]int, (h+1)*(w+1))
	idx := func(r, c int) int { return r*(w+1) + c }
	for _, rc := range rects {
		rows := rc.Rows.Clamp(h)
		cols := rc.Cols.Clamp(w)
		if rows.Empty() || cols.Empty() {
			continue
		}
		diff[idx(rows.Lo, cols.Lo)]++
		diff[idx(rows.Lo, cols.Hi)]--
		diff[idx(rows.Hi, cols.Lo)]--
		diff[idx(rows.Hi, cols.Hi)]++
	}
	covered := 0
	rowAcc := make([]int, w+1)
	for r := 0; r < h; r++ {
		for col := 0; col < w; col++ {
			rowAcc[col] += diff[idx(r, col)]
		}
		acc := 0
		for col := 0; col < w; col++ {
			acc += rowAcc[col]
			if acc > 0 {
				covered++
			}
		}
	}
	return covered
}

// TileRects is SegmentRects as the tensor engine executes a tile: an output
// rectangle spanning the map's full width — a row strip — stays full-width
// at every boundary, even where back-propagation would trim trailing columns
// that an odd extent into a stride-2 layer never reads. Strips therefore run
// the full-width kernels end to end and take full-width input rows; the rows
// are exactly SegmentRanges'.
func (c *Calc) TileRects(from, to int, out Rect) []Rect {
	return keepFullWidth(c.SegmentRects(from, to, out), c.M.Shapes()[from:to+1])
}

// PathTileRects is TileRects for one block path (see PathRects).
func (c *Calc) PathTileRects(path []nn.Layer, out Rect, blockIn nn.Shape) []Rect {
	return keepFullWidth(c.PathRects(path, out, blockIn), c.pathShapes(path, blockIn))
}

// keepFullWidth widens every boundary to its map's width when the last one
// (the requested output) already spans its own.
func keepFullWidth(rects []Rect, shapes []nn.Shape) []Rect {
	if last := len(rects) - 1; rects[last].Cols == Full(shapes[last].W) {
		for i := range rects {
			rects[i].Cols = Full(shapes[i].W)
		}
	}
	return rects
}

// PathRects back-propagates an output rectangle through one block path; the
// result has len(path)+1 entries, entry 0 being the needed block-input
// region. The path form of SegmentRects.
func (c *Calc) PathRects(path []nn.Layer, out Rect, blockIn nn.Shape) []Rect {
	shapes := c.pathShapes(path, blockIn)
	needs := make([]Rect, len(path)+1)
	r := out
	for i := len(path) - 1; i >= 0; i-- {
		needs[i+1] = r
		r = c.layerInRect(&path[i], r, shapes[i])
	}
	needs[0] = r
	return needs
}
