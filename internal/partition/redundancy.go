package partition

import "pico/internal/nn"

// RedundancyStats quantifies overlap-induced recomputation when the devices
// of one stage each produce a tile of segment [from, to).
//
// For every atomic layer (descending into block paths) and every output
// cell, the cell's MACs are counted once per tile that computes it; with
// multiplicity m, (m-1) copies are redundant. Redundant work is attributed
// to the computing tiles in equal shares, giving the per-device redundancy
// ratios of the paper's Table I.
type RedundancyStats struct {
	// TotalFLOPs is the work actually performed, Σ_k θ(M; F^k).
	TotalFLOPs float64
	// RedundantFLOPs is the portion computed more than once.
	RedundantFLOPs float64
	// PerDeviceFLOPs is each tile's performed work, θ(M; F^k).
	PerDeviceFLOPs []float64
	// PerDeviceRedundant is each tile's attributed redundant work.
	PerDeviceRedundant []float64
	// MaxInputBytes is the largest per-tile input region — DeepThings'
	// per-device memory-footprint metric.
	MaxInputBytes int64
}

// Ratio returns the global redundancy ratio (0 when no work is performed).
func (s *RedundancyStats) Ratio() float64 {
	if s.TotalFLOPs == 0 {
		return 0
	}
	return s.RedundantFLOPs / s.TotalFLOPs
}

// MaxTileFLOPs returns the heaviest tile's work (the bottleneck).
func (s *RedundancyStats) MaxTileFLOPs() float64 {
	worst := 0.0
	for _, f := range s.PerDeviceFLOPs {
		worst = max(worst, f)
	}
	return worst
}

// Redundancy computes overlap statistics for the given per-device output
// tiles of segment [from, to) — row strips and grid tiles alike. len(tiles)
// is the device count; empty tiles denote idle devices. Multiplicity is
// counted exactly per feature-map cell with a 2D difference array per layer,
// so the cost is O(layers x (H x W + tiles)).
func (c *Calc) Redundancy(from, to int, tiles []Rect) RedundancyStats {
	stats := RedundancyStats{
		PerDeviceFLOPs:     make([]float64, len(tiles)),
		PerDeviceRedundant: make([]float64, len(tiles)),
	}
	layers, shapes := c.segment(from, to)
	out := shapes[to-from]
	rects := make([][]Rect, len(tiles))
	for k, tile := range tiles {
		if c.Mode == Clamped {
			tile = Rect{Rows: tile.Rows.Clamp(out.H), Cols: tile.Cols.Clamp(out.W)}
		}
		rects[k] = c.boundaryRects(layers, shapes, tile, true)
		stats.MaxInputBytes = max(stats.MaxInputBytes, c.RectBytes(from, rects[k][0]))
	}
	c.chainOverlap(&stats, layers, shapes, rects)
	for _, f := range stats.PerDeviceFLOPs {
		stats.TotalFLOPs += f
	}
	return stats
}

// chainOverlap accounts every layer of a chain — a segment, or one block
// path — given each tile's regions at the chain's boundaries (rects[k] is
// tile k's TileRects or PathTileRects).
func (c *Calc) chainOverlap(s *RedundancyStats, layers []nn.Layer, shapes []nn.Shape, rects [][]Rect) {
	outs := make([]Rect, len(rects))
	for i := range layers {
		for k := range rects {
			outs[k] = rects[k][i+1]
		}
		if l := &layers[i]; l.Kind != nn.Block {
			s.addLayer(float64(l.CellMACs(shapes[i])), outs)
			continue
		}
		for _, path := range layers[i].Paths {
			pathShapes := c.pathShapes(path, shapes[i])
			needs := make([][]Rect, len(outs))
			for k, out := range outs {
				needs[k] = c.boundaryRects(path, pathShapes, out, true)
			}
			c.chainOverlap(s, path, pathShapes, needs)
		}
	}
}

// addLayer accounts one atomic layer costing per MACs an output cell, of
// which tile k computes the cells outs[k].
func (s *RedundancyStats) addLayer(per float64, outs []Rect) {
	if per == 0 {
		return
	}
	var hull Rect
	for _, r := range outs {
		if !r.Empty() {
			hull = hull.Hull(r)
		}
	}
	if hull.Empty() {
		return
	}
	// mult is a 2D difference array over the hull, one guard row and column
	// wide, prefix-summed in place into every cell's multiplicity.
	w := hull.Cols.Len() + 1
	mult := make([]int, (hull.Rows.Len()+1)*w)
	at := func(row, col int) *int { return &mult[(row-hull.Rows.Lo)*w+col-hull.Cols.Lo] }
	for _, r := range outs {
		if r.Empty() {
			continue
		}
		*at(r.Rows.Lo, r.Cols.Lo)++
		*at(r.Rows.Lo, r.Cols.Hi)--
		*at(r.Rows.Hi, r.Cols.Lo)--
		*at(r.Rows.Hi, r.Cols.Hi)++
	}
	for i := range mult {
		if i%w != 0 {
			mult[i] += mult[i-1]
		}
	}
	covered, computed := 0, 0
	for i := range mult {
		if i >= w {
			mult[i] += mult[i-w]
		}
		if mult[i] > 0 {
			covered++
		}
	}
	for k, r := range outs {
		if r.Empty() {
			continue
		}
		computed += r.Cells()
		s.PerDeviceFLOPs[k] += per * float64(r.Cells())
		for row := r.Rows.Lo; row < r.Rows.Hi; row++ {
			// Each run of n cells of equal multiplicity m along the row
			// carries n(m-1) redundant copies, shared by m tiles.
			for col := r.Cols.Lo; col < r.Cols.Hi; {
				m, start := *at(row, col), col
				for col < r.Cols.Hi && *at(row, col) == m {
					col++
				}
				s.PerDeviceRedundant[k] += per * float64(col-start) * float64(m-1) / float64(m)
			}
		}
	}
	s.RedundantFLOPs += per * float64(computed-covered)
}
