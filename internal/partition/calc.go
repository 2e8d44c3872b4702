package partition

import (
	"fmt"

	"pico/internal/nn"
)

// RFMode selects how receptive fields behave at feature-map boundaries.
type RFMode int

const (
	// Clamped restricts every back-propagated range to the real extent of
	// the layer input. This is required for bit-exact tile execution and
	// is the default for all experiments.
	Clamped RFMode = iota + 1
	// PaperRF follows the paper's Eq. (3) verbatim — the required input
	// extent is (h-1)s + k regardless of padding or boundaries — so ranges
	// may extend past the tensor (the overshoot counts as if it were real
	// rows). Provided for fidelity comparisons with the paper's cost
	// numbers.
	PaperRF
)

// Calc computes receptive fields, region FLOPs and region sizes for one
// model. It is stateless apart from the model reference and is safe for
// concurrent use.
//
// All geometry is rectangular: one walk from a region back to the input it
// needs (backChain over layerInRect) that also counts its MACs, and one byte
// count (RectBytes). A row strip is the rect spanning its map's full width,
// and the row API — SegmentRanges, InputRange, SegmentRegionFLOPs,
// RegionBytes, SegmentIOBytes — is that rect's projection onto the row axis.
type Calc struct {
	M    *nn.Model
	Mode RFMode
}

// NewCalc returns a Calc in Clamped mode.
func NewCalc(m *nn.Model) *Calc { return &Calc{M: m, Mode: Clamped} }

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

// layerInRect back-propagates an output rectangle through one atomic layer —
// Eq. (3) on both axes.
func (c *Calc) layerInRect(l *nn.Layer, out Rect, in nn.Shape) Rect {
	switch l.Kind {
	case nn.Conv, nn.MaxPool, nn.AvgPool:
		return Rect{
			Rows: axisInRange(out.Rows, l.KH, l.SH, l.PH, in.H, c.Mode),
			Cols: axisInRange(out.Cols, l.KW, l.SW, l.PW, in.W, c.Mode),
		}
	case nn.GlobalAvgPool, nn.FullyConnected:
		return FullRect(in.H, in.W)
	default:
		panic(fmt.Sprintf("partition: unknown layer kind %v", l.Kind))
	}
}

// backLayer returns the input region layer l needs to produce the output
// region out, and the MACs of producing it — Eq. (2) restricted to a region:
// MACs per output cell times cells. A block needs the hull of what its paths
// need and costs their sum.
func (c *Calc) backLayer(l *nn.Layer, out Rect, in nn.Shape, tile bool) (need Rect, macs int64) {
	switch {
	case out.Empty():
	case l.Kind != nn.Block:
		need, macs = c.layerInRect(l, out, in), l.CellMACs(in)*int64(out.Cells())
	default:
		for _, path := range l.Paths {
			r, f := c.backChain(path, c.pathShapes(path, in), out, tile, nil)
			need, macs = need.Hull(r), macs+f
		}
	}
	return need, macs
}

// backChain walks a chain of layers — a segment, or one block path (an empty
// path is the identity) — from its output region back to its input: the one
// back-propagation and the one MAC count. shapes are the chain's
// len(layers)+1 boundary shapes. It returns the needed chain input and the
// MACs of producing out; needs, when non-nil, receives the region at every
// boundary. With tile set the regions are those the engine executes (see
// TileRects): an out spanning its map's width stays full-width throughout.
func (c *Calc) backChain(layers []nn.Layer, shapes []nn.Shape, out Rect, tile bool, needs []Rect) (in Rect, macs int64) {
	full := tile && out.Cols == Full(shapes[len(layers)].W)
	in = out
	for i := len(layers) - 1; i >= 0; i-- {
		if needs != nil {
			needs[i+1] = in
		}
		var f int64
		in, f = c.backLayer(&layers[i], in, shapes[i], tile)
		if full {
			in.Cols = Full(shapes[i].W)
		}
		macs += f
	}
	if needs != nil {
		needs[0] = in
	}
	return in, macs
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

// segment returns the layers and boundary shapes of segment [from, to).
func (c *Calc) segment(from, to int) ([]nn.Layer, []nn.Shape) {
	if from < 0 || to > len(c.M.Layers) || from >= to {
		panic(fmt.Sprintf("partition: invalid segment [%d,%d)", from, to))
	}
	return c.M.Layers[from:to], c.M.Shapes()[from : to+1]
}

// boundaryRects returns backChain's needs.
func (c *Calc) boundaryRects(layers []nn.Layer, shapes []nn.Shape, out Rect, tile bool) []Rect {
	needs := make([]Rect, len(layers)+1)
	c.backChain(layers, shapes, out, tile, needs)
	return needs
}

// SegmentRects back-propagates an output rectangle of segment [from, to)
// to every layer boundary. The result has to-from+1 entries: entry k is the
// required region at the input of layer from+k (entry to-from is the output
// rectangle itself).
func (c *Calc) SegmentRects(from, to int, out Rect) []Rect {
	layers, shapes := c.segment(from, to)
	return c.boundaryRects(layers, shapes, out, false)
}

// PathRects back-propagates an output rectangle through one block path (a
// chain applied to the block input). The result has len(path)+1 entries,
// entry 0 being the needed block-input region. The path form of SegmentRects.
func (c *Calc) PathRects(path []nn.Layer, out Rect, blockIn nn.Shape) []Rect {
	return c.boundaryRects(path, c.pathShapes(path, blockIn), out, false)
}

// TileRects is SegmentRects as the tensor engine executes a tile, and as
// every count in this package prices one: an output rectangle spanning the
// map's full width — a row strip — stays full-width at every boundary, even
// where back-propagation would trim trailing columns that an odd extent into
// a stride-2 layer never reads. Strips therefore run the full-width kernels
// end to end and take full-width input rows.
func (c *Calc) TileRects(from, to int, out Rect) []Rect {
	layers, shapes := c.segment(from, to)
	return c.boundaryRects(layers, shapes, out, true)
}

// PathTileRects is TileRects for one block path (see PathRects).
func (c *Calc) PathTileRects(path []nn.Layer, out Rect, blockIn nn.Shape) []Rect {
	return c.boundaryRects(path, c.pathShapes(path, blockIn), out, true)
}

// SegmentRectFLOPs returns θ(M_{from→to}; F) — Eq. (4): the MACs a device
// performs to produce the output rectangle out of segment [from, to),
// including all overlap-induced recomputation of intermediate cells. The
// regions are TileRects', so a full-width rectangle is priced as the strip
// it executes as.
func (c *Calc) SegmentRectFLOPs(from, to int, out Rect) int64 {
	layers, shapes := c.segment(from, to)
	_, macs := c.backChain(layers, shapes, out, true, nil)
	return macs
}

// RectBytes returns φ(F) for a rectangular region of the feature map at
// layer boundary idx (0 = model input, i = output of layer i-1): the float32
// byte size of the partial feature map a device must receive or send.
func (c *Calc) RectBytes(idx int, r Rect) int64 {
	s := c.M.Shapes()[idx]
	rows, cols := r.Rows, r.Cols
	if c.Mode == Clamped {
		rows = rows.Clamp(s.H)
		cols = cols.Clamp(s.W)
	}
	return int64(rows.Len()) * int64(cols.Len()) * int64(s.C) * 4
}

// strip is the rows of boundary idx as the rect they are: full width.
func (c *Calc) strip(idx int, rows Range) Rect {
	return Rect{Rows: rows, Cols: Full(c.M.Shapes()[idx].W)}
}

// SegmentRanges back-propagates the output row range of segment [from, to)
// to every layer boundary: the rows of the strip's TileRects.
func (c *Calc) SegmentRanges(from, to int, out Range) []Range {
	rects := c.TileRects(from, to, c.strip(to, out))
	rows := make([]Range, len(rects))
	for i, r := range rects {
		rows[i] = r.Rows
	}
	return rows
}

// InputRange returns the input row range segment [from, to) needs to produce
// the output rows out.
func (c *Calc) InputRange(from, to int, out Range) Range {
	layers, shapes := c.segment(from, to)
	in, _ := c.backChain(layers, shapes, c.strip(to, out), true, nil)
	return in.Rows
}

// SegmentRegionFLOPs is SegmentRectFLOPs for the output rows out.
func (c *Calc) SegmentRegionFLOPs(from, to int, out Range) int64 {
	return c.SegmentRectFLOPs(from, to, c.strip(to, out))
}

// RegionBytes is RectBytes for a row range of the feature map at layer
// boundary idx.
func (c *Calc) RegionBytes(idx int, r Range) int64 { return c.RectBytes(idx, c.strip(idx, r)) }

// SegmentIOBytes returns the input and output byte volumes of a device
// producing output rows out of segment [from, to) — the φ(F_i^k)+φ(F_j^k)
// numerator of Eq. (7).
func (c *Calc) SegmentIOBytes(from, to int, out Range) (in, outBytes int64) {
	return c.RegionBytes(from, c.InputRange(from, to, out)), c.RegionBytes(to, out)
}
