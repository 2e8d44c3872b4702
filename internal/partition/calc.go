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
type Calc struct {
	M    *nn.Model
	Mode RFMode
}

// NewCalc returns a Calc in Clamped mode.
func NewCalc(m *nn.Model) *Calc { return &Calc{M: m, Mode: Clamped} }

// layerInRange back-propagates an output row range through a single layer
// with the given input height.
func (c *Calc) layerInRange(l *nn.Layer, out Range, inH int) Range {
	if out.Empty() {
		return Range{}
	}
	switch l.Kind {
	case nn.Conv, nn.MaxPool, nn.AvgPool:
		lo := out.Lo*l.SH - l.PH
		hi := (out.Hi-1)*l.SH - l.PH + l.KH
		r := Range{lo, hi}
		if c.Mode == Clamped {
			r = r.Clamp(inH)
		}
		return r
	case nn.GlobalAvgPool, nn.FullyConnected:
		return Range{0, inH}
	case nn.Block:
		var hull Range
		for _, path := range l.Paths {
			hull = hull.Hull(c.pathInRange(path, out, inH))
		}
		return hull
	default:
		panic(fmt.Sprintf("partition: unknown layer kind %v", l.Kind))
	}
}

// pathInRange back-propagates through a block path (a chain applied to the
// block input of height inH). An empty path is the identity.
func (c *Calc) pathInRange(path []nn.Layer, out Range, inH int) Range {
	heights := c.pathHeights(path, inH)
	r := out
	for i := len(path) - 1; i >= 0; i-- {
		r = c.layerInRange(&path[i], r, heights[i])
	}
	return r
}

// pathHeights returns the input height of each layer in a block path;
// heights[i] is the input height of path[i].
func (c *Calc) pathHeights(path []nn.Layer, inH int) []int {
	heights := make([]int, len(path)+1)
	heights[0] = inH
	// Width/channels do not affect row back-propagation; a representative
	// shape is enough to advance heights.
	cur := nn.Shape{C: 1, H: inH, W: 8}
	for i := range path {
		next, err := path[i].OutShape(cur)
		if err != nil {
			panic(fmt.Sprintf("partition: invalid block path layer %q: %v", path[i].Name, err))
		}
		cur = next
		heights[i+1] = cur.H
	}
	return heights
}

// SegmentRanges back-propagates the output row range of segment [from, to)
// to every layer boundary. The result has to-from+1 entries: entry k is the
// required row range at the input of layer from+k (entry to-from is the
// output range itself). This realizes the recursive Eq. (3) with boundary
// clamping.
func (c *Calc) SegmentRanges(from, to int, out Range) []Range {
	if from < 0 || to > len(c.M.Layers) || from >= to {
		panic(fmt.Sprintf("partition: invalid segment [%d,%d)", from, to))
	}
	shapes := c.M.Shapes()
	ranges := make([]Range, to-from+1)
	ranges[to-from] = out
	r := out
	for i := to - 1; i >= from; i-- {
		r = c.layerInRange(&c.M.Layers[i], r, shapes[i].H)
		ranges[i-from] = r
	}
	return ranges
}

// InputRange returns the input row range segment [from, to) needs to produce
// the output rows out.
func (c *Calc) InputRange(from, to int, out Range) Range {
	return c.SegmentRanges(from, to, out)[0]
}

// rowFLOPs returns the MACs to produce one output row of layer l.
func rowFLOPs(l *nn.Layer, in, out nn.Shape) int64 {
	switch l.Kind {
	case nn.Conv:
		g := int64(1)
		if l.Groups > 1 {
			g = int64(l.Groups)
		}
		return int64(l.KH) * int64(l.KW) * int64(in.C) / g * int64(out.W) * int64(out.C)
	case nn.FullyConnected:
		// FC output is a single "row"; producing it costs the whole layer.
		return int64(in.Elems()) * int64(l.OutF)
	default:
		return 0
	}
}

// LayerRegionFLOPs returns the MACs of layer index i when producing the
// given output row range — the paper's f(l_i; F_i^k), Eq. (2) restricted to
// a region. Blocks descend into their paths.
func (c *Calc) LayerRegionFLOPs(i int, out Range) int64 {
	l := &c.M.Layers[i]
	in := c.M.InShape(i)
	outShape := c.M.OutShape(i)
	return c.layerRegionFLOPs(l, in, outShape, out)
}

func (c *Calc) layerRegionFLOPs(l *nn.Layer, in, outShape nn.Shape, out Range) int64 {
	if out.Empty() {
		return 0
	}
	switch l.Kind {
	case nn.Block:
		var sum int64
		for _, path := range l.Paths {
			sum += c.pathRegionFLOPs(path, in, out)
		}
		return sum
	default:
		return rowFLOPs(l, in, outShape) * int64(out.Len())
	}
}

// pathRegionFLOPs returns the MACs of one block path producing the given
// output row range, back-propagating the needed rows through the path.
func (c *Calc) pathRegionFLOPs(path []nn.Layer, blockIn nn.Shape, out Range) int64 {
	if len(path) == 0 {
		return 0 // identity shortcut
	}
	// Forward shapes within the path.
	shapes := make([]nn.Shape, len(path)+1)
	shapes[0] = blockIn
	for i := range path {
		next, err := path[i].OutShape(shapes[i])
		if err != nil {
			panic(fmt.Sprintf("partition: invalid block path layer %q: %v", path[i].Name, err))
		}
		shapes[i+1] = next
	}
	// Backward ranges: needs[i] is the output row range path layer i-1 must
	// produce (equivalently, the rows path[i] consumes as input).
	needs := make([]Range, len(path)+1)
	r := out
	for i := len(path) - 1; i >= 0; i-- {
		needs[i+1] = r
		r = c.layerInRange(&path[i], r, shapes[i].H)
	}
	var sum int64
	for i := range path {
		sum += c.layerRegionFLOPs(&path[i], shapes[i], shapes[i+1], needs[i+1])
	}
	return sum
}

// SegmentRegionFLOPs returns θ(M_{from→to}; F^k) — Eq. (4): the MACs a
// device performs to produce the output rows out of segment [from, to),
// including all overlap-induced recomputation of intermediate rows.
func (c *Calc) SegmentRegionFLOPs(from, to int, out Range) int64 {
	ranges := c.SegmentRanges(from, to, out)
	var sum int64
	for i := from; i < to; i++ {
		sum += c.LayerRegionFLOPs(i, ranges[i-from+1])
	}
	return sum
}

// RegionBytes returns φ(F) for a row range of the feature map at layer
// boundary idx (0 = model input, i = output of layer i-1): the float32 byte
// size of the partial feature map a device must receive or send.
func (c *Calc) RegionBytes(idx int, r Range) int64 {
	s := c.M.Shapes()[idx]
	rows := r
	if c.Mode == Clamped {
		rows = r.Clamp(s.H)
	}
	return int64(rows.Len()) * int64(s.C) * int64(s.W) * 4
}

// SegmentIOBytes returns the input and output byte volumes of a device
// producing output rows out of segment [from, to) — the φ(F_i^k)+φ(F_j^k)
// numerator of Eq. (7).
func (c *Calc) SegmentIOBytes(from, to int, out Range) (in, outBytes int64) {
	r := c.InputRange(from, to, out)
	return c.RegionBytes(from, r), c.RegionBytes(to, out)
}
