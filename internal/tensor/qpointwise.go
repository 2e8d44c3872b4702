package tensor

import (
	"slices"
	"sync"

	"pico/internal/nn"
)

// The int8 convolution kernel. A convolution is the matrix product
// out[outC x n] = W[outC x K] * taps[K x n] over the call's n = rows*cols
// flattened output pixels and the K = icg*kh*kw taps each pixel reads, and one
// walker blocks it like a GEMM. Per column block a gather step (convTaps in
// pointwise.go, shared with the float walker) copies the block's taps out of
// the tile into a [K][cols] int8 scratch — zeros where a
// tap falls in the padding: an integer zero product changes no accumulator, so
// the gathered zeros equal the reference's skipped taps bit for bit — then the
// K rows are widened ONCE into an int16 pair panel, and every output-channel
// block sweeps a register tile over that panel and requantizes straight into
// the output. A 1x1 stride-1 conv over whole rows (~94% of MobileNetV1's
// MACs) skips the gather: its taps already lie [K][cols] in the tile. The
// tile comes in variants picked once at init; int32 addition wraps
// associatively, so every variant and blocking order yields the reference
// kernel's accumulators bit for bit (DESIGN.md §6, §8).

const (
	// qpwMR is the channel extent of a weight-panel block and packing tile.
	qpwMR = 8
	// qpwPanelBytes bounds the packed panel of one column block (never below
	// one tile) so it stays L1-resident while the channel blocks' weights
	// stream past. Measured flat from 16 KB to 256 KB on the reference host:
	// it is sized for the scratch it pins, not for speed.
	qpwPanelBytes = 32 << 10
	// qpwGatherBytes is the bound when the block is gathered: the gather
	// copies one output-row segment per tap row at a time, so a block of
	// several output rows makes fewer, longer copies (10-15% of a 576-tap
	// 3x3 layer between 32 KB and 128 KB; flat above, and flat for the
	// in-place source, which copies nothing).
	qpwGatherBytes = 128 << 10
)

// qpwVariant is one register-tile implementation under the walker.
type qpwVariant struct {
	name   string
	mr, nr int // tile extent: output channels x flattened columns
	// pack widens `tiles` adjacent whole tiles of a.src into a.panel; nil for
	// a tile that reads the int8 taps in place.
	pack func(a *qpwCols, tiles int)
	// tile computes, requantizes and stores `tiles` adjacent tiles of weight
	// block ob, whose first output channel is oc0:
	// dst[b*dstStride+t*nr+j] for b in [0,mr), j in [0,nr).
	tile func(dst []int8, dstStride int, a *qpwCols, qw *qconvWeights, ob, oc0, tiles int, act nn.Activation)
}

// qpwCols is the activation operand of a tile sweep: adjacent nr-column
// tiles of k tap rows in place (row g, column j of tile t is
// src[g*rowStride+t*nr+j]) and, once packed, as the panel, where the int16
// pair at panel[((t*pairs+p)*nr+j)*2:] is that column's (row 2p, row 2p+1)
// and an odd trailing row pairs with zero.
type qpwCols struct {
	src       []int8
	rowStride int
	k         int
	panel     []int16
}

func (a *qpwCols) pairs() int { return (a.k + 1) / 2 }

// qpwVariants lists the variants this host can run, fastest first, portable
// last; qpwActive is the one the walker uses — chosen here once, reassigned
// only by the tests, which run every entry against the reference kernels.
var (
	qpwVariants = append(qpwArchVariants(), &qpwVariant{name: "portable", mr: qpwMR, nr: 16, pack: qpwPackPortable, tile: qpwTilePortable})
	qpwActive   = qpwVariants[0]
)

// PointwiseSIMD reports whether the host runs a vector int8 GEMM tile;
// benchmark artefacts record it (without one int8 cannot beat float32).
func PointwiseSIMD() bool { return len(qpwVariants) > 1 }

// qpwScratch is one running kernel's pooled scratch: the gathered taps and
// the packed panel of one column block, and staging rows for tiles that
// cannot store straight into the output.
type qpwScratch struct {
	taps  []int8
	panel []int16
	stage []int8
	// The loaded column block's operands: its whole tiles, its ragged last one.
	whole, last qpwCols
}

var qpwScratchPool = sync.Pool{New: func() any { return new(qpwScratch) }}

// qconvForwardGEMM is the walker. A unit of work is one group's column block
// (whole tiles: as many as fit the panel bound, fewer if that idles workers)
// times one slice of the group's channel blocks (several slices, each
// re-gathering the block, only when there are fewer column blocks than
// workers).
func qconvForwardGEMM(in QTensor, g geom, l *nn.Layer, qw *qconvWeights, par int) QTensor {
	g.mustCover(l, in.H, in.W)
	v := qpwActive
	outRows, outCols := g.out.Rows.Len(), g.out.Cols.Len()
	n := outRows * outCols
	out := AllocQ(l.OutC, outRows, outCols, 1)
	data := out.Data // the closure captures the slice, not the tensor
	groups := max(l.Groups, 1)
	ocg := l.OutC / groups
	taps := newConvTaps(in.Data, in.C, in.H, in.W, g, l)
	tiles := (n + v.nr - 1) / v.nr
	obg := (ocg + v.mr - 1) / v.mr // channel blocks per group
	par = max(par, 1)
	panel := qpwGatherBytes
	if taps.inPlace {
		panel = qpwPanelBytes
	}
	perBlock := max(1, min(panel/(4*v.nr*((taps.k+1)/2)), (tiles+par-1)/par))
	blocks := (tiles + perBlock - 1) / perBlock
	ocParts := min((par+groups*blocks-1)/(groups*blocks), obg) // 1 unless groups*blocks < par
	grain := grainFor(perBlock * v.nr * taps.k * ocg / ocParts)
	parallelForGrain(groups*blocks*ocParts, par, grain, func(lo, hi int) {
		s := qpwScratchPool.Get().(*qpwScratch)
		defer qpwScratchPool.Put(s)
		loaded := -1
		for u := lo; u < hi; u++ {
			gb, part := u/ocParts, u%ocParts
			grp, cb := gb/blocks, gb%blocks
			x0 := cb * perBlock * v.nr
			cols := min(perBlock*v.nr, n-x0)
			wholeCols := cols / v.nr * v.nr
			if gb != loaded {
				s.load(v, &taps, grp, x0, cols)
				loaded = gb
			}
			for b := part * obg / ocParts; b < (part+1)*obg/ocParts; b++ {
				ob, oc0, width := grp*obg+b, grp*ocg+b*v.mr, min(v.mr, ocg-b*v.mr)
				if wholeCols > 0 {
					s.sweep(v, data, n, x0, wholeCols, &s.whole, qw, ob, oc0, width, l.Act)
				}
				if wholeCols < cols {
					s.sweep(v, data, n, x0+wholeCols, cols-wholeCols, &s.last, qw, ob, oc0, width, l.Act)
				}
			}
		}
	})
	return out
}

// load prepares columns [x0, x0+cols) of group grp's tap matrix as s.whole
// and s.last, so every variant reads, and packs, whole tiles only: gathered
// into s.taps at a width of whole tiles, or — in place — the whole tiles
// where they lie and only the ragged one gathered (a zero-padded copy).
func (s *qpwScratch) load(v *qpwVariant, c *convTaps[int8], grp, x0, cols int) {
	nWhole, rag := cols/v.nr, cols%v.nr
	gx, gcols := x0, cols
	if c.inPlace {
		gx, gcols = x0+nWhole*v.nr, rag
	}
	width := (gcols + v.nr - 1) / v.nr * v.nr
	s.taps = slices.Grow(s.taps[:0], c.k*width)[:c.k*width]
	if gcols > 0 {
		c.gather(s.taps, width, grp, gx, gcols)
	}
	s.whole = qpwCols{src: s.taps, rowStride: width, k: c.k}
	s.last = s.whole
	if c.inPlace {
		plane := c.h * c.w
		first := (c.g.out.Rows.Lo - c.g.rowLo) * c.w // the call's pixel 0 within a plane
		s.whole = qpwCols{src: c.data[grp*c.icg*plane+first+x0:], rowStride: plane, k: c.k}
	} else if rag > 0 {
		s.last.src = s.taps[nWhole*v.nr:]
	}
	if v.pack != nil {
		per := 2 * v.nr * s.whole.pairs() // int16s in one packed tile
		size := (cols + v.nr - 1) / v.nr * per
		s.panel = slices.Grow(s.panel[:0], size)[:size]
		s.whole.panel, s.last.panel = s.panel[:nWhole*per], s.panel[nWhole*per:]
		if nWhole > 0 {
			v.pack(&s.whole, nWhole)
		}
		if rag > 0 {
			v.pack(&s.last, 1)
		}
	}
}

// sweep runs the tiles of operand a — `valid` real columns from flattened
// column x — for weight block ob, `width` real channels from oc0. Whole tiles
// of a whole block store straight into the output; a ragged block or tile
// goes through staging rows.
func (s *qpwScratch) sweep(v *qpwVariant, out []int8, n, x, valid int, a *qpwCols, qw *qconvWeights, ob, oc0, width int, act nn.Activation) {
	tiles := (valid + v.nr - 1) / v.nr
	if width == v.mr && valid == tiles*v.nr {
		v.tile(out[oc0*n+x:], n, a, qw, ob, oc0, tiles, act)
		return
	}
	stride := tiles * v.nr
	s.stage = slices.Grow(s.stage[:0], v.mr*stride)[:v.mr*stride]
	v.tile(s.stage, stride, a, qw, ob, oc0, tiles, act)
	for b := 0; b < width; b++ {
		copy(out[(oc0+b)*n+x:][:valid], s.stage[b*stride:])
	}
}

// qpwPackPortable is the pack step in plain Go: the layout contract the
// vector routine is tested against.
func qpwPackPortable(a *qpwCols, tiles int) {
	const nr = 16
	pairs := a.pairs()
	for t := 0; t < tiles; t++ {
		for p := 0; p < pairs; p++ {
			dst := a.panel[(t*pairs+p)*nr*2:][:nr*2]
			clear(dst)
			for c := 2 * p; c < min(2*p+2, a.k); c++ {
				for j, v := range a.src[c*a.rowStride+t*nr:][:nr] {
					dst[2*j+c%2] = int16(v)
				}
			}
		}
	}
}

// qpwTilePortable is the tile contract in plain Go and the generic-host
// path: per tile, qpwMR x 16 wrapping int32 accumulators over every channel
// pair of the panel, then the shared requantize epilogue per channel row.
func qpwTilePortable(dst []int8, dstStride int, a *qpwCols, qw *qconvWeights, ob, oc0, tiles int, act nn.Activation) {
	const nr = 16
	pairs := a.pairs()
	w := qw.pw[ob*pairs*qpwMR:][:pairs*qpwMR]
	scale, bias := qw.effScale[oc0:oc0+qpwMR], qw.effBias[oc0:oc0+qpwMR]
	var acc [qpwMR][nr]int32
	for t := 0; t < tiles; t++ {
		clear(acc[:])
		for p := 0; p < pairs; p++ {
			col := (*[2 * nr]int16)(a.panel[(t*pairs+p)*nr*2:])
			for b, wp := range w[p*qpwMR:][:qpwMR] {
				we, wo := int32(int16(wp)), wp>>16
				row := &acc[b]
				for j := range row {
					row[j] += we*int32(col[2*j]) + wo*int32(col[2*j+1])
				}
			}
		}
		for b := range acc {
			requantRow(dst[b*dstStride+t*nr:][:nr], acc[b][:], scale[b], bias[b], act)
		}
	}
}
