package tensor

import (
	"fmt"
	"slices"
	"sync"

	"pico/internal/nn"
)

// The int8 pointwise kernel. A 1x1 stride-1 convolution over a full-width
// strip is the matrix product out[outC x n] = W[outC x inC] * act[inC x n]
// over the strip's n = rows*width flattened columns (~94% of MobileNetV1's
// MACs), and one walker blocks it like a GEMM: per column block the int8
// activations are widened ONCE into an int16 channel-pair panel, then every
// output-channel block sweeps a register tile over that panel and requantizes
// straight into the output. The tile comes in variants picked once at init;
// int32 addition wraps associatively, so every variant and blocking order
// yields the reference kernel's accumulators bit for bit (DESIGN.md §6).

const (
	// qpwMR is the channel extent of a weight-panel block and packing tile.
	qpwMR = 8
	// qpwPanelBytes bounds the packed panel of one column block (never below
	// one tile) so it stays L1-resident while the channel blocks' weights
	// stream past. Measured flat from 16 KB to 256 KB on the reference host:
	// it is sized for the scratch it pins, not for speed.
	qpwPanelBytes = 32 << 10
)

// qpwVariant is one register-tile implementation under the walker.
type qpwVariant struct {
	name   string
	mr, nr int // tile extent: output channels x flattened columns
	// pack widens `tiles` adjacent whole tiles of a.src into a.panel; nil for
	// a tile that reads the int8 activations in place.
	pack func(a *qpwCols, tiles int)
	// tile computes, requantizes and stores `tiles` adjacent tiles of channel
	// block ob: dst[b*dstStride+t*nr+j] for b in [0,mr), j in [0,nr).
	tile func(dst []int8, dstStride int, a *qpwCols, qw *qconvWeights, ob, tiles int, act nn.Activation)
}

// qpwCols is the activation operand of a tile sweep: adjacent nr-column
// tiles in place (channel g, column j of tile t is src[g*chanStride+t*nr+j])
// and, once packed, as the panel, where the int16 pair at
// panel[((t*pairs+p)*nr+j)*2:] is that column's (channel 2p, channel 2p+1)
// and an odd trailing channel pairs with zero.
type qpwCols struct {
	src        []int8
	chanStride int
	inC        int
	panel      []int16
}

func (a *qpwCols) pairs() int { return (a.inC + 1) / 2 }

// qpwVariants lists the variants this host can run, fastest first, portable
// last; qpwActive is the one the walker uses — chosen here once, reassigned
// only by the tests, which run every entry against the reference kernels.
var (
	qpwVariants = append(qpwArchVariants(), &qpwVariant{name: "portable", mr: qpwMR, nr: 16, pack: qpwPackPortable, tile: qpwTilePortable})
	qpwActive   = qpwVariants[0]
)

// PointwiseSIMD reports whether the host runs a vector int8 pointwise tile;
// benchmark artefacts record it (without one int8 cannot beat float32).
func PointwiseSIMD() bool { return len(qpwVariants) > 1 }

// qpwScratch is one running kernel's pooled scratch: the packed panel of one
// column block, the zero-padded copy of the strip's ragged last tile, and
// staging rows for tiles that cannot store straight into the output.
type qpwScratch struct {
	panel []int16
	tail  []int8
	stage []int8
	// The loaded column block's operands: its whole tiles, its ragged last one.
	whole, last qpwCols
}

var qpwScratchPool = sync.Pool{New: func() any { return new(qpwScratch) }}

// qconvForwardPointwise is the walker. A unit of work is one column block
// (whole tiles: as many as fit qpwPanelBytes, fewer if that idles workers)
// times one slice of the channel blocks (several slices, each re-packing the
// panel, only when there are fewer column blocks than workers).
func qconvForwardPointwise(in QTensor, g geom, l *nn.Layer, qw *qconvWeights, par int) QTensor {
	v := qpwActive
	outRows := g.out.Rows.Len()
	n := outRows * in.W
	ihBase := g.out.Rows.Lo - g.rowLo
	if ihBase < 0 || ihBase+outRows > in.H {
		panic(fmt.Sprintf("tensor: qconv needs global rows %v outside tile [%d,%d)", g.out.Rows, g.rowLo, g.rowLo+in.H))
	}
	out := AllocQ(l.OutC, outRows, in.W, 1)
	data := out.Data // the closure captures the slice, not the tensor
	src := in.Data[ihBase*in.W:]
	tiles := (n + v.nr - 1) / v.nr
	ocBlocks := (l.OutC + v.mr - 1) / v.mr
	par = max(par, 1)
	perBlock := max(1, min(qpwPanelBytes/(4*v.nr*((in.C+1)/2)), (tiles+par-1)/par))
	blocks := (tiles + perBlock - 1) / perBlock
	ocParts := min((par+blocks-1)/blocks, ocBlocks) // 1 unless blocks < par
	grain := grainFor(perBlock * v.nr * in.C * l.OutC / ocParts)
	parallelForGrain(blocks*ocParts, par, grain, func(lo, hi int) {
		s := qpwScratchPool.Get().(*qpwScratch)
		defer qpwScratchPool.Put(s)
		loaded := -1
		for u := lo; u < hi; u++ {
			cb, part := u/ocParts, u%ocParts
			x0 := cb * perBlock * v.nr
			cols := min(perBlock*v.nr, n-x0)
			wholeCols := cols / v.nr * v.nr
			if cb != loaded {
				s.load(v, src[x0:], in.H*in.W, in.C, cols)
				loaded = cb
			}
			for ob := part * ocBlocks / ocParts; ob < (part+1)*ocBlocks/ocParts; ob++ {
				if wholeCols > 0 {
					s.sweep(v, data, n, x0, wholeCols, &s.whole, qw, ob, l)
				}
				if wholeCols < cols {
					s.sweep(v, data, n, x0+wholeCols, cols-wholeCols, &s.last, qw, ob, l)
				}
			}
		}
	})
	return out
}

// load prepares the cols columns of one column block starting at src[0] as
// s.whole and s.last. The ragged tile is copied out zero-padded, so every
// variant reads, and packs, whole tiles only.
func (s *qpwScratch) load(v *qpwVariant, src []int8, chanStride, inC, cols int) {
	nWhole, rag := cols/v.nr, cols%v.nr
	s.whole = qpwCols{src: src, chanStride: chanStride, inC: inC}
	if rag > 0 {
		s.tail = slices.Grow(s.tail[:0], inC*v.nr)[:inC*v.nr]
		clear(s.tail)
		for g := 0; g < inC; g++ {
			copy(s.tail[g*v.nr:], src[g*chanStride+nWhole*v.nr:][:rag])
		}
		s.last = qpwCols{src: s.tail, chanStride: v.nr, inC: inC}
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
// column x — for channel block ob. Whole tiles of a whole block store straight
// into the output; a ragged block or tile goes through staging rows.
func (s *qpwScratch) sweep(v *qpwVariant, out []int8, n, x, valid int, a *qpwCols, qw *qconvWeights, ob int, l *nn.Layer) {
	tiles := (valid + v.nr - 1) / v.nr
	oc0 := ob * v.mr
	width := min(v.mr, l.OutC-oc0)
	if width == v.mr && valid == tiles*v.nr {
		v.tile(out[oc0*n+x:], n, a, qw, ob, tiles, l.Act)
		return
	}
	stride := tiles * v.nr
	s.stage = slices.Grow(s.stage[:0], v.mr*stride)[:v.mr*stride]
	v.tile(s.stage, stride, a, qw, ob, tiles, l.Act)
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
			for c := 2 * p; c < min(2*p+2, a.inC); c++ {
				for j, v := range a.src[c*a.chanStride+t*nr:][:nr] {
					dst[2*j+c%2] = int16(v)
				}
			}
		}
	}
}

// qpwTilePortable is the tile contract in plain Go and the generic-host
// path: per tile, qpwMR x 16 wrapping int32 accumulators over every channel
// pair of the panel, then the shared requantize epilogue per channel row.
func qpwTilePortable(dst []int8, dstStride int, a *qpwCols, qw *qconvWeights, ob, tiles int, act nn.Activation) {
	const nr = 16
	pairs := a.pairs()
	w := qw.pw[ob*pairs*qpwMR:][:pairs*qpwMR]
	scale, bias := qw.effScale[ob*qpwMR:(ob+1)*qpwMR], qw.effBias[ob*qpwMR:(ob+1)*qpwMR]
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
