package tensor

import (
	"fmt"
	"sync"

	"pico/internal/nn"
)

// Depthwise convolutions (groups == channels: every output channel reads
// exactly one input channel) through one plane walker shared by float32 and
// int8. Only the fused 3x3 row tiles are typed (see dw3x3RowF / dw3x3RowQ);
// the geometry, the row loop, the edge columns and the general-shape
// fallback are written once over the element type.
//
// Per output element the chain is the reference loops' exactly: the seed
// (bias, or 0 for int8), then kernel rows ascending, taps ascending within
// a row, one multiply and one add each. Taps that fall in the zero padding
// are SKIPPED, never added as zero products: w*0 is -0 for a negative w and
// NaN for an infinite one, and adding either can change an accumulator's
// bits.

// dwAcc is the accumulator (and kernel tap) type a depthwise input element
// widens into: float32 accumulates in float32, int8 in int32.
type dwAcc interface{ float32 | int32 }

// dwTile computes len(dst) consecutive output columns of one output row from
// the nrows (1..3) input rows in range. Tap k of dst[i] reads input column
// x0 + i*sw + k of each row; src is the first row from its column 0 to the
// end of the tensor and rows are rowStride — the map width — apart:
//
//	dst[i] = seed + sum over r < nrows, k < 3 of w[3r+k] * src[r*rowStride + x0+i*sw + k]
//
// chained in that (r, k) order from the seed, skipping taps whose column is
// outside [0, rowStride). The span may overhang the map by one column on
// either side and must hold an interior column: x0 >= -1, so only dst[0] can
// miss tap 0, only the last column can miss tap 2, and no column misses both.
// sw is 1 or 2.
type dwTile[E elem, A dwAcc] func(dst []A, src []E, x0, rowStride, nrows int, w []A, seed A, sw int)

// dwGeom is the geometry of one depthwise call, derived once and shared by
// every channel plane: the tile's rows within the global map, and the output
// columns [tileLo, tileHi) a dwTile may take — the interior, where every
// horizontal tap is in range, plus one edge column per side when it misses
// exactly one tap. Columns outside that span go through dwColumns.
type dwGeom struct {
	kh, kw, sh, sw, ph, pw int
	inH, inW               int // local tile height, map width
	inLo, inHGlobal        int
	outLo, outRows, outW   int
	tileLo, tileHi         int
}

func newDWGeom(l *nn.Layer, inH, inW, inLo, inHGlobal, outLo, outHi int) dwGeom {
	g := dwGeom{
		kh: l.KH, kw: l.KW, sh: l.SH, sw: l.SW, ph: l.PH, pw: l.PW,
		inH: inH, inW: inW, inLo: inLo, inHGlobal: inHGlobal,
		outLo: outLo, outRows: outHi - outLo,
		outW: (inW+2*l.PW-l.KW)/l.SW + 1,
	}
	if g.kh != 3 || g.kw != 3 || g.sw < 1 || g.sw > 2 {
		return g // no fused tile for this shape
	}
	// Interior: 0 <= ow*sw - pw and ow*sw - pw + 2 <= inW - 1.
	lo, hi := (g.pw+g.sw-1)/g.sw, 0
	if last := g.inW - 3 + g.pw; last >= 0 {
		hi = min(last/g.sw+1, g.outW)
	}
	if lo >= hi {
		return g
	}
	if lo > 0 && (lo-1)*g.sw-g.pw == -1 {
		lo--
	}
	if hi < g.outW && hi*g.sw-g.pw+2 == g.inW {
		hi++
	}
	g.tileLo, g.tileHi = lo, hi
	return g
}

// dwPlane computes one channel's output plane dst (outRows x outW) from the
// channel's input plane, which starts at in[base]. w holds the channel's
// kh*kw taps. Columns [tileLo, tileHi) go through tile; a nil tile (a float
// kernel with a zero tap the reference skips) sends every column through the
// per-column loop.
func dwPlane[E elem, A dwAcc](g *dwGeom, in []E, base int, dst, w []A, seed A, tile dwTile[E, A]) {
	lo, hi := g.tileLo, g.tileHi
	if tile == nil {
		lo, hi = 0, 0
	}
	for or := 0; or < g.outRows; or++ {
		row := dst[or*g.outW : (or+1)*g.outW]
		// Kernel rows [khLo, khHi) land inside the global map; the rest is
		// top/bottom zero padding.
		ihG := (g.outLo+or)*g.sh - g.ph
		khLo, khHi := max(0, -ihG), min(g.kh, g.inHGlobal-ihG)
		if khLo >= khHi {
			for i := range row {
				row[i] = seed
			}
			continue
		}
		ih, nrows := ihG+khLo-g.inLo, khHi-khLo
		if ih < 0 || ih+nrows > g.inH {
			panic(fmt.Sprintf("tensor: conv needs global rows [%d,%d) outside tile [%d,%d)", ihG+khLo, ihG+khHi, g.inLo, g.inLo+g.inH))
		}
		src := in[base+ih*g.inW:]
		wr := w[khLo*g.kw : khHi*g.kw]
		if lo < hi {
			tile(row[lo:hi], src, lo*g.sw-g.pw, g.inW, nrows, wr, seed, g.sw)
		}
		if lo > 0 {
			dwColumns(g, row, src, nrows, wr, seed, 0, lo)
		}
		if hi < g.outW {
			dwColumns(g, row, src, nrows, wr, seed, hi, g.outW)
		}
	}
}

// dwColumns computes output columns [lo, hi) of one row one element at a
// time, clipping the horizontal taps of each column to the map and skipping
// zero weights like the reference's compacted rows do. It serves whole rows
// of shapes without a fused tile and the columns a tile cannot take.
func dwColumns[E elem, A dwAcc](g *dwGeom, row []A, src []E, nrows int, w []A, seed A, lo, hi int) {
	for ow := lo; ow < hi; ow++ {
		iw := ow*g.sw - g.pw
		kLo, kHi := max(0, -iw), min(g.kw, g.inW-iw)
		v := seed
		for r := 0; r < nrows && kLo < kHi; r++ {
			s := src[r*g.inW+iw+kLo:]
			for k, wk := range w[r*g.kw+kLo : r*g.kw+kHi] {
				if wk != 0 {
					v += wk * A(s[k])
				}
			}
		}
		row[ow] = v
	}
}

// dw3x3Row is the portable 3x3 row tile: the dwTile contract spelled out one
// statement per tap. The typed tiles must match it bit for bit; it also
// serves stride 2 on hosts without a vector tile.
func dw3x3Row[E elem, A dwAcc](dst []A, src []E, x0, rowStride, nrows int, w []A, seed A, sw int) {
	for i := range dst {
		x := x0 + i*sw
		kLo, kHi := 0, 3
		if x < 0 {
			kLo = 1
		}
		if x+2 >= rowStride {
			kHi = 2
		}
		v := seed
		for r := 0; r < nrows; r++ {
			for k := kLo; k < kHi; k++ {
				v += w[3*r+k] * A(src[r*rowStride+x+k])
			}
		}
		dst[i] = v
	}
}

// dwSpan splits a dwTile span into its edge columns and its interior: left
// and right are 1 when the first / last column overhangs the map, n is the
// number of interior columns between them and x the input column of the
// first interior column's tap 0.
func dwSpan(cols, x0, rowStride, sw int) (left, right, n, x int) {
	if x0 < 0 {
		left = 1
	}
	if x0+(cols-1)*sw+2 >= rowStride {
		right = 1
	}
	return left, right, cols - left - right, x0 + left*sw
}

// dwReach is how many src elements past x a vector tile touches when it
// produces n interior columns in whole steps of `lanes` (a power of two):
// through the last tap of the last lane of the last step, in the last row.
// The final step is stored under a mask but loaded whole, so a row too close
// to the end of the tensor must take the portable form instead.
func dwReach(rowStride, nrows, n, lanes, sw int) int {
	cols := (n + lanes - 1) &^ (lanes - 1)
	return (nrows-1)*rowStride + (cols-1)*sw + 3
}

// simdDW3x3 gates the fused 3x3 depthwise row tiles. arm64 and scalar hosts
// compose the portable tile from the per-row sweeps instead.
var simdDW3x3 = simdDW3x3Available()

// dw3x3RowSweeps is the portable stride-1 tile composed from an
// architecture's per-row 3-tap sweep (dw3RowF / dw3Row, NEON on arm64): the
// interior is seeded and swept once per input row, the edge columns take the
// spelled-out form.
func dw3x3RowSweeps[E elem, A dwAcc](dst []A, src []E, x0, rowStride, nrows int, w []A, seed A, sweep func(acc []A, src []E, w *[4]A, n int)) {
	left, _, n, x := dwSpan(len(dst), x0, rowStride, 1)
	dw3x3Row(dst[:left], src, x0, rowStride, nrows, w, seed, 1)
	dw3x3Row(dst[left+n:], src, x+n, rowStride, nrows, w, seed, 1)
	mid := dst[left : left+n]
	for i := range mid {
		mid[i] = seed
	}
	for r := 0; r < nrows; r++ {
		w4 := [4]A{w[3*r], w[3*r+1], w[3*r+2]}
		sweep(mid, src[r*rowStride+x:], &w4, n)
	}
}

// dw3x3RowF is the float32 dwTile. The AVX2 tiles produce 8 interior columns
// per step with the bias seeded in-register (stride 2 deinterleaves even/odd
// lanes), store the last partial step under a mask, and compute the edge
// columns with scalar instructions ahead of the loop.
func dw3x3RowF(dst, src []float32, x0, rowStride, nrows int, w []float32, bias float32, sw int) {
	left, right, n, x := dwSpan(len(dst), x0, rowStride, sw)
	switch {
	case simdDW3x3 && x+dwReach(rowStride, nrows, n, 8, sw) <= len(src):
		tile := fdw3x3S1
		if sw == 2 {
			tile = fdw3x3S2
		}
		tile(&dst[left], &src[x], rowStride, nrows, &w[0], bias, n, left, right)
	case sw == 1:
		dw3x3RowSweeps(dst, src, x0, rowStride, nrows, w, bias, dw3RowF)
	default:
		dw3x3Row(dst, src, x0, rowStride, nrows, w, bias, sw)
	}
}

// dw3x3RowQ is the int8 dwTile over int32 accumulators. The AVX2 tiles pair
// taps through VPMADDWD (stride 1: 16 columns per step as even/odd halves;
// stride 2: 8 columns, the even/odd byte pairs are the taps) and wrap like
// Go int32.
func dw3x3RowQ(dst []int32, src []int8, x0, rowStride, nrows int, w []int32, seed int32, sw int) {
	left, right, n, x := dwSpan(len(dst), x0, rowStride, sw)
	switch {
	case simdDW3x3 && x+dwReach(rowStride, nrows, n, 32>>sw, sw) <= len(src):
		tile := qdw3x3S1
		if sw == 2 {
			tile = qdw3x3S2
		}
		tile(&dst[left], &src[x], rowStride, nrows, &w[0], seed, n, left, right)
	case sw == 1:
		dw3x3RowSweeps(dst, src, x0, rowStride, nrows, w, seed, dw3Row)
	default:
		dw3x3Row(dst, src, x0, rowStride, nrows, w, seed, sw)
	}
}

// convForwardDepthwise runs the float32 plane walker over a full-width tile
// (the dispatcher observes that; dwGeom has no column origin), one work unit
// per channel: bias seeded in the tile, taps chained in reference order, and the
// batch-norm + activation epilogue once over the channel's contiguous plane.
func convForwardDepthwise(in Tensor, at geom, l *nn.Layer, wts *convWeights, par int) Tensor {
	g := newDWGeom(l, in.H, in.W, at.rowLo, at.in.H, at.out.Rows.Lo, at.out.Rows.Hi)
	out := Alloc(l.OutC, g.outRows, g.outW)
	plane, taps := g.outRows*g.outW, l.KH*l.KW
	parallelForGrain(l.OutC, par, grainFor(taps*plane), func(lo, hi int) {
		for oc := lo; oc < hi; oc++ {
			w := wts.w[oc*taps : (oc+1)*taps]
			var tile dwTile[float32, float32]
			if !hasZero(w) {
				tile = dw3x3RowF
			}
			dst := out.Data[oc*plane : (oc+1)*plane]
			dwPlane(&g, in.Data, oc*in.H*in.W, dst, w, wts.bias[oc], tile)
			finishChannel(dst, wts, oc, l.Act)
		}
	})
	return out
}

// hasZero reports whether any tap is zero — a tap the reference's compacted
// rows drop, which the dense tiles would instead add as a zero product.
func hasZero(w []float32) bool {
	for _, v := range w {
		if v == 0 {
			return true
		}
	}
	return false
}

// dwAccPool recycles the int8 walker's plane accumulators (50 KB for a
// 112x112 plane) so steady-state inference does not allocate one per layer.
var dwAccPool sync.Pool

// qconvForwardDepthwise runs the int8 plane walker: int32 accumulators for
// one channel plane at a time, requantized in one pass. Zero taps need no
// special case — adding an integer zero changes nothing.
func qconvForwardDepthwise(in QTensor, at geom, l *nn.Layer, qw *qconvWeights, par int) QTensor {
	g := newDWGeom(l, in.H, in.W, at.rowLo, at.in.H, at.out.Rows.Lo, at.out.Rows.Hi)
	out := AllocQ(l.OutC, g.outRows, g.outW, 1)
	plane, taps := g.outRows*g.outW, l.KH*l.KW
	parallelForGrain(l.OutC, par, grainFor(taps*plane), func(lo, hi int) {
		buf, _ := dwAccPool.Get().(*[]int32)
		if buf == nil || cap(*buf) < plane {
			buf = new([]int32)
			*buf = make([]int32, plane)
		}
		defer dwAccPool.Put(buf)
		acc := (*buf)[:plane]
		w := make([]int32, taps)
		for oc := lo; oc < hi; oc++ {
			for i, v := range qw.wq[oc*taps : (oc+1)*taps] {
				w[i] = int32(v)
			}
			dwPlane(&g, in.Data, oc*in.H*in.W, acc, w, 0, dw3x3RowQ)
			requantRow(out.Data[oc*plane:(oc+1)*plane], acc, qw.effScale[oc], qw.effBias[oc], l.Act)
		}
	})
	return out
}
