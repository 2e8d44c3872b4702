package tensor

import (
	"fmt"

	"pico/internal/nn"
	"pico/internal/partition"
)

// Depthwise convolutions (groups == channels: every output channel reads
// exactly one input channel) through one plane walker shared by float32 and
// int8. Only the fused 3x3 tiles are typed (see dw3x3TileF / dw3x3TileQ); the
// geometry, the row loop, the columns a tile cannot take and the
// general-shape fallback are written once over the element type.
//
// Per output element the chain is the reference loops' exactly: the seed
// (bias, or 0 for int8), then kernel rows ascending, taps ascending within
// a row, one mac each (a fused multiply-add rounded once for float32). Float
// taps that fall in the zero padding are SKIPPED, never added as zero
// products: w*0 is -0 for a negative w and NaN for an infinite one, and
// adding either can change an accumulator's bits. An integer zero product
// changes nothing, so the int8 vector tiles may mask a padding tap to zero
// instead.

// dwTile computes the tile span — output columns [g.tileLo, g.tileHi) — of
// every output row of one channel plane, which starts at in[base]; dst[0] is
// the span's first column of the first output row. With ih = g.ih0 + r*g.sh
// the global input row under kernel row 0 of output row r,
//
//	dst[r*outW+i] = fin(seed + sum over q, k < 3 of
//	    w[3q+k] * in[base + (ih+q-inLo)*inW + x0+i*sw + k])
//
// chained in that (q, k) order from c.seed, skipping kernel rows outside the
// map (ih+q outside [0, inHGlobal)) and taps whose column is outside [0, inW);
// fin is the identity for float32 and the requantize epilogue (c.scale,
// c.bias, c.act; requantRow's operation sequence) for int8. The span may
// overhang the map by one column on either side and holds an interior column:
// x0 >= -1, so only column 0 can miss tap 0, only the last column can miss
// tap 2, and no column misses both.
type dwTile[E elem, A accum] func(c *dwChan[E, A], dst, in []E, base int)

// dwGeom is the geometry of one depthwise call, derived once and shared by
// every channel plane: the tile's rows within the global map and the tile
// span [tileLo, tileHi) — the interior, where every horizontal tap is in
// range, plus one edge column per side when it misses exactly one tap.
// Columns outside the span go through dwColumns.
type dwGeom struct {
	kh, kw, sh, sw, ph, pw int
	inH, inW               int // local tile height, map width
	inLo, inHGlobal        int
	ih0, outRows, outW     int // ih0: global input row under kernel row 0 of output row 0
	tileLo, tileHi         int
	// The span in input coordinates: tap 0 of its first column reads input
	// column x0; left/right are 1 when the first/last column overhangs the
	// map, n is the number of interior columns between them and x the input
	// column of the first interior column's tap 0.
	x0, left, right, n, x int
}

func newDWGeom(l *nn.Layer, inH, inW, inLo, inHGlobal, outLo, outHi int) dwGeom {
	g := dwGeom{
		kh: l.KH, kw: l.KW, sh: l.SH, sw: l.SW, ph: l.PH, pw: l.PW,
		inH: inH, inW: inW, inLo: inLo, inHGlobal: inHGlobal,
		ih0: outLo*l.SH - l.PH, outRows: outHi - outLo,
		outW: (inW+2*l.PW-l.KW)/l.SW + 1,
	}
	if need := (partition.Range{Lo: g.ih0, Hi: g.ih0 + (g.outRows-1)*g.sh + g.kh}).Clamp(inHGlobal); !(partition.Range{Lo: inLo, Hi: inLo + inH}).Contains(need) {
		panic(fmt.Sprintf("tensor: conv needs global rows %v outside tile [%d,%d)", need, inLo, inLo+inH))
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
	g.n, g.x = hi-lo, lo*g.sw-g.pw
	if lo > 0 && (lo-1)*g.sw-g.pw == -1 {
		lo, g.left = lo-1, 1
	}
	if hi < g.outW && hi*g.sw-g.pw+2 == g.inW {
		hi, g.right = hi+1, 1
	}
	g.tileLo, g.tileHi, g.x0 = lo, hi, lo*g.sw-g.pw
	return g
}

// krows returns the n kernel rows from lo of output row r that land inside
// the global map — the rest is top/bottom zero padding — and the index, from
// the start of the channel's plane, of the first of them at column 0.
func (g *dwGeom) krows(r int) (lo, n, off int) {
	ih := g.ih0 + r*g.sh
	lo = max(0, -ih)
	if n = min(g.kh, g.inHGlobal-ih) - lo; n <= 0 {
		return 0, 0, 0
	}
	return lo, n, (ih + lo - g.inLo) * g.inW
}

// vecRows returns the output rows [lo, hi) of the plane at in[base] that a
// vector tile may take: it reads whole steps of `lanes` columns from input
// column x on — past the `cols` it produces, which it stores exactly — so the
// rows whose last step would end outside the tensor (the last rows of the
// last channel) and, from x = -1, a row starting at in[0] take the portable
// form instead.
func (g *dwGeom) vecRows(inLen, base, x, cols, lanes int) (lo, hi int) {
	reach := ((cols+lanes-1)&^(lanes-1)-1)*g.sw + 3
	inside := func(r int) bool {
		_, n, off := g.krows(r)
		first := base + off + x
		return n == 0 || first >= 0 && first+(n-1)*g.inW+reach <= inLen
	}
	for hi = g.outRows; lo < hi && !inside(lo); lo++ {
	}
	for ; hi > lo && !inside(hi-1); hi-- {
	}
	return lo, hi
}

// dwChan is one channel's operands under the walker: its kh*kw taps, the
// accumulator seed, the int8 epilogue, the fused tile (nil for a float kernel
// with a zero tap the reference skips: every column then goes through the
// per-column loop) and how accumulators the walker computed in Go become
// output elements.
type dwChan[E elem, A accum] struct {
	g           *dwGeom
	w           []E
	seed        A
	scale, bias float32
	act         nn.Activation
	tile        dwTile[E, A]
	store       func(c *dwChan[E, A], dst []E, acc []A)
	acc         []A // one output row of scratch accumulators, made on first use
}

// row returns n scratch accumulators.
func (c *dwChan[E, A]) row(n int) []A {
	if c.acc == nil {
		c.acc = make([]A, c.g.outW)
	}
	return c.acc[:n]
}

// dwPlane computes one channel's output plane dst (outRows x outW) from the
// channel's input plane, which starts at in[base].
func dwPlane[E elem, A accum](c *dwChan[E, A], in []E, base int, dst []E) {
	g := c.g
	lo, hi := g.tileLo, g.tileHi
	if c.tile == nil {
		lo, hi = 0, 0
	}
	if lo < hi {
		c.tile(c, dst[lo:], in, base)
	}
	if lo == 0 && hi == g.outW {
		return
	}
	for r := 0; r < g.outRows; r++ {
		kLo, n, off := g.krows(r)
		row, src, w := dst[r*g.outW:][:g.outW], in[base+off:], c.w[kLo*g.kw:(kLo+n)*g.kw]
		dwColumns(c, row, src, n, w, 0, lo)
		dwColumns(c, row, src, n, w, hi, g.outW)
	}
}

// dwColumns computes output columns [lo, hi) of one row one element at a
// time, clipping the horizontal taps of each column to the map and skipping
// zero weights like the reference. It serves whole rows of shapes without a
// fused tile and the columns a tile cannot take.
func dwColumns[E elem, A accum](c *dwChan[E, A], row, src []E, nrows int, w []E, lo, hi int) {
	if lo >= hi {
		return
	}
	g := c.g
	acc := c.row(hi - lo)
	for ow := lo; ow < hi; ow++ {
		iw := ow*g.sw - g.pw
		kLo, kHi := max(0, -iw), min(g.kw, g.inW-iw)
		v := c.seed
		for r := 0; r < nrows && kLo < kHi; r++ {
			s := src[r*g.inW+iw+kLo:]
			for k, wk := range w[r*g.kw+kLo : r*g.kw+kHi] {
				if wk != 0 {
					v = mac(v, A(wk), A(s[k]))
				}
			}
		}
		acc[ow-lo] = v
	}
	c.store(c, row[lo:hi], acc)
}

// dw3x3Row is one row of the dwTile contract spelled out one statement per
// tap, accumulators unfinished: dst[i] for the span's columns from x0. The
// typed tiles must match it (and their fin) bit for bit; it is also the
// portable tile, on hosts without a vector tile and for the rows one cannot
// take.
func dw3x3Row[E elem, A accum](dst []A, src []E, x0, rowStride, nrows int, w []E, seed A, sw int) {
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
				v = mac(v, A(w[3*r+k]), A(src[r*rowStride+x+k]))
			}
		}
		dst[i] = v
	}
}

// dw3x3RowGo computes output row r of the span in portable form,
// accumulators unfinished.
func dw3x3RowGo[E elem, A accum](c *dwChan[E, A], dst []A, in []E, base, r int) {
	g := c.g
	kLo, nrows, off := g.krows(r)
	dw3x3Row(dst, in[base+off:], g.x0, g.inW, nrows, c.w[3*kLo:3*(kLo+nrows)], c.seed, g.sw)
}

// dw3x3Rows computes the span of the plane's output rows outside [lo, hi) in
// portable form and finishes them through c.store.
func dw3x3Rows[E elem, A accum](c *dwChan[E, A], dst, in []E, base, lo, hi int) {
	g := c.g
	cols := g.tileHi - g.tileLo
	for r := 0; r < g.outRows; r++ {
		if r < lo || r >= hi {
			acc := c.row(cols)
			dw3x3RowGo(c, acc, in, base, r)
			c.store(c, dst[r*g.outW:][:cols], acc)
		}
	}
}

// dw3x3TileGo is the portable dwTile of both dtypes.
func dw3x3TileGo[E elem, A accum](c *dwChan[E, A], dst, in []E, base int) {
	dw3x3Rows(c, dst, in, base, 0, 0)
}

// dwVariant is one implementation of the depthwise tiles. tileF/tileQ are its
// per-plane dwTiles. runF/runQ, when set, compute the finished planes —
// every row and column, epilogue included — of a run of channels [lo, hi) in
// one call, for the geometries takesRuns accepts; runF is only handed
// channels without a zero tap.
type dwVariant struct {
	name  string
	tileF dwTile[float32, float32]
	tileQ dwTile[int8, int32]
	runF  func(g *dwGeom, act nn.Activation, dst, in []float32, p *fparams, lo, hi int)
	runQ  func(g *dwGeom, act nn.Activation, dst, in []int8, qw *qconvWeights, lo, hi int)
}

// dwVariants lists the depthwise variants this host runs, fastest first,
// portable last; dwActive is the walkers' — chosen here once, reassigned
// only by tests.
var (
	dwVariants = append(dwArchVariants(), &dwVariant{name: "portable", tileF: dw3x3TileGo[float32, float32], tileQ: dw3x3TileGo[int8, int32]})
	dwActive   = dwVariants[0]
)

// takesRuns reports whether a run tile takes the geometry: a 3x3 kernel at
// stride 1 or 2, the same along rows and columns, under at most one padding
// column per side, where the only taps of a column that can fall outside the
// map are tap 0 of the first column and tap 2 of the last.
func (g *dwGeom) takesRuns() bool {
	return g.kh == 3 && g.kw == 3 && g.sw <= 2 && g.sh == g.sw && g.pw <= 1
}

// convForwardDepthwise runs the float32 plane walker over a full-width tile
// (the dispatcher observes that; dwGeom has no column origin), one work unit
// per channel. A run of channels without a zero tap goes to the active
// variant's run tile in one call when it has one for the shape; every other
// channel is seeded with its bias in the plane walker, taps chained in
// reference order, and the batch-norm + activation epilogue runs once over
// its contiguous plane.
func convForwardDepthwise(in Tensor, at geom, l *nn.Layer, wts *convWeights, par int) Tensor {
	g := newDWGeom(l, in.H, in.W, at.rowLo, at.in.H, at.out.Rows.Lo, at.out.Rows.Hi)
	out := Alloc(l.OutC, g.outRows, g.outW)
	plane, taps := g.outRows*g.outW, l.KH*l.KW
	v := dwActive
	run := v.runF
	if !g.takesRuns() {
		run = nil
	}
	parallelForGrain(l.OutC, par, grainFor(taps*plane), func(lo, hi int) {
		c := dwChan[float32, float32]{g: &g,
			store: func(_ *dwChan[float32, float32], dst, acc []float32) { copy(dst, acc) }}
		for oc := lo; oc < hi; oc++ {
			c.w, c.seed, c.tile = wts.w[oc*taps:(oc+1)*taps], wts.bias[oc], nil
			if !hasZero(c.w) {
				if run != nil {
					end := oc + 1
					for end < hi && !hasZero(wts.w[end*taps:(end+1)*taps]) {
						end++
					}
					run(&g, l.Act, out.Data, in.Data, &wts.fparams, oc, end)
					oc = end - 1
					continue
				}
				c.tile = v.tileF
			}
			dst := out.Data[oc*plane : (oc+1)*plane]
			dwPlane(&c, in.Data, oc*in.H*in.W, dst)
			wts.finishChannel(dst, oc, l.Act)
		}
	})
	return out
}

// qconvForwardDepthwise runs the int8 plane walker: the tiles requantize
// their int32 accumulators from registers, the columns the walker computes
// itself go through requantRow a row at a time. Zero taps need no special
// case — adding an integer zero changes nothing — so a run tile, when the
// active variant has one for the shape, takes each chunk in one call.
func qconvForwardDepthwise(in QTensor, at geom, l *nn.Layer, qw *qconvWeights, par int) QTensor {
	g := newDWGeom(l, in.H, in.W, at.rowLo, at.in.H, at.out.Rows.Lo, at.out.Rows.Hi)
	out := AllocQ(l.OutC, g.outRows, g.outW, qw.scale)
	plane, taps := g.outRows*g.outW, l.KH*l.KW
	v := dwActive
	parallelForGrain(l.OutC, par, grainFor(taps*plane), func(lo, hi int) {
		if v.runQ != nil && g.takesRuns() {
			v.runQ(&g, l.Act, out.Data, in.Data, qw, lo, hi)
			return
		}
		c := dwChan[int8, int32]{g: &g, act: l.Act, tile: v.tileQ,
			store: func(c *dwChan[int8, int32], dst []int8, acc []int32) { requantRow(dst, acc, c.scale, c.bias, c.act) }}
		for oc := lo; oc < hi; oc++ {
			c.w, c.scale, c.bias = qw.wq[oc*taps:(oc+1)*taps], qw.effScale[oc], qw.effBias[oc]
			dwPlane(&c, in.Data, oc*in.H*in.W, out.Data[oc*plane:(oc+1)*plane])
		}
	})
	return out
}
