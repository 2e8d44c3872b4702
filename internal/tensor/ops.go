package tensor

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"pico/internal/nn"
	"pico/internal/partition"
)

// geom places one layer call in the layer's global coordinates: the input
// tile's first row and column within the layer's full input map in, and the
// output region to produce. Rows and columns outside the map are zero
// padding; a cell of the map the tile does not hold is a caller bug and
// panics. The accumulation order per output element never depends on the
// tile, which makes tiled execution bit-identical to whole-map execution.
type geom struct {
	rowLo, colLo int
	in           nn.Shape
	out          partition.Rect
}

// fullWidth reports whether the tile holds whole input rows and the call
// produces whole output rows (outW wide) — a row strip. The width-specialised
// kernels (depthwise plane walker, tap-major pools) require it, and it is
// observed here, from the tile, never implied by the entry point that was
// called.
func (g geom) fullWidth(tileW, outW int) bool {
	return g.colLo == 0 && tileW == g.in.W && g.out.Cols == partition.Full(outW)
}

// mustCover panics unless the tileH x tileW tile holds every in-map cell the
// windows of l over g.out read. Kernels check once up front, so the per-row
// and per-cell lookups below stay branch-light.
func (g geom) mustCover(l *nn.Layer, tileH, tileW int) {
	rows := partition.Range{Lo: g.out.Rows.Lo*l.SH - l.PH, Hi: (g.out.Rows.Hi-1)*l.SH - l.PH + l.KH}.Clamp(g.in.H)
	cols := partition.Range{Lo: g.out.Cols.Lo*l.SW - l.PW, Hi: (g.out.Cols.Hi-1)*l.SW - l.PW + l.KW}.Clamp(g.in.W)
	tile := partition.Rect{
		Rows: partition.Range{Lo: g.rowLo, Hi: g.rowLo + tileH},
		Cols: partition.Range{Lo: g.colLo, Hi: g.colLo + tileW},
	}
	if !tile.Rows.Contains(rows) || !tile.Cols.Contains(cols) {
		panic(fmt.Sprintf("tensor: %v of %v needs %vx%v outside tile %v", l.Kind, g.out, rows, cols, tile))
	}
}

// rowAt returns the tile-local index of the input row that kernel row kh of
// global output row oh reads, or -1 when that row is top/bottom padding.
func (g geom) rowAt(oh, kh int, l *nn.Layer) int {
	ihGlobal := oh*l.SH - l.PH + kh
	if ihGlobal < 0 || ihGlobal >= g.in.H {
		return -1
	}
	return ihGlobal - g.rowLo
}

// outWidth is the full output width of a conv/pool window over inW columns.
func outWidth(l *nn.Layer, inW int) int { return (inW+2*l.PW-l.KW)/l.SW + 1 }

// depthwise reports a groups == channels convolution; pointwise a 1x1
// stride-1 unpadded ungrouped one. Kernel dispatch and per-kind time
// attribution share them.
func depthwise(l *nn.Layer, inC int) bool {
	return l.Groups > 1 && inC/l.Groups == 1 && l.OutC/l.Groups == 1
}

func pointwise(l *nn.Layer) bool {
	return l.Groups <= 1 && l.KH == 1 && l.KW == 1 && l.SH == 1 && l.SW == 1 && l.PH == 0 && l.PW == 0
}

// convForward computes region g.out of a convolution from the tile in, by
// one of two kernels that keep the reference's per-element order (ic, kh,
// kw) exactly (DESIGN.md §6): a full-width tile of a groups == channels conv
// takes the depthwise plane walker, every other conv on any tile the GEMM
// driver. Weights without a register-tile plan (hand-built, tests) and padded
// layers whose weights break the padded-tap contract (convWeights.padExact)
// take the reference kernel.
func convForward(in Tensor, g geom, l *nn.Layer, wts *convWeights, par int) Tensor {
	switch {
	case len(wts.blocks) == 0, !wts.padExact:
		return convForwardRef(in, g, l, wts, par)
	case depthwise(l, in.C) && g.fullWidth(in.W, outWidth(l, g.in.W)):
		return convForwardDepthwise(in, g, l, wts, par)
	}
	return convForwardGEMM(in, g, l, wts, par)
}

// qconvForward is convForward's int8 dispatch. Int8 accumulates in wrapping
// int32, so the fast kernels may reorder accumulation freely and still match
// the reference bit for bit, and gathered padding zeros are always exact:
// every int8 layer has a plan and none needs the reference.
func qconvForward(in QTensor, g geom, l *nn.Layer, qw *qconvWeights, par int) QTensor {
	if depthwise(l, in.C) && g.fullWidth(in.W, outWidth(l, g.in.W)) {
		return qconvForwardDepthwise(in, g, l, qw, par)
	}
	return qconvForwardGEMM(in, g, l, qw, par)
}

// poolDType is what one element type supplies to the pool kernels: its max
// seed, its unpadded 2x2 stride-2 max pair row, the average that finishes a
// row of window sums and its activation. Both kernels chain a window's cells
// in ascending (kh, kw) order — max through the scalar `if v > acc` select,
// which NaNs and signed-zero ties never win — so they agree bit for bit.
type poolDType[E elem, A accum] struct {
	maxSeed A
	maxPair func(dst, a, b []E, n int)
	// avg writes dst[i], the window sum sum[i] over its rows*cols[i] valid
	// cells.
	avg func(dst []E, sum []A, rows int32, cols []int32)
	act func(xs []E, a nn.Activation)

	calls, scratch sync.Pool // *poolCall, *poolScratch
}

var (
	fpool = poolDType[float32, float32]{maxSeed: negInf, maxPair: maxPairRowF, avg: avgRowF, act: applyActivation}
	// Int8 pools keep their input's scale (a pooled value never leaves its
	// range), so calibration gives pool boundaries the pass-through scale.
	qpool = poolDType[int8, int32]{maxSeed: -128, maxPair: maxPairRow, avg: avgRowQ, act: applyActivationQ}
)

func poolForward(in Tensor, g geom, l *nn.Layer, par int) Tensor {
	return ftensor(pool(&fpool, in.Data, in.C, in.H, in.W, g, l, par))
}

func qpoolForward(in QTensor, g geom, l *nn.Layer, par int) QTensor {
	return qtensor(pool(&qpool, in.Data, in.C, in.H, in.W, g, l, par), in.Scale)
}

func avgRowF(dst, sum []float32, rows int32, cols []int32) {
	for i, v := range sum {
		if n := rows * cols[i]; n > 0 {
			v /= float32(n)
		}
		dst[i] = v
	}
}

func avgRowQ(dst []int8, sum []int32, rows int32, cols []int32) {
	for i, v := range sum {
		dst[i] = 0
		if n := rows * cols[i]; n > 0 {
			dst[i] = quantClamp(float32(v) / float32(n))
		}
	}
}

// finish writes a row of finished windows — a max as is, an average through
// the dtype's avg — and applies the activation.
func (d *poolDType[E, A]) finish(dst []E, acc []A, rows int32, cols []int32, isMax bool, act nn.Activation) {
	if isMax {
		for i, v := range acc {
			dst[i] = E(v)
		}
	} else {
		d.avg(dst, acc, rows, cols)
	}
	d.act(dst, act)
}

// poolCall is one call of the tap-major pool, pooled like gemmCall.
type poolCall[E elem, A accum] struct {
	d                   *poolDType[E, A]
	in, out             []E
	h, w, outRows, outW int
	g                   geom
	l                   *nn.Layer
	run                 func(lo, hi int) // c.compute
}

// poolScratch is a running chunk's window accumulators and, per output
// column, how many of its window's columns are in the map.
type poolScratch[A accum] struct {
	acc  []A
	cols []int32
}

// pool computes region g.out of a max or average pool like convForward.
// Padding cells are excluded from the max and the average (whose divisor
// counts valid cells), so tiles match the whole map exactly. On a full-width
// tile the loops are tap-major — each (kh, kw) tap sweeps its valid output
// span over one input row; an unpadded 2x2/2 max pool is one pair reduction
// per output row. Any other tile takes the per-cell reference.
func pool[E elem, A accum](d *poolDType[E, A], in []E, c, h, w int, g geom, l *nn.Layer, par int) kout[E] {
	outW := outWidth(l, g.in.W)
	if !g.fullWidth(w, outW) {
		return poolRef(d, in, c, h, w, g, l, par)
	}
	g.mustCover(l, h, w)
	outRows := g.out.Rows.Len()
	out := allocOut[E](c, outRows, outW)
	call := pooled[poolCall[E, A]](&d.calls)
	*call = poolCall[E, A]{d: d, in: in, out: out.data, h: h, w: w, outRows: outRows, outW: outW, g: g, l: l, run: call.run}
	if call.run == nil {
		call.run = call.compute
	}
	parallelForGrain(c*outRows, par, grainFor(l.KH*l.KW*outW), call.run)
	*call = poolCall[E, A]{run: call.run}
	d.calls.Put(call)
	return out
}

// compute computes output rows [lo, hi) of the call (channel-major).
func (c *poolCall[E, A]) compute(lo, hi int) {
	l, g, w, outW := c.l, &c.g, c.w, c.outW
	isMax := l.Kind == nn.MaxPool
	pair := isMax && l.KH == 2 && l.KW == 2 && l.SH == 2 && l.SW == 2 && l.PH == 0 && l.PW == 0
	s := pooled[poolScratch[A]](&c.d.scratch)
	defer c.d.scratch.Put(s)
	s.acc, s.cols = slices.Grow(s.acc[:0], outW)[:outW], slices.Grow(s.cols[:0], outW)[:outW]
	acc, cols := s.acc, s.cols
	clear(cols) // column validity is row-independent
	for kw := 0; kw < l.KW; kw++ {
		a, b := tapSpan(kw-l.PW, l.SW, w, 0, outW)
		for ow := a; ow < b; ow++ {
			cols[ow]++
		}
	}
	for t := lo; t < hi; t++ {
		plane := c.in[t/c.outRows*c.h*w:]
		oh := g.out.Rows.Lo + t%c.outRows
		dst := c.out[t*outW:][:outW]
		if pair {
			ih := oh*2 - g.rowLo // in the tile: mustCover checked
			c.d.maxPair(dst, plane[ih*w:][:w], plane[(ih+1)*w:][:w], outW)
			c.d.act(dst, l.Act)
			continue
		}
		seed := A(0)
		if isMax {
			seed = c.d.maxSeed
		}
		for i := range acc {
			acc[i] = seed
		}
		rows := int32(0)
		for kh := 0; kh < l.KH; kh++ {
			ih := g.rowAt(oh, kh, l)
			if ih < 0 {
				continue
			}
			rows++
			row := plane[ih*w:][:w]
			for kw := 0; kw < l.KW; kw++ {
				a, b := tapSpan(kw-l.PW, l.SW, w, 0, outW)
				iw := a*l.SW + kw - l.PW
				if isMax {
					for ow := a; ow < b; ow++ {
						if v := A(row[iw]); v > acc[ow] {
							acc[ow] = v
						}
						iw += l.SW
					}
				} else {
					for ow := a; ow < b; ow++ {
						acc[ow] += A(row[iw])
						iw += l.SW
					}
				}
			}
		}
		c.d.finish(dst, acc, rows, cols, isMax, l.Act)
	}
}

// fcForward computes a fully connected layer with register blocking: each
// pool chunk walks its output features in runs of ocBlockWidth, streaming the
// input vector once per run into four accumulators instead of once per
// feature. Each feature's dot product still sums in ascending element order,
// so results are bit-identical to the reference fcRef.
func fcForward(in Tensor, l *nn.Layer, wts *fcWeights, par int) Tensor {
	out := Alloc(l.OutF, 1, 1)
	n := in.Elems()
	nf := 0
	if wts.panels != nil && n > 0 {
		nf = len(wts.panels) / n
	}
	parallelForGrain(l.OutF, par, grainFor(n), func(lo, hi int) {
		single := func(o int) {
			acc, row := wts.bias[o], wts.w[o*n:][:n]
			for i, v := range in.Data[:n] {
				acc = fma32(row[i], v, acc)
			}
			out.Data[o] = acc
		}
		o := lo
		if nf > 0 {
			// Transposed-panel vector path: 16 output features per call,
			// lanes are features, each feature's dot product still sums in
			// ascending element order. Walk scalar singles up to the next
			// panel boundary first so chunk splits land anywhere.
			for ; o < hi && o%16 != 0; o++ {
				single(o)
			}
			for ; o+16 <= hi && o+16 <= nf; o += 16 {
				ffcPanel16(&out.Data[o], &wts.panels[o*n], &in.Data[0], &wts.bias[o], n)
			}
		}
		for ; o+ocBlockWidth <= hi; o += ocBlockWidth {
			acc0 := wts.bias[o]
			acc1 := wts.bias[o+1]
			acc2 := wts.bias[o+2]
			acc3 := wts.bias[o+3]
			r0 := wts.w[o*n:][:n]
			r1 := wts.w[(o+1)*n:][:n]
			r2 := wts.w[(o+2)*n:][:n]
			r3 := wts.w[(o+3)*n:][:n]
			for i, v := range in.Data[:n] {
				acc0 = fma32(r0[i], v, acc0)
				acc1 = fma32(r1[i], v, acc1)
				acc2 = fma32(r2[i], v, acc2)
				acc3 = fma32(r3[i], v, acc3)
			}
			out.Data[o] = acc0
			out.Data[o+1] = acc1
			out.Data[o+2] = acc2
			out.Data[o+3] = acc3
		}
		for ; o < hi; o++ {
			single(o)
		}
	})
	applyActivation(out.Data, l.Act)
	return out
}

// qfcForward computes a quantized fully connected layer through the vector
// int8 dot kernel (scalar hosts fall back to a serial dot); integer
// associativity makes any lane split bit-identical to the serial reference.
func qfcForward(in QTensor, l *nn.Layer, qw *qparams, par int) QTensor {
	out := AllocQ(l.OutF, 1, 1, qw.scale)
	n := in.Elems()
	parallelForGrain(l.OutF, par, grainFor(n), func(lo, hi int) {
		for o := lo; o < hi; o++ {
			acc := dotI8(qw.wq[o*n:][:n], in.Data[:n])
			out.Data[o] = requant1(acc, qw.effScale[o], qw.effBias[o], l.Act)
		}
	})
	return out
}

// gapForward computes a global average pool, parallelised across channels
// when the per-channel reduction is big enough to amortise a pool hand-off.
// Each channel sums its elements in ascending order regardless of the worker
// count, so results are bit-identical at any parallelism.
func gapForward(in Tensor, l *nn.Layer, par int) Tensor {
	out := Alloc(in.C, 1, 1)
	per := in.H * in.W
	parallelForGrain(in.C, par, grainFor(per), func(lo, hi int) {
		c := lo
		// Vector path: 8 channels reduce at once with lanes holding
		// channels, each channel still summing its elements in ascending
		// order (see gapSum8F).
		var sums [8]float32
		for ; c+8 <= hi; c += 8 {
			gapSum8F(&sums, in.Data[c*per:], per, per)
			for b := 0; b < 8; b++ {
				out.Data[c+b] = sums[b] / float32(per)
			}
		}
		for ; c < hi; c++ {
			var acc float32
			for _, v := range in.Data[c*per : (c+1)*per] {
				acc += v
			}
			out.Data[c] = acc / float32(per)
		}
	})
	applyActivation(out.Data, l.Act)
	return out
}

// qgapForward is the quantized global average pool; like the pools it
// keeps the input scale.
func qgapForward(in QTensor, l *nn.Layer, par int) QTensor {
	out := AllocQ(in.C, 1, 1, in.Scale)
	per := in.H * in.W
	parallelForGrain(in.C, par, grainFor(per), func(lo, hi int) {
		for c := lo; c < hi; c++ {
			acc := sumI8(in.Data[c*per : (c+1)*per])
			out.Data[c] = quantClamp(float32(acc) / float32(per))
		}
	})
	applyActivationQ(out.Data, l.Act)
	return out
}

// negInf seeds max-pool accumulators so padding never wins.
var negInf = float32(math.Inf(-1))

func applyActivation(xs []float32, a nn.Activation) {
	switch a {
	case nn.ReLU:
		for i, v := range xs {
			if v < 0 {
				xs[i] = 0
			}
		}
	case nn.LeakyReLU:
		for i, v := range xs {
			if v < 0 {
				xs[i] = 0.1 * v
			}
		}
	}
}
