package tensor

import (
	"fmt"
	"math"

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

// colAt is rowAt for the column axis, used by the per-cell reference loops.
func (g geom) colAt(ow, kw int, l *nn.Layer) int {
	iwGlobal := ow*l.SW - l.PW + kw
	if iwGlobal < 0 || iwGlobal >= g.in.W {
		return -1
	}
	return iwGlobal - g.colLo
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

// convForward computes region g.out of a convolution from the tile in.
//
// Two kernels, both preserving the reference's per-element accumulation
// order (ic, kh, kw) exactly (DESIGN.md §6): a full-width tile of a
// groups == channels conv takes the depthwise plane walker; every other conv
// on any tile — dense, grouped, pointwise, partial-width depthwise — takes the
// packed GEMM walker over gathered taps. Weights without a register-tile plan
// (hand-built, tests) and padded layers whose weights break the padded-tap
// contract (convWeights.padExact) take convForwardRef, the original
// single-channel sweep that the property tests and benchmarks compare with.
func convForward(in Tensor, g geom, l *nn.Layer, wts *convWeights, par int) Tensor {
	switch {
	case len(wts.blocks) == 0, !wts.padExact:
		return convForwardRef(in, g, l, wts, par)
	case depthwise(l, in.C) && g.fullWidth(in.W, outWidth(l, g.in.W)):
		return convForwardDepthwise(in, g, l, wts, par)
	}
	return convForwardGEMM(in, g, l, wts, par)
}

// convForwardRef is the pre-blocking engine: each (output channel, output
// row) pair re-reads its input rows independently, skipping padding taps and
// zero weights. It remains the reference implementation that the other
// kernels are tested bit-identical against, for strips and partial-width
// tiles alike.
//
// The (output channel, output row) space is split into contiguous chunks
// executed on up to par pool workers. Each chunk owns a disjoint slice of
// the output and runs the unchanged per-element loop, so any worker count
// produces bit-identical results.
func convForwardRef(in Tensor, g geom, l *nn.Layer, wts *convWeights, par int) Tensor {
	g.mustCover(l, in.H, in.W)
	outRows, outCols := g.out.Rows.Len(), g.out.Cols.Len()
	out := Alloc(l.OutC, outRows, outCols)
	groups := max(l.Groups, 1)
	icg := in.C / groups // input channels per group
	ocg := l.OutC / groups
	parallelFor(l.OutC*outRows, par, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			oc := t / outRows
			or := t % outRows
			icBase := (oc / ocg) * icg
			acc := out.Data[t*outCols : (t+1)*outCols]
			for i := range acc {
				acc[i] = wts.bias[oc]
			}
			for gi := 0; gi < icg; gi++ {
				ic := icBase + gi
				for kh := 0; kh < l.KH; kh++ {
					ih := g.rowAt(g.out.Rows.Lo+or, kh, l)
					if ih < 0 {
						continue // zero padding row
					}
					inRow := in.Data[(ic*in.H+ih)*in.W : (ic*in.H+ih+1)*in.W]
					row := wts.row((oc*icg+gi)*l.KH + kh)
					convRow(acc, inRow, row, l.SW, l.PW, g.out.Cols.Lo, g.colLo, g.in.W, outCols)
				}
			}
			finishChannel(acc, wts, oc, l.Act)
		}
	})
	return out
}

// finishChannel applies the folded batch-norm affine and the activation to
// one finished output-channel row.
func finishChannel(acc []float32, wts *convWeights, oc int, act nn.Activation) {
	if wts.bnScale != nil {
		finishRowF(acc, wts.bnScale[oc], wts.bnShift[oc], true, act)
		return
	}
	finishRowF(acc, 0, 0, false, act)
}

// convRow accumulates one compacted kernel row over one input row. The taps
// iterate in ascending kw with zero weights already dropped at generation
// time, matching the original loop's order and w == 0 skip exactly. Column
// geometry is global, like the gather's: acc holds output columns
// [outColLo, outColLo+outCols) of a map inWGlobal wide and inRow starts at
// global input column inColLo. The padding and tile-coverage checks are
// hoisted out of the per-column loop: for a fixed tap the valid output
// columns form one contiguous interval, computed once.
func convRow(acc, inRow []float32, row kernelRow, sw, pw, outColLo, inColLo, inWGlobal, outCols int) {
	for x, w := range row.w {
		// iwGlobal = base + ocl*sw; valid while 0 <= iwGlobal < inWGlobal.
		base := outColLo*sw - pw + int(row.kw[x])
		oclLo := 0
		if base < 0 {
			oclLo = (-base + sw - 1) / sw
		}
		last := inWGlobal - 1 - base
		if last < 0 {
			continue // the tap lies right of the map at every column
		}
		oclHi := min(outCols, last/sw+1)
		if oclLo >= oclHi {
			continue
		}
		iwFirst := base + oclLo*sw - inColLo
		if iwLast := iwFirst + (oclHi-1-oclLo)*sw; iwFirst < 0 || iwLast >= len(inRow) {
			panic(fmt.Sprintf("tensor: conv needs global cols [%d,%d] outside tile [%d,%d)",
				iwFirst+inColLo, iwLast+inColLo, inColLo, inColLo+len(inRow)))
		}
		if sw == 1 {
			macRowF(acc[oclLo:oclHi], inRow[iwFirst:iwFirst+(oclHi-oclLo)], w)
			continue
		}
		iw := iwFirst
		for ocl := oclLo; ocl < oclHi; ocl++ {
			acc[ocl] += w * inRow[iw]
			iw += sw
		}
	}
}

// poolForward computes region g.out of a max or average pool under the same
// global-coordinate convention as convForward. Padding cells are excluded
// from both the max and the average (divisor counts valid cells only), so
// tile-boundary behaviour matches whole-map behaviour exactly.
//
// The hot loops are restructured tap-major: instead of re-deriving the
// window bounds and the (c*H+h)*W+w index for every cell, each (kh, kw) tap
// sweeps its valid output-column span over a hoisted input row. Per output
// element the taps still apply in ascending (kh, kw) order — the same order
// as poolForwardRef's per-cell walk — so max ties resolve identically and
// average sums accumulate in the same float order, keeping results
// bit-identical to the reference at any tile or parallelism. The tap-major
// sweeps are written for whole rows; a partial-width tile takes the per-cell
// reference loop itself.
func poolForward(in Tensor, g geom, l *nn.Layer, par int) Tensor {
	outW := outWidth(l, g.in.W)
	if !g.fullWidth(in.W, outW) {
		return poolForwardRef(in, g, l, par)
	}
	g.mustCover(l, in.H, in.W)
	inLo, outLo, outRows := g.rowLo, g.out.Rows.Lo, g.out.Rows.Len()
	out := Alloc(in.C, outRows, outW)
	data := out.Data // the closure captures the slice, not the tensor
	isMax := l.Kind == nn.MaxPool
	grain := grainFor(l.KH * l.KW * outW)
	// Unpadded 2x2 stride-2 max pool (every MobileNet/Inception reduction):
	// both taps of both rows are always in bounds, so the whole output row is
	// one vectorizable pair reduction with the scalar `if v > acc` semantics.
	fast := isMax && l.KH == 2 && l.KW == 2 && l.SH == 2 && l.SW == 2 && l.PH == 0 && l.PW == 0
	parallelForGrain(in.C*outRows, par, grain, func(lo, hi int) {
		var cnt []int32
		if !isMax {
			cnt = make([]int32, outW)
		}
		for t := lo; t < hi; t++ {
			c := t / outRows
			or := t % outRows
			dst := data[t*outW : (t+1)*outW]
			ohGlobal := outLo + or
			if fast {
				ihA := ohGlobal*2 - inLo // in the tile: mustCover checked
				rowA := in.Data[(c*in.H+ihA)*in.W : (c*in.H+ihA+1)*in.W]
				rowB := in.Data[(c*in.H+ihA+1)*in.W : (c*in.H+ihA+2)*in.W]
				maxPairRowF(dst, rowA, rowB, outW)
				applyActivation(dst, l.Act)
				continue
			}
			init := float32(0)
			if isMax {
				init = negInf
			}
			for i := range dst {
				dst[i] = init
			}
			countH := int32(0)
			for kh := 0; kh < l.KH; kh++ {
				ih := g.rowAt(ohGlobal, kh, l)
				if ih < 0 {
					continue
				}
				countH++
				inRow := in.Data[(c*in.H+ih)*in.W : (c*in.H+ih+1)*in.W]
				for kw := 0; kw < l.KW; kw++ {
					iwOff := kw - l.PW
					owLo := 0
					if iwOff < 0 {
						owLo = (-iwOff + l.SW - 1) / l.SW
					}
					owHi := outW
					if maxOw := (in.W - 1 - iwOff) / l.SW; maxOw+1 < owHi {
						owHi = maxOw + 1
					}
					iw := owLo*l.SW + iwOff
					if isMax {
						for ow := owLo; ow < owHi; ow++ {
							if v := inRow[iw]; v > dst[ow] {
								dst[ow] = v
							}
							iw += l.SW
						}
					} else {
						for ow := owLo; ow < owHi; ow++ {
							dst[ow] += inRow[iw]
							iw += l.SW
						}
					}
				}
			}
			if !isMax {
				// The per-cell divisor factors into valid rows x valid
				// columns; the column factor depends only on ow.
				for ow := range cnt {
					cnt[ow] = 0
				}
				for kw := 0; kw < l.KW; kw++ {
					iwOff := kw - l.PW
					owLo := 0
					if iwOff < 0 {
						owLo = (-iwOff + l.SW - 1) / l.SW
					}
					owHi := outW
					if maxOw := (in.W - 1 - iwOff) / l.SW; maxOw+1 < owHi {
						owHi = maxOw + 1
					}
					for ow := owLo; ow < owHi; ow++ {
						cnt[ow]++
					}
				}
				for ow, n := range cnt {
					if total := countH * n; total > 0 {
						dst[ow] /= float32(total)
					}
				}
			}
			applyActivation(dst, l.Act)
		}
	})
	return out
}

// poolForwardRef is the original per-cell pool loop in global coordinates:
// the bit-identity reference for poolForward and, because it clips every
// window against the map rather than the tile, the partial-width path.
func poolForwardRef(in Tensor, g geom, l *nn.Layer, par int) Tensor {
	g.mustCover(l, in.H, in.W)
	outRows, outCols := g.out.Rows.Len(), g.out.Cols.Len()
	out := Alloc(in.C, outRows, outCols)
	isMax := l.Kind == nn.MaxPool
	grain := grainFor(l.KH * l.KW * outCols)
	parallelForGrain(in.C*outRows, par, grain, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			c := t / outRows
			oh := g.out.Rows.Lo + t%outRows
			dst := out.Data[t*outCols : (t+1)*outCols]
			for ocl := range dst {
				var acc float32
				if isMax {
					acc = negInf
				}
				count := 0
				for kh := 0; kh < l.KH; kh++ {
					ih := g.rowAt(oh, kh, l)
					if ih < 0 {
						continue
					}
					for kw := 0; kw < l.KW; kw++ {
						iw := g.colAt(g.out.Cols.Lo+ocl, kw, l)
						if iw < 0 {
							continue
						}
						v := in.At(c, ih, iw)
						if isMax {
							if v > acc {
								acc = v
							}
						} else {
							acc += v
						}
						count++
					}
				}
				if !isMax && count > 0 {
					acc /= float32(count)
				}
				dst[ocl] = acc
			}
			applyActivation(dst, l.Act)
		}
	})
	return out
}

// fcForward computes a fully connected layer with register blocking: each
// pool chunk walks its output features in runs of ocBlockWidth, streaming the
// input vector once per run into four accumulators instead of once per
// feature. Each feature's dot product still sums in ascending element order,
// so results are bit-identical to fcForwardRef.
func fcForward(in Tensor, l *nn.Layer, wts *fcWeights, par int) Tensor {
	out := Alloc(l.OutF, 1, 1)
	n := in.Elems()
	nf := 0
	if wts.panels != nil && n > 0 {
		nf = len(wts.panels) / n
	}
	parallelForGrain(l.OutF, par, grainFor(n), func(lo, hi int) {
		o := lo
		if nf > 0 {
			// Transposed-panel vector path: 16 output features per call,
			// lanes are features, each feature's dot product still sums in
			// ascending element order. Walk scalar singles up to the next
			// panel boundary first so chunk splits land anywhere.
			for ; o < hi && o%16 != 0; o++ {
				acc := wts.bias[o]
				row := wts.w[o*n:][:n]
				for i, v := range in.Data[:n] {
					acc += row[i] * v
				}
				out.Data[o] = acc
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
				acc0 += r0[i] * v
				acc1 += r1[i] * v
				acc2 += r2[i] * v
				acc3 += r3[i] * v
			}
			out.Data[o] = acc0
			out.Data[o+1] = acc1
			out.Data[o+2] = acc2
			out.Data[o+3] = acc3
		}
		for ; o < hi; o++ {
			acc := wts.bias[o]
			row := wts.w[o*n:][:n]
			for i, v := range in.Data[:n] {
				acc += row[i] * v
			}
			out.Data[o] = acc
		}
	})
	applyActivation(out.Data, l.Act)
	return out
}

// fcForwardRef is the unblocked fully connected layer: one row dot product
// per output feature. Retained as the bit-identity reference for fcForward.
func fcForwardRef(in Tensor, l *nn.Layer, wts *fcWeights, par int) Tensor {
	out := Alloc(l.OutF, 1, 1)
	n := in.Elems()
	parallelFor(l.OutF, par, func(lo, hi int) {
		for o := lo; o < hi; o++ {
			acc := wts.bias[o]
			row := wts.w[o*n : (o+1)*n]
			for i, v := range in.Data {
				acc += row[i] * v
			}
			out.Data[o] = acc
		}
	})
	applyActivation(out.Data, l.Act)
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
