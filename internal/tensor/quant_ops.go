package tensor

import (
	"fmt"

	"pico/internal/nn"
)

// Quantized kernels. All of them accumulate in int32 and emit int8 through
// the shared requantize epilogue (see quant.go). Because integer addition is
// associative, the blocked kernels may reorder and batch accumulation freely
// and still match qconvForwardRef bit for bit — the property tests assert
// exactly that, mirroring the float32 contract.

// qconvForward dispatches the blocked int8 convolution kernels, mirroring
// convForward: the depthwise plane walker and the pointwise GEMM walker
// (qpointwise.go) take full-width tiles, the general register-tiled kernel
// everything else.
func qconvForward(in QTensor, g geom, l *nn.Layer, qw *qconvWeights, par int) QTensor {
	if g.fullWidth(in.W, outWidth(l, g.in.W)) {
		switch {
		case depthwise(l, in.C):
			return qconvForwardDepthwise(in, g, l, qw, par)
		case pointwise(l):
			return qconvForwardPointwise(in, g, l, qw, par)
		}
	}
	return qconvForwardBlocked(in, g, l, qw, par)
}

// qconvForwardRef is the naive per-element reference: for every output cell
// it walks (ic, kh, kw) with full bounds checks against the map and a single
// int32 accumulator. The blocked kernels are property-tested bit-identical
// to it on strips and partial-width tiles.
func qconvForwardRef(in QTensor, g geom, l *nn.Layer, qw *qconvWeights, par int) QTensor {
	g.mustCover(l, in.H, in.W)
	outRows, outCols := g.out.Rows.Len(), g.out.Cols.Len()
	out := AllocQ(l.OutC, outRows, outCols, 1)
	groups := max(l.Groups, 1)
	icg := in.C / groups
	ocg := l.OutC / groups
	perOC := icg * l.KH * l.KW
	parallelFor(l.OutC*outRows, par, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			oc := t / outRows
			oh := g.out.Rows.Lo + t%outRows
			icBase := (oc / ocg) * icg
			dst := out.Data[t*outCols : (t+1)*outCols]
			for ocl := range dst {
				var acc int32
				for gi := 0; gi < icg; gi++ {
					ic := icBase + gi
					for kh := 0; kh < l.KH; kh++ {
						ih := g.rowAt(oh, kh, l)
						if ih < 0 {
							continue // zero padding row
						}
						for kw := 0; kw < l.KW; kw++ {
							iw := g.colAt(g.out.Cols.Lo+ocl, kw, l)
							if iw < 0 {
								continue
							}
							w := qw.wq[oc*perOC+(gi*l.KH+kh)*l.KW+kw]
							acc += int32(w) * int32(in.Data[(ic*in.H+ih)*in.W+iw])
						}
					}
				}
				dst[ocl] = requant1(acc, qw.effScale[oc], qw.effBias[oc], l.Act)
			}
		}
	})
	return out
}

// qconvForwardBlocked is the general register-tiled int8 kernel: one work
// unit is one output row of one oc-block; each input-row sweep feeds up to
// ocBlockWidth int32 accumulator rows through the always-dense packed taps.
// qconvRowBlk takes the tile's global column geometry, so strips and 2D grid
// tiles run the same loop — per output pixel the same taps accumulate in an
// order wrapping int32 addition is free to permute.
func qconvForwardBlocked(in QTensor, g geom, l *nn.Layer, qw *qconvWeights, par int) QTensor {
	g.mustCover(l, in.H, in.W)
	outRows, outCols := g.out.Rows.Len(), g.out.Cols.Len()
	out := AllocQ(l.OutC, outRows, outCols, 1)
	data := out.Data // the closure captures the slice, not the tensor
	icg := in.C / max(l.Groups, 1)
	grain := grainFor(ocBlockWidth * icg * l.KH * l.KW * outCols)
	parallelForGrain(len(qw.blocks)*outRows, par, grain, func(lo, hi int) {
		accBuf := make([]int32, ocBlockWidth*outCols)
		for u := lo; u < hi; u++ {
			blk := &qw.blocks[u/outRows]
			or := u % outRows
			for i := range accBuf {
				accBuf[i] = 0
			}
			for gi := 0; gi < icg; gi++ {
				ic := blk.icBase + gi
				for kh := 0; kh < l.KH; kh++ {
					ih := g.rowAt(g.out.Rows.Lo+or, kh, l)
					if ih < 0 {
						continue // zero padding row
					}
					inRow := in.Data[(ic*in.H+ih)*in.W : (ic*in.H+ih+1)*in.W]
					pk32 := blk.packed32[(gi*l.KH+kh)*l.KW*ocBlockWidth:]
					qconvRowBlk(accBuf, outCols, inRow, pk32, l.KW, l.SW, l.PW, g.out.Cols.Lo, g.colLo, g.in.W, outCols)
				}
			}
			for b := 0; b < blk.width; b++ {
				oc := blk.oc0 + b
				dst := data[(oc*outRows+or)*outCols : (oc*outRows+or+1)*outCols]
				requantRow(dst, accBuf[b*outCols:(b+1)*outCols], qw.effScale[oc], qw.effBias[oc], l.Act)
			}
		}
	})
	return out
}

// qconvRowBlk accumulates one packed int8 kernel row into four int32
// accumulator rows (accBuf at stride accStride) in a single sweep over the
// input row. Column geometry is expressed in GLOBAL coordinates so the same
// primitive serves whole-width strips (outColLo = inColLo = 0, inWGlobal =
// len(inRow)) and 2D grid tiles, whose tap bounds clamp against the full
// feature map while indexing the local tile rows. Dense stride-1 and
// stride-2 spans run through the vector tiles (see quant_simd.go).
func qconvRowBlk(accBuf []int32, accStride int, inRow []int8, pk32 []int32, kw, sw, pw, outColLo, inColLo, inWGlobal, outCols int) {
	if kw == 3 && sw == 1 && simdMac3 {
		// Dense interior where all three taps land in-bounds: run the fused
		// VPMADDWD tap-pair kernel there and sweep only the edge columns
		// tap-by-tap. Wrapping int32 addition makes the tap regrouping
		// bit-identical to the sequential tap sweep.
		olo := pw - outColLo
		if olo < 0 {
			olo = 0
		}
		ohi := inWGlobal - 2 + pw - outColLo
		if ohi > outCols {
			ohi = outCols
		}
		if olo < ohi && ohi-olo >= 16 {
			qconvRowBlkTaps(accBuf, accStride, inRow, pk32, kw, sw, pw, outColLo, inColLo, inWGlobal, 0, olo)
			n := ohi - olo
			iwFirst := outColLo + olo - pw - inColLo
			if iwFirst < 0 || iwFirst+n+1 >= len(inRow) {
				panic(fmt.Sprintf("tensor: qconv fused taps need cols [%d,%d] outside local row [0,%d)", iwFirst, iwFirst+n+1, len(inRow)))
			}
			mac3Rows4(accBuf[olo:], accStride, inRow[iwFirst:], pk32, n)
			qconvRowBlkTaps(accBuf, accStride, inRow, pk32, kw, sw, pw, outColLo, inColLo, inWGlobal, ohi, outCols)
			return
		}
	}
	qconvRowBlkTaps(accBuf, accStride, inRow, pk32, kw, sw, pw, outColLo, inColLo, inWGlobal, 0, outCols)
}

// qconvRowBlkTaps sweeps taps one at a time over output columns [oclA,oclB)
// of the row block; it is the edge/general form behind qconvRowBlk.
func qconvRowBlkTaps(accBuf []int32, accStride int, inRow []int8, pk32 []int32, kw, sw, pw, outColLo, inColLo, inWGlobal, oclA, oclB int) {
	for x := 0; x < kw; x++ {
		// Global input column touched by tap x of the first output column.
		base := outColLo*sw - pw + x
		oclLo := oclA
		if base < 0 {
			if lo := (-base + sw - 1) / sw; lo > oclLo {
				oclLo = lo
			}
		}
		oclHi := oclB
		if maxO := (inWGlobal - 1 - base) / sw; maxO+1 < oclHi {
			oclHi = maxO + 1
		}
		if oclLo >= oclHi {
			continue
		}
		n := oclHi - oclLo
		iwFirst := base + oclLo*sw - inColLo
		if iwFirst < 0 || iwFirst+(n-1)*sw >= len(inRow) {
			panic(fmt.Sprintf("tensor: qconv tap needs cols [%d,%d] outside local row [0,%d)", iwFirst, iwFirst+(n-1)*sw, len(inRow)))
		}
		w := pk32[x*ocBlockWidth : x*ocBlockWidth+ocBlockWidth]
		if sw <= 2 {
			macRows4(accBuf[oclLo:], accStride, inRow[iwFirst:], w, sw, n)
			continue
		}
		w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
		a0 := accBuf
		a1 := accBuf[accStride:]
		a2 := accBuf[2*accStride:]
		a3 := accBuf[3*accStride:]
		iw := iwFirst
		for ow := oclLo; ow < oclHi; ow++ {
			vi := int32(inRow[iw])
			a0[ow] += w0 * vi
			a1[ow] += w1 * vi
			a2[ow] += w2 * vi
			a3[ow] += w3 * vi
			iw += sw
		}
	}
}

// qpoolForward pools directly in the quantized domain: max pooling compares
// int8 values exactly, average pooling sums valid cells into int32 and
// requantizes the float mean. The output inherits the input scale (a pooled
// value never leaves the input's range), which is why calibration assigns
// pool boundaries the pass-through scale. The kernel is tap-major (one
// hoisted-bounds sweep per kernel tap, like the float poolForward), with a
// vector row-pair reduction for the ubiquitous unpadded 2x2 stride-2 max;
// max is associative/commutative and the valid-cell count of an avg window
// separates into rowCount*colCount, so both orders are bit-identical to the
// per-cell reference qpoolForwardRef, which also serves partial-width tiles.
func qpoolForward(in QTensor, g geom, l *nn.Layer, par int) QTensor {
	outW := outWidth(l, g.in.W)
	if !g.fullWidth(in.W, outW) {
		return qpoolForwardRef(in, g, l, par)
	}
	g.mustCover(l, in.H, in.W)
	inLo, outLo, outRows := g.rowLo, g.out.Rows.Lo, g.out.Rows.Len()
	out := AllocQ(in.C, outRows, outW, in.Scale)
	data := out.Data // the closure captures the slice, not the tensor
	isMax := l.Kind == nn.MaxPool
	grain := grainFor(l.KH * l.KW * outW)
	fast := isMax && l.KH == 2 && l.KW == 2 && l.SH == 2 && l.SW == 2 && l.PH == 0 && l.PW == 0
	parallelForGrain(in.C*outRows, par, grain, func(lo, hi int) {
		var acc []int32
		var cntW []int32
		if !fast {
			acc = make([]int32, outW)
			if !isMax {
				cntW = make([]int32, outW)
			}
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
				maxPairRow(dst, rowA, rowB, outW)
				applyActivationQ(dst, l.Act)
				continue
			}
			if isMax {
				for i := range acc {
					acc[i] = -128
				}
			} else {
				for i := range acc {
					acc[i] = 0
				}
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
							if v := int32(inRow[iw]); v > acc[ow] {
								acc[ow] = v
							}
							iw += l.SW
						}
					} else {
						for ow := owLo; ow < owHi; ow++ {
							acc[ow] += int32(inRow[iw])
							iw += l.SW
						}
					}
				}
			}
			if isMax {
				for ow, v := range acc {
					dst[ow] = int8(v)
				}
			} else {
				// Column validity is row-independent, so each window's
				// valid-cell count is countH * (valid columns at ow).
				for i := range cntW {
					cntW[i] = 0
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
						cntW[ow]++
					}
				}
				for ow, sum := range acc {
					if count := countH * cntW[ow]; count > 0 {
						dst[ow] = quantClamp(float32(sum) / float32(count))
					} else {
						dst[ow] = 0
					}
				}
			}
			applyActivationQ(dst, l.Act)
		}
	})
	return out
}

// qpoolForwardRef is the naive per-cell reference for qpoolForward in global
// coordinates: every output walks its full window with bounds checks against
// the map, so it is both the oracle the tap-major kernel is property-tested
// against and the partial-width path.
func qpoolForwardRef(in QTensor, g geom, l *nn.Layer, par int) QTensor {
	g.mustCover(l, in.H, in.W)
	outRows, outCols := g.out.Rows.Len(), g.out.Cols.Len()
	out := AllocQ(in.C, outRows, outCols, in.Scale)
	isMax := l.Kind == nn.MaxPool
	grain := grainFor(l.KH * l.KW * outCols)
	parallelForGrain(in.C*outRows, par, grain, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			c := t / outRows
			oh := g.out.Rows.Lo + t%outRows
			dst := out.Data[t*outCols : (t+1)*outCols]
			for ocl := range dst {
				macc := int32(-128)
				var sum, count int32
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
						v := int32(in.At(c, ih, iw))
						if isMax {
							if v > macc {
								macc = v
							}
						} else {
							sum += v
						}
						count++
					}
				}
				if isMax {
					dst[ocl] = int8(macc)
				} else if count > 0 {
					dst[ocl] = quantClamp(float32(sum) / float32(count))
				} else {
					dst[ocl] = 0
				}
			}
			applyActivationQ(dst, l.Act)
		}
	})
	return out
}

// qgapForward is the quantized global average pool; like qpoolForward it
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

// qfcForward computes a quantized fully connected layer through the vector
// int8 dot kernel (scalar hosts fall back to a serial dot); integer
// associativity makes any lane split bit-identical to the serial reference.
func qfcForward(in QTensor, l *nn.Layer, qw *qfcWeights, par int) QTensor {
	out := AllocQ(l.OutF, 1, 1, 1)
	n := in.Elems()
	parallelForGrain(l.OutF, par, grainFor(n), func(lo, hi int) {
		for o := lo; o < hi; o++ {
			acc := dotI8(qw.wq[o*n:][:n], in.Data[:n])
			out.Data[o] = requant1(acc, qw.effScale[o], qw.effBias[o], l.Act)
		}
	})
	return out
}

// qfcForwardRef is the serial-dot-product reference for qfcForward.
func qfcForwardRef(in QTensor, l *nn.Layer, qw *qfcWeights, par int) QTensor {
	out := AllocQ(l.OutF, 1, 1, 1)
	n := in.Elems()
	parallelFor(l.OutF, par, func(lo, hi int) {
		for o := lo; o < hi; o++ {
			row := qw.wq[o*n : (o+1)*n]
			var acc int32
			for i, v := range in.Data {
				acc += int32(row[i]) * int32(v)
			}
			out.Data[o] = requant1(acc, qw.effScale[o], qw.effBias[o], l.Act)
		}
	})
	return out
}
