package tensor

import "pico/internal/nn"

// Quantized kernels. All of them accumulate in int32 and emit int8 through
// the shared requantize epilogue (see quant.go). Because integer addition is
// associative, the blocked kernels may reorder and batch accumulation freely
// and still match qconvForwardRef bit for bit — the property tests assert
// exactly that, mirroring the float32 contract.

// qconvForward dispatches the blocked int8 convolution kernels: a depthwise
// layer over a full-width tile takes the plane walker (depthwise.go),
// everything else the GEMM walker (qpointwise.go).
func qconvForward(in QTensor, g geom, l *nn.Layer, qw *qconvWeights, par int) QTensor {
	if depthwise(l, in.C) && g.fullWidth(in.W, outWidth(l, g.in.W)) {
		return qconvForwardDepthwise(in, g, l, qw, par)
	}
	return qconvForwardGEMM(in, g, l, qw, par)
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
