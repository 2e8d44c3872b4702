package tensor

import "pico/internal/nn"

// The reference kernels: plain Go, written once over the element type,
// sharing no tile with the kernels they check, which are tested bit-identical
// to them (WithReferenceKernels runs them through the executor). Per output
// element: the seed, then one mac per tap in (ic, kh, kw) order — padding
// and zero weights skipped — then the dtype's finish.

// accum is the accumulator type an element widens into: float32 accumulates
// in float32, int8 in int32.
type accum interface{ float32 | int32 }

// refParams is one dtype's layer parameters as the references read them: the
// kernel ([outC][icg][kh][kw] or [outF][inElems]), an output channel's seed,
// and the finish that turns a row of its accumulators into outputs.
type refParams[E elem, A accum] interface {
	kernel() []E
	seed(oc int) A
	finish(dst []E, acc []A, oc int, act nn.Activation)
}

func (p *fparams) kernel() []float32   { return p.w }
func (p *fparams) seed(oc int) float32 { return p.bias[oc] }
func (p *qparams) kernel() []int8      { return p.wq }
func (p *qparams) seed(int) int32      { return 0 }
func (p *fparams) finish(dst, acc []float32, oc int, act nn.Activation) {
	copy(dst, acc)
	p.finishChannel(dst, oc, act)
}
func (p *qparams) finish(dst []int8, acc []int32, oc int, act nn.Activation) {
	requantRow(dst, acc, p.effScale[oc], p.effBias[oc], act)
}

// finishChannel applies the folded batch-norm affine and the activation to
// one finished output-channel row.
func (p *fparams) finishChannel(acc []float32, oc int, act nn.Activation) {
	if p.bnScale != nil {
		finishRowF(acc, p.bnScale[oc], p.bnShift[oc], true, act)
		return
	}
	finishRowF(acc, 0, 0, false, act)
}

// tapSpan returns the output columns [a, b) of [lo, hi) whose tap reads a
// column inside a map inW wide, column i reading global input column
// base + i*sw; a >= b when there is none.
func tapSpan(base, sw, inW, lo, hi int) (a, b int) {
	a, b = lo, hi
	if base+a*sw < 0 {
		a = (-base + sw - 1) / sw
	}
	if last := inW - 1 - base; last >= 0 {
		b = min(b, last/sw+1)
	} else {
		b = a
	}
	return a, b
}

// convRef computes region g.out of a convolution from the c x h x w tile
// in: per (output channel, output row) a row of accumulators is seeded, each
// tap sweeps the span of output columns whose input column is in the map,
// and the row is finished. Columns are global, like the gather's, so strips
// and partial-width tiles are the same loop; chunks own disjoint rows, so
// any par is bit-identical.
func convRef[E elem, A accum, P refParams[E, A]](in []E, c, h, w int, g geom, l *nn.Layer, p P, par int) kout[E] {
	g.mustCover(l, h, w)
	outRows, outCols := g.out.Rows.Len(), g.out.Cols.Len()
	out := allocOut[E](l.OutC, outRows, outCols)
	groups := max(l.Groups, 1)
	icg, ocg := c/groups, l.OutC/groups
	wk := p.kernel()
	parallelForGrain(l.OutC*outRows, par, grainFor(icg*l.KH*l.KW*outCols), func(lo, hi int) {
		acc := make([]A, outCols)
		for t := lo; t < hi; t++ {
			oc, oh := t/outRows, g.out.Rows.Lo+t%outRows
			seed := p.seed(oc)
			for i := range acc {
				acc[i] = seed
			}
			for gi := 0; gi < icg; gi++ {
				plane := in[((oc/ocg)*icg+gi)*h*w:]
				for kh := 0; kh < l.KH; kh++ {
					ih := g.rowAt(oh, kh, l)
					if ih < 0 {
						continue // zero padding row
					}
					for kw, wt := range wk[((oc*icg+gi)*l.KH+kh)*l.KW:][:l.KW] {
						base := g.out.Cols.Lo*l.SW - l.PW + kw
						a, b := tapSpan(base, l.SW, g.in.W, 0, outCols)
						if wt == 0 || a >= b {
							continue
						}
						src := plane[ih*w+base+a*l.SW-g.colLo:]
						for i := a; i < b; i++ {
							acc[i] = mac(acc[i], A(wt), A(src[(i-a)*l.SW]))
						}
					}
				}
			}
			p.finish(out.data[t*outCols:][:outCols], acc, oc, l.Act)
		}
	})
	return out
}

// fcRef computes a fully connected layer: one dot product per output
// feature, elements ascending, zero weights included.
func fcRef[E elem, A accum, P refParams[E, A]](in []E, outF int, act nn.Activation, p P, par int) kout[E] {
	out := allocOut[E](outF, 1, 1)
	n, wk := len(in), p.kernel()
	parallelForGrain(outF, par, grainFor(n), func(lo, hi int) {
		var acc [1]A
		for o := lo; o < hi; o++ {
			acc[0] = p.seed(o)
			for i, v := range wk[o*n:][:n] {
				acc[0] = mac(acc[0], A(v), A(in[i]))
			}
			p.finish(out.data[o:o+1], acc[:], o, act)
		}
	})
	return out
}

// poolRef computes region g.out of a max or average pool cell by cell, each
// window clipped against the map: the oracle the tap-major pool is tested
// against and, because it never assumes whole rows, the partial-width path.
func poolRef[E elem, A accum](d *poolDType[E, A], in []E, c, h, w int, g geom, l *nn.Layer, par int) kout[E] {
	g.mustCover(l, h, w)
	outRows, outCols := g.out.Rows.Len(), g.out.Cols.Len()
	out := allocOut[E](c, outRows, outCols)
	isMax := l.Kind == nn.MaxPool
	parallelForGrain(c*outRows, par, grainFor(l.KH*l.KW*outCols), func(lo, hi int) {
		acc, cnt := make([]A, outCols), make([]int32, outCols)
		for t := lo; t < hi; t++ {
			ch, oh := t/outRows, g.out.Rows.Lo+t%outRows
			for ocl := range acc {
				v, n := A(0), int32(0)
				if isMax {
					v = d.maxSeed
				}
				for kh := 0; kh < l.KH; kh++ {
					ih := g.rowAt(oh, kh, l)
					if ih < 0 {
						continue
					}
					for kw := 0; kw < l.KW; kw++ {
						iw := (g.out.Cols.Lo+ocl)*l.SW - l.PW + kw
						if iw < 0 || iw >= g.in.W {
							continue // zero padding column
						}
						x := A(in[(ch*h+ih)*w+iw-g.colLo])
						if !isMax {
							v += x
						} else if x > v {
							v = x
						}
						n++
					}
				}
				acc[ocl], cnt[ocl] = v, n
			}
			d.finish(out.data[t*outCols:][:outCols], acc, 1, cnt, isMax, l.Act)
		}
	})
	return out
}

// The typed entries the kernel tables hold. Int8 outputs carry the layer's
// output scale (conv, fc) or their input's (pool).

func convForwardRef(in Tensor, g geom, l *nn.Layer, wts *convWeights, par int) Tensor {
	return ftensor(convRef[float32, float32](in.Data, in.C, in.H, in.W, g, l, &wts.fparams, par))
}

func qconvForwardRef(in QTensor, g geom, l *nn.Layer, qw *qconvWeights, par int) QTensor {
	return qtensor(convRef[int8, int32](in.Data, in.C, in.H, in.W, g, l, &qw.qparams, par), qw.scale)
}

func poolForwardRef(in Tensor, g geom, l *nn.Layer, par int) Tensor {
	return ftensor(poolRef(&fpool, in.Data, in.C, in.H, in.W, g, l, par))
}

func qpoolForwardRef(in QTensor, g geom, l *nn.Layer, par int) QTensor {
	return qtensor(poolRef(&qpool, in.Data, in.C, in.H, in.W, g, l, par), in.Scale)
}

func fcForwardRef(in Tensor, l *nn.Layer, wts *fcWeights, par int) Tensor {
	return ftensor(fcRef[float32, float32](in.Data, l.OutF, l.Act, &wts.fparams, par))
}

func qfcForwardRef(in QTensor, l *nn.Layer, qw *qparams, par int) QTensor {
	return qtensor(fcRef[int8, int32](in.Data, l.OutF, l.Act, qw, par), qw.scale)
}
