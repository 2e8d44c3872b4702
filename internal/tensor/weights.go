package tensor

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"

	"pico/internal/nn"
)

// fparams are a float layer's parameters as every kernel reads them: the
// kernel (a convolution's [outC][icg][kh][kw], a fully connected layer's
// [outF][inElems]), the bias and the optional folded batch-norm affine, per
// output channel, applied after the accumulation.
type fparams struct {
	w       []float32
	bias    []float32
	bnScale []float32
	bnShift []float32
}

// convWeights holds one convolution's parameters and the layouts its
// kernels read.
type convWeights struct {
	fparams

	// packed is the register-tile plan: group g's i-th block of up to fpwMR
	// output channels, from g*ocg+i*fpwMR on, is packed[g*obg+i] (obg =
	// ceil(ocg/fpwMR), ocg = OutC/groups): its tap-major weight panel, whose
	// row k = (ic*KH+kh)*KW+kw is the gathered panel's. A panel is built only
	// for a block without a zero weight: the tile applies every tap in
	// ascending k, the reference's order, but never skips one. A sparse
	// block's is nil; the driver sweeps its channels one at a time over the
	// same panel, skipping zero weights.
	packed [][]float32

	// padExact records that the padding zeros the GEMM driver gathers and
	// multiplies — taps the reference skips — are exact no-ops: trivially
	// for an unpadded layer, else by the padded-tap contract (padTapsExact;
	// DESIGN.md §6). Generated weights always hold it; convForward routes a
	// layer without it to convForwardRef.
	padExact bool
}

// pack builds the register-tile plan and records padExact. A ragged block's
// tile reads a whole block of biases and batch-norm affine: those get that
// spare capacity. Groups narrower than a block (depthwise) stay unpacked: a
// tile would compute mostly padding, and their plane walker reads w.
func (cw *convWeights) pack(l *nn.Layer, icg int) {
	cw.padExact = l.PH == 0 && l.PW == 0 || padTapsExact(cw.w, cw.bias)
	cw.bias = slices.Grow(cw.bias, fpwMR-1)
	if cw.bnScale != nil {
		cw.bnScale, cw.bnShift = slices.Grow(cw.bnScale, fpwMR-1), slices.Grow(cw.bnShift, fpwMR-1)
	}
	groups := max(l.Groups, 1)
	ocg, perOC := l.OutC/groups, icg*l.KH*l.KW
	cw.packed = cw.packed[:0]
	for g := 0; g < groups; g++ {
		for oc0 := g * ocg; oc0 < (g+1)*ocg; oc0 += fpwMR {
			width, panel := min(fpwMR, (g+1)*ocg-oc0), []float32(nil)
			if ocg >= fpwMR && !hasZero(cw.w[oc0*perOC:(oc0+width)*perOC]) {
				panel = make([]float32, perOC*fpwMR) // panel[i*fpwMR+b] = w[oc0+b][i], zero for b >= width
				for b := 0; b < width; b++ {
					for i, v := range cw.w[(oc0+b)*perOC:][:perOC] {
						panel[i*fpwMR+b] = v
					}
				}
			}
			cw.packed = append(cw.packed, panel)
		}
	}
}

// padTapsExact reports the padded-tap contract: every weight finite (w*0 is
// then ±0), no bias -0 (an accumulator seeded otherwise is never -0, so
// adding ±0 leaves it as is) or NaN (a signalling one would be quieted by the
// first gathered zero of an all-padding window, where the reference stores
// it untouched).
func padTapsExact(w, bias []float32) bool {
	for _, v := range w {
		if v-v != 0 { // NaN for ±Inf and NaN, +0 for every finite v
			return false
		}
	}
	for _, b := range bias {
		if b != b || b == 0 && math.Signbit(float64(b)) {
			return false
		}
	}
	return true
}

// hasZero reports whether any weight is zero — a tap the reference skips,
// which a dense tile would instead add as a zero product.
func hasZero(w []float32) bool {
	for _, v := range w {
		if v == 0 {
			return true
		}
	}
	return false
}

// fcWeights holds a fully connected layer's parameters (no batch norm).
type fcWeights struct {
	fparams

	// panels, when non-nil, repacks the first OutF&^15 weight rows
	// transposed in 16-feature panels for the vector fc kernel:
	//
	//	panels[(p*inElems+i)*16 + l] = w[(16*p+l)*inElems + i]
	//
	// so each input element's 16 per-feature weights are contiguous. Lanes
	// are output features; each feature's dot product still sums elements
	// in ascending order, so the panel kernel is bit-identical to the row
	// sweep. Built only on hosts with float SIMD.
	panels []float32
}

// weightRNG derives a deterministic random stream for a layer key: the same
// (seed, key) pair yields identical weights in any process, which is how
// distributed workers materialise the model without shipping parameters.
func weightRNG(seed int64, key string) *weightStream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return newWeightStream(rand.NewSource(seed ^ int64(h.Sum64())).(rand.Source64))
}

// weightStream is a math/rand source's stream, drawn without a call through
// the Source interface per value. The source is an additive lagged Fibonacci
// generator: its n-th output is x[n] = x[n-607] + x[n-273] mod 2^64.
// newWeightStream draws the source's first 607 outputs and runs the
// recurrence backwards to the 607 values before them; next runs it forwards,
// so it returns what the source would, bit for bit.
type weightStream struct {
	// vec[n%streamLag] holds x[n-607] before draw n and x[n] after it.
	vec [streamLag]uint64
	i   int // n % streamLag for the next draw n
}

const streamLag, streamTap = 607, 273

func newWeightStream(src rand.Source64) *weightStream {
	var x [streamLag]uint64
	for n := range x {
		x[n] = src.Uint64()
	}
	s := &weightStream{}
	// x[n-607] = x[n] - x[n-273]: for n >= 273 both are drawn values; below,
	// x[n-273] is itself a value before the stream, already recovered into
	// slot n-273+607.
	for n := streamLag - 1; n >= 0; n-- {
		if n >= streamTap {
			s.vec[n] = x[n] - x[n-streamTap]
		} else {
			s.vec[n] = x[n] - s.vec[n+streamLag-streamTap]
		}
	}
	return s
}

// next returns the source's next Uint64; its Int63 is the low 63 bits.
func (s *weightStream) next() uint64 {
	i := s.i
	j := i + streamLag - streamTap // slot of x[n-273]
	if j >= streamLag {
		j -= streamLag
	}
	x := s.vec[i] + s.vec[j]
	s.vec[i] = x
	if i++; i == streamLag {
		i = 0
	}
	s.i = i
	return x
}

// unit is rand.Rand.Float32 over the source: Int63 / 2^63 rounded to
// float32, redrawn while it lands on 1. That one retry is Float32's and
// Float64's both — a float64 of exactly 1 rounds to a float32 of 1 — and
// each redraw consumes one Int63, as theirs do.
func (s *weightStream) unit() float32 {
	for {
		if f := float32(float64(s.next()&(1<<63-1)) / (1 << 63)); f < 1 {
			return f
		}
	}
}

// genParams generates n output channels of fanIn weights each: LeCun-uniform
// weights (scale weightScale(fanIn)), then zero-mean small biases and, with
// bn, a mild batch-norm affine (genTail), keeping activations numerically
// stable through deep stacks. Every parameter is (u*2-1)*c for u in [0, 1)
// and a finite c > 0: finite, and never -0 — u*2-1 is +0 only when u*2 is
// exactly 1, since x-x is +0 in round-to-nearest — so the padded-tap contract
// (padExact) holds by construction.
func genParams(seed int64, key string, n, fanIn int, bn bool) fparams {
	rng := weightRNG(seed, key)
	w := uniform(rng, make([]float32, n*fanIn), weightScale(fanIn))
	p := genTail(rng, n, bn)
	p.w = w
	return p
}

// weightScale is the LeCun-uniform weight bound for a fan-in.
func weightScale(fanIn int) float32 { return float32(math.Sqrt(3.0 / float64(fanIn))) }

// genTail draws what follows a layer's weights in its stream: n biases and,
// with bn, n (scale, shift) pairs.
func genTail(rng *weightStream, n int, bn bool) fparams {
	p := fparams{bias: uniform(rng, make([]float32, n), 0.01)}
	if bn {
		p.bnScale, p.bnShift = make([]float32, n), make([]float32, n)
		for i := range p.bnScale {
			p.bnScale[i] = 0.8 + float32(rng.unit()*0.4) // ~N(1, small); the product rounds alone on every arch
			p.bnShift[i] = (rng.unit()*2 - 1) * 0.05
		}
	}
	return p
}

// uniform fills xs with (u*2-1)*c, u drawn by rng.unit, and returns it.
func uniform(rng *weightStream, xs []float32, c float32) []float32 {
	for i := range xs {
		xs[i] = (rng.unit()*2 - 1) * c
	}
	return xs
}

// genConvParams generates a convolution's parameters alone, without the plan
// genConv adds.
func genConvParams(seed int64, key string, l *nn.Layer, inC int) *convWeights {
	return &convWeights{fparams: genParams(seed, key, l.OutC, inC/max(l.Groups, 1)*l.KH*l.KW, l.BatchNorm)}
}

// genConv generates a convolution's parameters and the register-tile plan
// the float GEMM driver reads.
func genConv(seed int64, key string, l *nn.Layer, inC int) *convWeights {
	cw := genConvParams(seed, key, l, inC)
	cw.pack(l, inC/max(l.Groups, 1))
	return cw
}

// genFCParams generates a fully connected layer's parameters alone.
func genFCParams(seed int64, key string, l *nn.Layer, inElems int) *fcWeights {
	return &fcWeights{fparams: genParams(seed, key, l.OutF, inElems, false)}
}

// genFC generates a fully connected layer's parameters and, on hosts with
// float SIMD, the panels the vector kernel reads.
func genFC(seed int64, key string, l *nn.Layer, inElems int) *fcWeights {
	fw := genFCParams(seed, key, l, inElems)
	if nf := l.OutF &^ 15; simdFloat && nf > 0 && inElems > 0 {
		fw.panels = make([]float32, nf*inElems)
		for p := 0; p < nf/16; p++ {
			for i := 0; i < inElems; i++ {
				for lane := 0; lane < 16; lane++ {
					fw.panels[(p*inElems+i)*16+lane] = fw.w[(16*p+lane)*inElems+i]
				}
			}
		}
	}
	return fw
}

// RandomInput generates a deterministic input tensor for the given shape —
// the synthetic stand-in for camera frames and the 64x64 MNIST-style inputs
// of the paper's toy experiments.
func RandomInput(s nn.Shape, seed int64) Tensor {
	t := New(s.C, s.H, s.W)
	uniform(weightRNG(seed, "input"), t.Data, 1)
	return t
}
