package tensor

import "pico/internal/nn"

// Portable wrappers over the per-architecture float32 vector kernels. Unlike
// the int8 surface, float addition is not associative, so the tiles cannot
// reorder anything: every vector lane holds an INDEPENDENT output element
// (an output column, feature or channel) and accumulates its taps in exactly
// the scalar kernel's order. Each wrapper runs the asm tile over the largest
// aligned prefix and finishes with the scalar loop that is the behavioural
// reference, so the split point never changes a single output bit.
//
// The per-architecture contract is "bit-identical to scalar Go on the same
// architecture": amd64 tiles use separate VMULPS/VADDPS because gc at the
// default GOAMD64 level rounds the multiply and add separately, while arm64
// tiles use fused FMLA because gc on arm64 fuses x*y + z into FMADD. See
// DESIGN.md §6.

// simdFloat gates the vectorized float32 kernel surface.
var simdFloat = simdFloatAvailable()

// FloatSIMD reports whether the host runs the vectorized float32 kernels.
// Benchmark artefacts record it alongside SIMDName: scalar-float hosts
// measure very different absolute times and must not be compared against
// vector ones.
func FloatSIMD() bool { return simdFloat }

// dw3RowF accumulates the fused 3-tap depthwise sweep acc[i] += w[0]*src[i]
// + w[1]*src[i+1] + w[2]*src[i+2] over i in [0,n), chained in ascending tap
// order per element. src must have n+2 readable float32s; w[3] is padding
// for the vector broadcast.
func dw3RowF(acc []float32, src []float32, w *[4]float32, n int) {
	i := 0
	if simdFloat && n >= 8 {
		m := n &^ 7
		fdw3Row(&acc[0], &src[0], &w[0], m)
		i = m
	}
	w0, w1, w2 := w[0], w[1], w[2]
	for ; i < n; i++ {
		v := acc[i] + w0*src[i]
		v += w1 * src[i+1]
		v += w2 * src[i+2]
		acc[i] = v
	}
}

// macRowF accumulates dst[i] += w*src[i] over equal-length dst and src — the
// single-row saxpy behind convRow's stride-1 spans. One mul and one add per
// element, so vector lanes change nothing.
func macRowF(dst, src []float32, w float32) {
	i := 0
	if n := len(dst); simdFloat && n >= 8 {
		m := n &^ 7
		fmacRow(&dst[0], &src[0], w, m)
		i = m
	}
	for ; i < len(dst); i++ {
		dst[i] += w * src[i]
	}
}

// maxPairRowF computes one output row of an unpadded 2x2 stride-2 float max
// pool: dst[i] folds a[2i], a[2i+1], b[2i], b[2i+1] into a negInf-seeded
// accumulator with the scalar kernel's `if v > acc` semantics (NaNs and
// signed-zero ties keep the accumulator). a and b must have 2n readable
// float32s.
func maxPairRowF(dst []float32, a, b []float32, n int) {
	i := 0
	if simdFloat && n >= 8 {
		m := n &^ 7
		fmaxPair8(&dst[0], &a[0], &b[0], m)
		i = m
	}
	for ; i < n; i++ {
		v := negInf
		if a[2*i] > v {
			v = a[2*i]
		}
		if a[2*i+1] > v {
			v = a[2*i+1]
		}
		if b[2*i] > v {
			v = b[2*i]
		}
		if b[2*i+1] > v {
			v = b[2*i+1]
		}
		dst[i] = v
	}
}

// gapSum8F sums 8 channel spans at once: dst[c] = sum over i in [0,n) of
// src[c*chanStride+i], each channel folding its elements in ascending order
// from 0 exactly like the scalar loop (lanes are channels; an 8x8 transpose
// feeds 8 sequential adds per block). The scalar tail continues each
// channel's chain past the vector prefix.
func gapSum8F(dst *[8]float32, src []float32, chanStride, n int) {
	i := 0
	if simdFloat && n >= 8 {
		m := n &^ 7
		fgapSum8(&dst[0], &src[0], chanStride, m)
		i = m
	} else {
		for c := range dst {
			dst[c] = 0
		}
	}
	for c := 0; c < 8; c++ {
		acc := dst[c]
		for _, v := range src[c*chanStride+i : c*chanStride+n] {
			acc += v
		}
		dst[c] = acc
	}
}

// finishRowF applies the folded batch-norm affine (when bn) and the
// activation to one finished float output row. The vector tile replicates
// the per-architecture scalar rounding — separate multiply/add on amd64,
// fused FMLA on arm64 — and selects activations with compare+mask so NaN
// and -0 elements keep their bits; the scalar tail below is the
// behavioural reference.
func finishRowF(acc []float32, scale, shift float32, bn bool, act nn.Activation) {
	if simdFloat {
		if m := len(acc) &^ 7; m >= 8 {
			bnFlag := 0
			if bn {
				bnFlag = 1
			}
			fepiRow(&acc[0], scale, shift, bnFlag, actCode(act), m)
			acc = acc[m:]
		}
	}
	if bn {
		for i := range acc {
			acc[i] = acc[i]*scale + shift
		}
	}
	applyActivation(acc, act)
}
