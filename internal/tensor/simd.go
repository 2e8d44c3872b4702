package tensor

import "pico/internal/nn"

// Portable wrappers over the amd64 vector kernels of both dtypes. Each runs
// the asm tile over the largest prefix its alignment and read-ahead contract
// allows and finishes with the scalar loop that is the behavioural reference,
// so the split never changes an output bit: int32 sums wrap associatively,
// and a float32 tile reorders nothing — each lane is an independent output
// element chaining its taps in the scalar order, each tap rounded once
// (VFMADD231PS, the scalar fma32; DESIGN.md §6). Every other architecture,
// and amd64 under the purego tag, runs the scalar loops alone.

// simdQuant gates the vectorized int8 kernel surface (the GEMM tile has its
// own variant table, see gemm.go).
var simdQuant = vectorAvailable()

// SIMDName names the GEMM tiles the host runs, float32's then int8's
// ("avx512/avx2+vnni", "avx512/avx2", "avx2/avx2"), or "" for pure scalar.
// Benchmark artefacts record it: hosts that differ here must not be compared
// against each other.
func SIMDName() string {
	if len(fpwVariants) == 1 && len(qpwVariants) == 1 {
		return ""
	}
	return fpwVariants[0].name + "/" + qpwVariants[0].name
}

// maxPairRow computes dst[i] = max(a[2i], a[2i+1], b[2i], b[2i+1]) for i in
// [0,n) — one output row of a 2x2 stride-2 max pool. a and b must have 2n
// readable bytes.
func maxPairRow(dst []int8, a, b []int8, n int) {
	i := 0
	if simdQuant && n >= 8 {
		m := n &^ 7
		qmaxPair8(&dst[0], &a[0], &b[0], m)
		i = m
	}
	for ; i < n; i++ {
		v := a[2*i]
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

// dotI8 returns sum over i of a[i]*b[i] in wrapping int32.
func dotI8(a, b []int8) int32 {
	n := len(a)
	var acc int32
	i := 0
	if simdQuant && n >= 16 {
		m := n &^ 15
		acc = qdotKernel(&a[0], &b[0], m)
		i = m
	}
	for ; i < n; i++ {
		acc += int32(a[i]) * int32(b[i])
	}
	return acc
}

// qones is the all-ones operand that turns dotI8 into a vector sum for the
// global-average-pool reduction.
var qones = func() []int8 {
	s := make([]int8, 1024)
	for i := range s {
		s[i] = 1
	}
	return s
}()

// sumI8 returns the wrapping int32 sum of xs.
func sumI8(xs []int8) int32 {
	var acc int32
	for len(xs) >= 16 && simdQuant {
		k := len(xs)
		if k > len(qones) {
			k = len(qones)
		}
		m := k &^ 15
		acc += qdotKernel(&xs[0], &qones[0], m)
		xs = xs[m:]
	}
	for _, v := range xs {
		acc += int32(v)
	}
	return acc
}

// simdFloat gates the vectorized float32 kernel surface.
var simdFloat = vectorAvailable()

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
// activation to one finished float output row. An epilogue, not a MAC chain:
// the multiply and the add round separately (the float32() conversion keeps
// gc from fusing them), in the vector tile as here, which selects activations
// with compare+mask so NaN and -0 elements keep their bits; the scalar tail
// below is the behavioural reference.
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
			acc[i] = float32(acc[i]*scale) + shift
		}
	}
	applyActivation(acc, act)
}
