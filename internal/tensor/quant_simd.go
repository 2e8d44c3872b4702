package tensor

// Portable wrappers over the per-architecture int8 vector kernels. Each
// wrapper runs the asm tile over the largest prefix its alignment and
// read-ahead contract allows and finishes with the scalar loop that is the
// behavioural reference; because int32 accumulation wraps associatively,
// the split produces bit-identical accumulators to an all-scalar sweep, on
// every architecture and for every split point.

// simdQuant gates the vectorized int8 kernel surface (the GEMM tile has its
// own variant table, see qpointwise.go).
var simdQuant = simdQuantAvailable()

// SIMDName reports the vector ISA the int8 kernels run on, down to the MAC
// step of the pointwise tile ("avx2+vnni", "avx2", "neon", or "" for pure
// scalar). Benchmark artefacts record it: hosts that differ here must not be
// compared against each other.
func SIMDName() string {
	if !PointwiseSIMD() {
		return ""
	}
	return qpwVariants[0].name
}

// dw3Row accumulates the fused 3-tap depthwise sweep acc[i] += w[0]*src[i]
// + w[1]*src[i+1] + w[2]*src[i+2] over i in [0,n). src must have n+2
// readable bytes; w must have 4 int8-range entries (w[3] is padding for the
// vector broadcast; the NEON tile multiplies through int16 lanes).
func dw3Row(acc []int32, src []int8, w *[4]int32, n int) {
	i := 0
	// The NEON tile loads 16 source bytes per 8-column step, so the last
	// vector block must end 6 columns before the guaranteed n+2 bytes run
	// out; both architectures share the conservative bound.
	if simdQuant && n >= 14 {
		m := (n - 6) &^ 7
		qdw3Row(&acc[0], &src[0], &w[0], m)
		i = m
	}
	w0, w1, w2 := w[0], w[1], w[2]
	for ; i < n; i++ {
		acc[i] += w0*int32(src[i]) + w1*int32(src[i+1]) + w2*int32(src[i+2])
	}
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
