package tensor

// Portable wrappers over the per-architecture int8 vector kernels. Each
// wrapper runs the asm tile over the largest prefix its alignment and
// read-ahead contract allows and finishes with the scalar loop that is the
// behavioural reference; because int32 accumulation wraps associatively,
// the split produces bit-identical accumulators to an all-scalar sweep, on
// every architecture and for every split point.

// simdQuant gates the vectorized int8 kernel surface (the pointwise tile has
// its own variant table, see qpointwise.go).
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

// macRows4 accumulates acc[r*accStride+i] += w[r]*src[i*sw] for r in
// [0,4), i in [0,n). acc holds 4 rows at accStride; w must have 4 entries
// of int8-range magnitude — they are unpacked quantized weights, and the
// vector tiles multiply them through int16 lanes. src must have at least
// (n-1)*sw+1 readable bytes.
func macRows4(acc []int32, accStride int, src []int8, w []int32, sw, n int) {
	i := 0
	switch {
	case simdQuant && sw == 1 && n >= 8:
		m := n &^ 7
		qmacRows4(&acc[0], accStride, &src[0], &w[0], m)
		i = m
	case simdQuant && sw == 2 && n >= 8:
		// Each vector step loads 16 bytes; the scalar contract only
		// guarantees 2n-1, so shave blocks until the last 16-byte load
		// stays inside the span the caller owns.
		m := n &^ 7
		for m > 0 && 2*m > len(src) {
			m -= 8
		}
		if m > 0 {
			qmacRows4S2(&acc[0], accStride, &src[0], &w[0], m)
			i = m
		}
	}
	w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
	a1 := acc[accStride:]
	a2 := acc[2*accStride:]
	a3 := acc[3*accStride:]
	for ; i < n; i++ {
		v := int32(src[i*sw])
		acc[i] += w0 * v
		a1[i] += w1 * v
		a2[i] += w2 * v
		a3[i] += w3 * v
	}
}

// simdMac3 gates the fused 3-tap conv row kernel; only architectures where
// pairing taps through a widening int16 multiply beats the per-tap sweep
// implement it (amd64, where VPMULLD is the bottleneck).
var simdMac3 = simdMac3Available()

// mac3Rows4 accumulates the fused dense stride-1 3-tap sweep
// acc[r*accStride+i] += w[x*4+r]*src[i+x] for r in [0,4), x in [0,3),
// i in [0,n) — w is one kernel row of the tap-major packed32 layout, so
// each entry is int8-range (the amd64 tile packs tap pairs into int16
// lanes for VPMADDWD). src must have n+2 readable bytes.
func mac3Rows4(acc []int32, accStride int, src []int8, w []int32, n int) {
	i := 0
	if simdMac3 && n >= 16 {
		m := n &^ 15
		qmac3Rows4(&acc[0], accStride, &src[0], &w[0], m)
		i = m
	}
	a1 := acc[accStride:]
	a2 := acc[2*accStride:]
	a3 := acc[3*accStride:]
	for ; i < n; i++ {
		v0, v1, v2 := int32(src[i]), int32(src[i+1]), int32(src[i+2])
		acc[i] += w[0]*v0 + w[4]*v1 + w[8]*v2
		a1[i] += w[1]*v0 + w[5]*v1 + w[9]*v2
		a2[i] += w[2]*v0 + w[6]*v1 + w[10]*v2
		a3[i] += w[3]*v0 + w[7]*v1 + w[11]*v2
	}
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
