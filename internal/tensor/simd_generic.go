//go:build !amd64 || purego

package tensor

// Every architecture but amd64 — and amd64 under the purego tag, which is how
// `make purego` runs this path's tests on an amd64 host — takes the portable
// scalar kernels; the gates below keep every call site compiled and
// unreachable.

func vectorAvailable() bool { return false }

// qpwArchVariants is empty: the GEMM driver runs the portable int8 tile.
func qpwArchVariants() []*qpwVariant { return nil }

func qmaxPair8(dst *int8, a, b *int8, n int) {
	panic("tensor: qmaxPair8 without SIMD support")
}

func qdotKernel(a, b *int8, n int) int32 {
	panic("tensor: qdotKernel without SIMD support")
}

func qrequantRow8(dst *int8, acc *int32, scale, bias float32, act, n int) {
	panic("tensor: qrequantRow8 without SIMD support")
}

func qquantizeRow8(dst *int8, src *float32, inv float32, n int) {
	panic("tensor: qquantizeRow8 without SIMD support")
}

func fmaxPair8(dst *float32, a, b *float32, n int) {
	panic("tensor: fmaxPair8 without SIMD support")
}

func fpwPack(dst, src *float32, chanStride, k, tiles int) {
	panic("tensor: fpwPack without SIMD support")
}

// fpwArchVariants is empty: the GEMM driver runs the portable float tile.
func fpwArchVariants() []*fpwVariant { return nil }

// dwArchVariants is empty: the depthwise walkers run the portable tiles.
func dwArchVariants() []*dwVariant { return nil }

func ffcPanel16(dst *float32, panel *float32, src *float32, bias *float32, n int) {
	panic("tensor: ffcPanel16 without SIMD support")
}

func fgapSum8(dst *float32, src *float32, chanStride, n int) {
	panic("tensor: fgapSum8 without SIMD support")
}

func fepiRow(dst *float32, scale, shift float32, bn, act, n int) {
	panic("tensor: fepiRow without SIMD support")
}
