//go:build amd64

package tensor

// probeAVX2 reports whether the CPU and OS support AVX2 (see simd_amd64.s).
func probeAVX2() bool

// hasAVX2 gates the vectorized int8 pointwise tile. The scalar kernels are
// the behavioural contract; the AVX2 tile computes the identical int32
// accumulators (wrap-around multiply/add), so enabling it never changes a
// single output bit — the property tests run both against the reference.
var hasAVX2 = probeAVX2()

// qpwTile16 computes a 4-channel x 16-column pointwise accumulator tile
// (see simd_amd64.s for the exact contract).
//
//go:noescape
func qpwTile16(acc *int32, src *int8, wgt *int32, inC, chanStride int)

// qpwTilePair16 is the channel-paired VPMADDWD form of qpwTile16; it
// consumes input channels two at a time (see simd_amd64.s).
//
//go:noescape
func qpwTilePair16(acc *int32, src *int8, wpair *int32, pairs, chanStride int)

// qmacRows4 accumulates acc[r*accStride+i] += wgt[r]*src[i] for four rows
// (see simd_amd64.s).
//
//go:noescape
func qmacRows4(acc *int32, accStride int, src *int8, wgt *int32, n int)

// qmacRows4S2 is the stride-2 form: acc[r*accStride+i] += wgt[r]*src[2*i]
// (see simd_amd64.s).
//
//go:noescape
func qmacRows4S2(acc *int32, accStride int, src *int8, wgt *int32, n int)

// qmac3Rows4 is the fused dense stride-1 3-tap form of qmacRows4 for
// 3-wide kernel rows (see simd_amd64.s).
//
//go:noescape
func qmac3Rows4(acc *int32, accStride int, src *int8, wgt *int32, n int)

// simdMac3Available reports whether the fused 3-tap conv row kernel runs
// on this host.
func simdMac3Available() bool { return hasAVX2 }

// qdw3Row fuses the three depthwise taps of one stride-1 row sweep
// (see simd_amd64.s).
//
//go:noescape
func qdw3Row(acc *int32, src *int8, wgt *int32, n int)

// qmaxPair8 reduces a 2x2 stride-2 max-pool row pair (see simd_amd64.s).
//
//go:noescape
func qmaxPair8(dst *int8, a, b *int8, n int)

// qdotKernel is the int8 dot product over n elements (see simd_amd64.s).
//
//go:noescape
func qdotKernel(a, b *int8, n int) int32

// qrequantRow8 is the vector requantize+activation epilogue
// (see simd_amd64.s).
//
//go:noescape
func qrequantRow8(dst *int8, acc *int32, scale, bias float32, act, n int)

// qquantizeRow8 is the vector float32 -> int8 input quantizer
// (see simd_amd64.s).
//
//go:noescape
func qquantizeRow8(dst *int8, src *float32, inv float32, n int)

// simdQuantAvailable reports whether the vectorized int8 kernel surface
// (conv row blocks, depthwise taps, pool, fc dot) runs on this host.
func simdQuantAvailable() bool { return hasAVX2 }

// simdName identifies the active vector ISA in benchmark artefacts.
func simdName() string {
	if hasAVX2 {
		return "avx2"
	}
	return ""
}

// qpwTileDispatch computes one 4-channel x 16-column pointwise tile using
// the best kernel for this architecture. On amd64 that is the VPMADDWD
// channel-pair tile: it covers the even channel count and the Go tail
// folds in an odd trailing channel — wrap-around int32 addition makes the
// split bit-identical to the scalar channel sweep.
func qpwTileDispatch(tile *[ocBlockWidth * qpwTileCols]int32, src []int8, blk *qocBlock, inC, chanStride int) {
	pairs := inC >> 1
	if pairs > 0 {
		qpwTilePair16(&tile[0], &src[0], &blk.packedPair[0], pairs, chanStride)
	} else {
		for i := range tile {
			tile[i] = 0
		}
	}
	if inC&1 == 1 {
		g := inC - 1
		s := src[g*chanStride:]
		w := blk.packed32[g*ocBlockWidth : g*ocBlockWidth+ocBlockWidth]
		for b := 0; b < ocBlockWidth; b++ {
			wb := w[b]
			d := tile[b*qpwTileCols : (b+1)*qpwTileCols]
			for j := range d {
				d[j] += wb * int32(s[j])
			}
		}
	}
}

// pointwiseSIMDAvailable reports whether the vector pointwise path can run
// for a strip of n flattened output columns.
func pointwiseSIMDAvailable(n int) bool { return hasAVX2 && n >= qpwTileCols }

// simdFloatAvailable reports whether the vectorized float32 kernel surface
// runs on this host. The AVX2 float tiles use separate VMULPS/VADDPS — the
// same two roundings gc emits for x*y + z at the default GOAMD64 level — so
// enabling them never changes an output bit.
func simdFloatAvailable() bool { return hasAVX2 }

// fmacRows4 accumulates acc[r*accStride+i] += wgt[r]*src[i] for four float32
// rows (see simd_amd64.s).
//
//go:noescape
func fmacRows4(acc *float32, accStride int, src *float32, wgt *float32, n int)

// fmacRows4S2 is the stride-2 form: acc[r*accStride+i] += wgt[r]*src[2*i]
// (see simd_amd64.s).
//
//go:noescape
func fmacRows4S2(acc *float32, accStride int, src *float32, wgt *float32, n int)

// fmac3Rows4 is the fused dense stride-1 3-tap form of fmacRows4 for 3-wide
// kernel rows (see simd_amd64.s).
//
//go:noescape
func fmac3Rows4(acc *float32, accStride int, src *float32, wgt *float32, n int)

// fdw3Row fuses the three float depthwise taps of one stride-1 row sweep
// (see simd_amd64.s).
//
//go:noescape
func fdw3Row(acc *float32, src *float32, wgt *float32, n int)

// simdDW3x3Available reports whether the fused 3x3 depthwise row tiles run on
// this host.
func simdDW3x3Available() bool { return hasAVX2 }

// fdw3x3S1 and fdw3x3S2 are the float32 fused 3x3 depthwise row tiles for
// column stride 1 and 2 (see simd_amd64.s).
//
//go:noescape
func fdw3x3S1(dst, src *float32, rowStride, nrows int, w *float32, bias float32, n, left, right int)

//go:noescape
func fdw3x3S2(dst, src *float32, rowStride, nrows int, w *float32, bias float32, n, left, right int)

// qdw3x3S1 and qdw3x3S2 are the int8 fused 3x3 depthwise row tiles for column
// stride 1 and 2 (see simd_amd64.s).
//
//go:noescape
func qdw3x3S1(dst *int32, src *int8, rowStride, nrows int, w *int32, seed int32, n, left, right int)

//go:noescape
func qdw3x3S2(dst *int32, src *int8, rowStride, nrows int, w *int32, seed int32, n, left, right int)

// fmacRow is the single-row float saxpy dst[i] += w*src[i]
// (see simd_amd64.s).
//
//go:noescape
func fmacRow(dst *float32, src *float32, w float32, n int)

// fmaxPair8 reduces a 2x2 stride-2 float max-pool row pair
// (see simd_amd64.s).
//
//go:noescape
func fmaxPair8(dst *float32, a, b *float32, n int)

// fpwTile16 computes a bias-seeded 4-channel x 16-column float pointwise
// accumulator tile directly into the output (see simd_amd64.s).
//
//go:noescape
func fpwTile16(acc *float32, accStride int, src *float32, chanStride int, wgt *float32, bias *float32, inC int)

// ffcPanel16 computes 16 fully-connected output features from a transposed
// weight panel (see simd_amd64.s).
//
//go:noescape
func ffcPanel16(dst *float32, panel *float32, src *float32, bias *float32, n int)

// fgapSum8 sums 8 channel spans for the global-average-pool reduction
// (see simd_amd64.s).
//
//go:noescape
func fgapSum8(dst *float32, src *float32, chanStride, n int)

// PointwiseSIMD reports whether the host runs the vectorized int8 pointwise
// tile. Benchmark artefacts record it: without SIMD the int8 path cannot
// beat float32 FMA and measured speedups are not comparable across hosts.
func PointwiseSIMD() bool { return hasAVX2 }

// fepiRow is the vector batch-norm + activation epilogue for one finished
// float output row (see simd_amd64.s).
//
//go:noescape
func fepiRow(dst *float32, scale, shift float32, bn, act, n int)
