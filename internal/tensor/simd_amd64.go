//go:build !purego

package tensor

import "pico/internal/nn"

// probeCPU reports whether the CPU and OS support AVX2 with FMA3, on top of
// it 512-bit registers (AVX512F with opmask and ZMM state enabled), and on
// top of those the VPDPBUSD tile (AVX512VL+VNNI); see simd_amd64.s.
func probeCPU() (avx2, avx512, vnni bool)

// hasAVX2 gates every vector kernel on amd64, hasAVX512 the ZMM float
// pointwise tile, hasVNNI the dot-product int8 one. The scalar kernels are the
// contract; the tiles compute the identical values — wrapping int32
// accumulators, float lanes chained in the scalar order, one fused
// multiply-add (fma32) per tap — so enabling them never changes an output
// bit: the property tests run every variant against the reference.
var hasAVX2, hasAVX512, hasVNNI = probeCPU()

// qpwPack is the vector form of qpwPackPortable (see simd_amd64.s).
//
//go:noescape
func qpwPack(panel *uint8, src *int8, chanStride, k, tiles, nr int)

// qpwTileAVX2 and qpwTileVNNI are the packed-panel GEMM tiles: 8 channels x
// 16 columns with VPMADDWD+VPADDD over exactly widened quads as the MAC
// step, resp. 8 x 32 with VPDPBUSD; requantize epilogue fused (see
// simd_amd64.s).
//
//go:noescape
func qpwTileAVX2(dst *int8, dstStride int, panel *uint8, wgt, seed *int32, quads, tiles int, scale, bias *float32, act int)

//go:noescape
func qpwTileVNNI(dst *int8, dstStride int, panel *uint8, wgt, seed *int32, quads, tiles int, scale, bias *float32, act int)

// qpwArchVariants lists the GEMM tiles this CPU runs, fastest first. Both
// share the pack routine, the panel and the weight layout.
func qpwArchVariants() []*qpwVariant {
	var vs []*qpwVariant
	asm := func(name string, nr int, k func(*int8, int, *uint8, *int32, *int32, int, int, *float32, *float32, int)) {
		vs = append(vs, &qpwVariant{name: name, nr: nr,
			pack: func(a *qpwCols, tiles int) { qpwPack(&a.panel[0], &a.src[0], a.rowStride, a.k, tiles, nr) },
			tile: func(dst []int8, dstStride int, a *qpwCols, qw *qconvWeights, ob, oc0, tiles int, act nn.Activation) {
				quads := nquads(a.k)
				k(&dst[0], dstStride, &a.panel[0], &qw.pw[ob*quads*qpwMR], &qw.seed[oc0 : oc0+qpwMR][0], quads, tiles,
					&qw.effScale[oc0 : oc0+qpwMR][0], &qw.effBias[oc0 : oc0+qpwMR][0], actCode(act))
			}})
	}
	if hasVNNI {
		asm("avx2+vnni", 32, qpwTileVNNI)
	}
	if hasAVX2 {
		asm("avx2", 16, qpwTileAVX2)
	}
	return vs
}

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

// vectorAvailable reports whether the AVX2 kernels of both dtypes outside
// the GEMM variant tables (depthwise tiles, pool, fc, global pool, the
// epilogues and the quantizer) run on this host. Their float MAC chains use
// VFMADD231PS/SS, rounded once like fma32, and their epilogues separate
// VMULPS/VADDPS, like the Go forms' float32(x*y) + z, so enabling them never
// changes an output bit.
func vectorAvailable() bool { return hasAVX2 }

// fdw3x3S1 and fdw3x3S2 are the float32 fused 3x3 depthwise tiles for column
// stride 1 and 2 (see simd_amd64.s).
//
//go:noescape
func fdw3x3S1(dst, in *float32, off, rowStride, ih, inH int, w *float32, bias float32, n, left, right, rows, sh, outW int)

//go:noescape
func fdw3x3S2(dst, in *float32, off, rowStride, ih, inH int, w *float32, bias float32, n, left, right, rows, sh, outW int)

// qdw3x3S1 and qdw3x3S2 are the int8 fused 3x3 depthwise tiles for column
// stride 1 and 2, requantize epilogue fused (see simd_amd64.s).
//
//go:noescape
func qdw3x3S1(dst, in *int8, off, rowStride, ih, inH int, w *int8, cols, left, right, rows, sh, outW int, scale, bias float32, act int)

//go:noescape
func qdw3x3S2(dst, in *int8, off, rowStride, ih, inH int, w *int8, cols, left, right, rows, sh, outW int, scale, bias float32, act int)

// fmaxPair8 reduces a 2x2 stride-2 float max-pool row pair
// (see simd_amd64.s).
//
//go:noescape
func fmaxPair8(dst *float32, a, b *float32, n int)

// fpwTile16 and fpwTile32 compute a bias-seeded 4-channel x 16-column (YMM)
// resp. x 32-column (ZMM) float pointwise accumulator tile (see simd_amd64.s).
//
//go:noescape
func fpwTile16(acc *float32, accStride int, src *float32, chanStride int, wgt *float32, bias *float32, inC int)

//go:noescape
func fpwTile32(acc *float32, accStride int, src *float32, chanStride int, wgt *float32, bias *float32, inC int)

// fpwArchVariants lists the float pointwise tiles this CPU runs, fastest
// first. Both read ocBlock.packed as is.
func fpwArchVariants() []*fpwVariant {
	var vs []*fpwVariant
	if hasAVX512 {
		vs = append(vs, fpwAsm("avx512", 32, fpwTile32))
	}
	if hasAVX2 {
		vs = append(vs, fpwAsm("avx2", 16, fpwTile16))
	}
	return vs
}

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

// fepiRow is the vector batch-norm + activation epilogue for one finished
// float output row (see simd_amd64.s).
//
//go:noescape
func fepiRow(dst *float32, scale, shift float32, bn, act, n int)
