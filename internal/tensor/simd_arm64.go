//go:build arm64

package tensor

import (
	"encoding/binary"
	"os"

	"pico/internal/nn"
)

// hasNEON gates the vectorized int8 kernel surface on arm64. The scalar
// kernels remain the behavioural contract; the NEON tiles compute identical
// int32 accumulators (SMLAL widening multiply-accumulate wraps exactly like
// Go int32 for int8-range operands) and the requantize epilogue replicates
// Go's float32 op sequence instruction for instruction, so enabling them
// never changes a single output bit.
var hasNEON = probeNEON()

// probeNEON reports whether the kernel advertises Advanced SIMD support.
// ASIMD is architecturally mandatory for the ARMv8-A application profile
// Go targets, so the auxv read is a belt-and-braces check that defaults to
// true when /proc is unavailable (non-Linux, sandboxes).
func probeNEON() bool {
	data, err := os.ReadFile("/proc/self/auxv")
	if err != nil {
		return true
	}
	const atHWCAP, hwcapASIMD = 16, 1 << 1
	for i := 0; i+16 <= len(data); i += 16 {
		if binary.LittleEndian.Uint64(data[i:]) == atHWCAP {
			return binary.LittleEndian.Uint64(data[i+8:])&hwcapASIMD != 0
		}
	}
	return true
}

// qpwTile16 computes a 4-channel x 16-column pointwise accumulator tile
// (see simd_arm64.s for the exact contract).
//
//go:noescape
func qpwTile16(acc *int32, src *int8, wgt *int32, inC, chanStride int)

// qdw3Row fuses the three depthwise taps of one stride-1 row sweep
// (see simd_arm64.s).
//
//go:noescape
func qdw3Row(acc *int32, src *int8, wgt *int32, n int)

// qmaxPair8 reduces a 2x2 stride-2 max-pool row pair (see simd_arm64.s).
//
//go:noescape
func qmaxPair8(dst *int8, a, b *int8, n int)

// qdotKernel is the int8 dot product over n elements (see simd_arm64.s).
//
//go:noescape
func qdotKernel(a, b *int8, n int) int32

// qrequantRow8 is the vector requantize+activation epilogue
// (see simd_arm64.s).
//
//go:noescape
func qrequantRow8(dst *int8, acc *int32, scale, bias float32, act, n int)

// qquantizeRow8 is the vector float32 -> int8 input quantizer
// (see simd_arm64.s).
//
//go:noescape
func qquantizeRow8(dst *int8, src *float32, inv float32, n int)

// simdQuantAvailable reports whether the vectorized int8 kernel surface
// (depthwise taps, pool, fc dot, requantize) runs on this host.
func simdQuantAvailable() bool { return hasNEON }

// qpwReadsBlocks: the NEON tile reads qconvWeights.blocks.
const qpwReadsBlocks = true

// qpwArchVariants lists the GEMM tile this CPU runs: the SMLAL tile, which
// reads the int8 taps in place — the tile's own channel planes or the
// gathered block, no pack step: the widening multiply-accumulate consumes
// bytes directly — over the 4-wide int32 weight blocks, with the shared epilogue
// per channel row.
func qpwArchVariants() []*qpwVariant {
	if !hasNEON {
		return nil
	}
	return []*qpwVariant{{name: "neon", mr: ocBlockWidth, nr: 16, tile: qpwTileNEON}}
}

func qpwTileNEON(dst []int8, dstStride int, a *qpwCols, qw *qconvWeights, ob, oc0, tiles int, act nn.Activation) {
	blk := qw.blocks[ob]
	scale, bias := qw.effScale[oc0:oc0+ocBlockWidth], qw.effBias[oc0:oc0+ocBlockWidth]
	var acc [ocBlockWidth * 16]int32
	for t := 0; t < tiles; t++ {
		qpwTile16(&acc[0], &a.src[t*16], &blk[0], a.k, a.rowStride)
		for b := 0; b < ocBlockWidth; b++ {
			requantRow(dst[b*dstStride+t*16:][:16], acc[b*16:][:16], scale[b], bias[b], act)
		}
	}
}

// simdFloatAvailable reports whether the vectorized float32 kernel surface
// runs on this host. The NEON float tiles use fused FMLA because gc on arm64
// fuses x*y + z into FMADD — the per-architecture contract is "bit-identical
// to scalar Go on the same architecture" (see DESIGN.md §6); cross-arch
// float identity was never promised by the scalar kernels either.
func simdFloatAvailable() bool { return hasNEON }

// fdw3Row fuses the three float depthwise taps of one stride-1 row sweep
// (see simd_arm64.s).
//
//go:noescape
func fdw3Row(acc *float32, src *float32, wgt *float32, n int)

// fmaxPair8 reduces a 2x2 stride-2 float max-pool row pair
// (see simd_arm64.s).
//
//go:noescape
func fmaxPair8(dst *float32, a, b *float32, n int)

// fpwTile16 computes a bias-seeded 4-channel x 16-column float pointwise
// accumulator tile (see simd_arm64.s).
//
//go:noescape
func fpwTile16(acc *float32, accStride int, src *float32, chanStride int, wgt *float32, bias *float32, inC int)

// fpwArchVariants lists the float pointwise tile this CPU runs.
func fpwArchVariants() []*fpwVariant {
	if !hasNEON {
		return nil
	}
	return []*fpwVariant{fpwAsm("neon", 16, fpwTile16)}
}

// ffcPanel16 computes 16 fully-connected output features from a transposed
// weight panel (see simd_arm64.s).
//
//go:noescape
func ffcPanel16(dst *float32, panel *float32, src *float32, bias *float32, n int)

// fgapSum8 sums 8 channel spans for the global-average-pool reduction
// (see simd_arm64.s).
//
//go:noescape
func fgapSum8(dst *float32, src *float32, chanStride, n int)

// fepiRow is the vector batch-norm + activation epilogue for one finished
// float output row (see simd_arm64.s).
//
//go:noescape
func fepiRow(dst *float32, scale, shift float32, bn, act, n int)

// simdDW3x3Available reports whether the fused 3x3 depthwise tiles run on
// this host: never on arm64, which composes the
// portable tile from the NEON per-row sweeps (fdw3Row/qdw3Row) instead.
func simdDW3x3Available() bool { return false }

func fdw3x3S1(dst, in *float32, off, rowStride, ih, inH int, w *float32, bias float32, n, left, right, rows, sh, outW int) {
	panic("tensor: fdw3x3S1 is not implemented on arm64")
}

func fdw3x3S2(dst, in *float32, off, rowStride, ih, inH int, w *float32, bias float32, n, left, right, rows, sh, outW int) {
	panic("tensor: fdw3x3S2 is not implemented on arm64")
}

func qdw3x3S1(dst, in *int8, off, rowStride, ih, inH int, w *int8, cols, left, right, rows, sh, outW int, scale, bias float32, act int) {
	panic("tensor: qdw3x3S1 is not implemented on arm64")
}

func qdw3x3S2(dst, in *int8, off, rowStride, ih, inH int, w *int8, cols, left, right, rows, sh, outW int, scale, bias float32, act int) {
	panic("tensor: qdw3x3S2 is not implemented on arm64")
}
