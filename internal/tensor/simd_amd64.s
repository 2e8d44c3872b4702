//go:build !purego

// AVX2 (and, for the pointwise and depthwise tiles, AVX-512 and VNNI) kernels
// of the tensor engine. Integer semantics are exactly Go's: VPMADDWD's and
// VPDPWSSD's pair sums are exact for int8-range (and u8 x s8) operands, and
// VPADDD / VPDPBUSD / VPDPWSSD wrap, so accumulated int32 values match the
// scalar reference bit for bit in every case. Float multiply-accumulate chains round once per tap (VFMADD231PS/SS),
// exactly like the Go kernels' fma32. The purego tag leaves them out and runs
// the portable kernels of simd_generic.go.

#include "textflag.h"
#include "go_asm.h"

// func probeCPU() (avx2, avx512, bw, vnni bool)
//
// AVX2 requires CPUID.7.0:EBX[5], FMA3 (CPUID.1:ECX[12]) plus OS support
// for YMM state (CPUID.1:ECX[27] OSXSAVE and XCR0[2:1] == 11). 512-bit
// float (fpwTile32) needs CPUID.7.0:EBX[16] AVX512F and XCR0[7:5] == 111
// (opmask, ZMM_Hi256, Hi16_ZMM state enabled by the OS). The depthwise tiles
// use 32-bit opmasks and int16 lanes on ZMM (KMOVD, VPMOVSXBW, VPERMW): on
// top of AVX512F, EBX[30] AVX512BW. The VNNI tiles — the int8 GEMM tile's
// VPDPBUSD over Z16-Z31, the int8 depthwise tiles' VPDPWSSD — need on top of
// AVX512F EBX[31] AVX512VL and ECX[11] AVX512_VNNI.
TEXT ·probeCPU(SB), NOSPLIT, $0-4
	MOVB $0, avx2+0(FP)
	MOVB $0, avx512+1(FP)
	MOVB $0, bw+2(FP)
	MOVB $0, vnni+3(FP)
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JL   done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<12), CX // FMA3
	JZ   done
	TESTL $(1<<27), CX // OSXSAVE
	JZ   done
	XORL CX, CX
	XGETBV
	MOVL AX, R8
	ANDL $6, AX // XMM and YMM state enabled
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<5), BX // AVX2
	JZ   done
	MOVB $1, avx2+0(FP)
	ANDL $0xe0, R8 // opmask, ZMM_Hi256, Hi16_ZMM state enabled
	CMPL R8, $0xe0
	JNE  done
	TESTL $(1<<16), BX // AVX512F
	JZ   done
	MOVB $1, avx512+1(FP)
	TESTL $(1<<30), BX // AVX512BW
	JZ   nobw
	MOVB $1, bw+2(FP)
nobw:
	TESTL $(1<<31), BX // AVX512VL
	JZ   done
	TESTL $(1<<11), CX // AVX512_VNNI
	JZ   done
	MOVB $1, vnni+3(FP)
done:
	RET

// Byte-lane shuffle masks for the stride-2 and pool kernels: compact the
// even (resp. odd) bytes of a 16-byte lane into the low 8 bytes, 0x80
// zero-fills the rest.
DATA evenb<>+0(SB)/8, $0x0e0c0a0806040200
DATA evenb<>+8(SB)/8, $0x8080808080808080
GLOBL evenb<>(SB), RODATA, $16

DATA oddb<>+0(SB)/8, $0x0f0d0b0907050301
DATA oddb<>+8(SB)/8, $0x8080808080808080
GLOBL oddb<>(SB), RODATA, $16

// func qmaxPair8(dst *int8, a *int8, b *int8, n int)
//
// 2x2 stride-2 max-pool row pair: dst[i] = max(a[2i], a[2i+1], b[2i],
// b[2i+1]). n must be a positive multiple of 8 with 2*n readable bytes at
// a and b.
TEXT ·qmaxPair8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	VMOVDQU evenb<>(SB), X6
	VMOVDQU oddb<>(SB), X7
maxloop:
	VMOVDQU (SI), X8
	VMOVDQU (DX), X9
	VPMAXSB X9, X8, X8
	VPSHUFB X6, X8, X9
	VPSHUFB X7, X8, X10
	VPMAXSB X10, X9, X9
	MOVQ X9, (DI)
	ADDQ $16, SI
	ADDQ $16, DX
	ADDQ $8, DI
	SUBQ $8, CX
	JNZ  maxloop
	VZEROUPPER
	RET

// func qdotKernel(a *int8, b *int8, n int) int32
//
// Int8 dot product: sum over i in [0,n) of a[i]*b[i], accumulated int32.
// n must be a positive multiple of 16. VPMADDWD pairs int16 products whose
// magnitude is at most 128*128, so the pairwise sums are exact; the final
// reduction wrap-adds the 8 lanes, bit-identical to any scalar order.
TEXT ·qdotKernel(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DX
	MOVQ n+16(FP), CX
	VPXOR Y0, Y0, Y0
dotloop:
	VPMOVSXBW (SI), Y8
	VPMOVSXBW (DX), Y9
	VPMADDWD Y9, Y8, Y8
	VPADDD Y8, Y0, Y0
	ADDQ $16, SI
	ADDQ $16, DX
	SUBQ $16, CX
	JNZ  dotloop
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VPADDD X1, X0, X0
	VPSHUFD $0xB1, X0, X1
	VPADDD X1, X0, X0
	MOVQ X0, AX
	MOVL AX, ret+24(FP)
	VZEROUPPER
	RET

// Float constants for the requantize/quantize epilogues.
DATA qf127<>+0(SB)/4, $0x42fe0000 // 127.0
GLOBL qf127<>(SB), RODATA, $4
DATA qfn128<>+0(SB)/4, $0xc3000000 // -128.0
GLOBL qfn128<>(SB), RODATA, $4
DATA qfhalf<>+0(SB)/4, $0x3f000000 // 0.5
GLOBL qfhalf<>(SB), RODATA, $4
DATA qfsign<>+0(SB)/4, $0x80000000 // float32 sign bit
GLOBL qfsign<>(SB), RODATA, $4
DATA qftenth<>+0(SB)/4, $0x3dcccccd // float32(0.1)
GLOBL qftenth<>(SB), RODATA, $4

// qround8 narrows the 8 float32 lanes of Y8 to 8 int8 at (DI) with Go's
// quantClamp semantics: clamp to [-128,127] first, then round half away
// from zero via v + copysign(0.5, v) and truncate toward zero. The clamp
// guarantees the saturating packs never alter a value. Clobbers Y8/Y9/X9.
// Expects Y3 = 127.0, Y4 = -128.0, Y5 = 0.5, Y6 = sign mask.
#define qround8 \
	VMINPS Y3, Y8, Y8 \
	VMAXPS Y4, Y8, Y8 \
	VANDPS Y6, Y8, Y9 \
	VORPS  Y5, Y9, Y9 \
	VADDPS Y9, Y8, Y8 \
	VCVTTPS2DQ Y8, Y8 \
	VEXTRACTI128 $1, Y8, X9 \
	VPACKSSDW X9, X8, X8 \
	VPACKSSWB X8, X8, X8 \
	MOVQ X8, (DI)

// func qrequantRow8(dst *int8, acc *int32, scale, bias float32, act, n int)
//
// Vector form of the requantize epilogue: dst[i] =
// quantClamp(act(float32(acc[i])*scale + bias)). act is 0 for none, 1 for
// ReLU (max(v,0)), 2 for LeakyReLU (0.1*v for v<0). The float operations
// are exactly Go's: separate VMULPS/VADDPS (an epilogue rounds twice), IEEE
// min/max for the clamp, and quantClamp's half-away-from-zero rounding. n
// must be a positive multiple of 8.
TEXT ·qrequantRow8(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ acc+8(FP), SI
	VBROADCASTSS scale+16(FP), Y0
	VBROADCASTSS bias+20(FP), Y1
	MOVQ act+24(FP), AX
	MOVQ n+32(FP), CX
	VBROADCASTSS qf127<>(SB), Y3
	VBROADCASTSS qfn128<>(SB), Y4
	VBROADCASTSS qfhalf<>(SB), Y5
	VBROADCASTSS qfsign<>(SB), Y6
	CMPQ AX, $1
	JEQ  reluloop
	CMPQ AX, $2
	JEQ  leakyloop
noneloop:
	VCVTDQ2PS (SI), Y8
	VMULPS Y0, Y8, Y8
	VADDPS Y1, Y8, Y8
	qround8
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JNZ  noneloop
	VZEROUPPER
	RET
reluloop:
	VCVTDQ2PS (SI), Y8
	VMULPS Y0, Y8, Y8
	VADDPS Y1, Y8, Y8
	VXORPS Y9, Y9, Y9
	VMAXPS Y9, Y8, Y8
	qround8
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JNZ  reluloop
	VZEROUPPER
	RET
leakyloop:
	VBROADCASTSS qftenth<>(SB), Y2
	VXORPS Y10, Y10, Y10
leaky1:
	VCVTDQ2PS (SI), Y8
	VMULPS Y0, Y8, Y8
	VADDPS Y1, Y8, Y8
	VMULPS Y2, Y8, Y9       // 0.1*v, float32-rounded exactly like Go
	VCMPPS $1, Y10, Y8, Y11 // v < 0 (LT_OS)
	VBLENDVPS Y11, Y9, Y8, Y8
	qround8
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JNZ  leaky1
	VZEROUPPER
	RET

// func qquantizeRow8(dst *int8, src *float32, inv float32, n int)
//
// Vector input quantization: dst[i] = quantClamp(src[i]*inv), sharing
// qround8's exact clamp/round semantics. n must be a positive multiple of
// 8.
TEXT ·qquantizeRow8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	VBROADCASTSS inv+16(FP), Y0
	MOVQ n+24(FP), CX
	VBROADCASTSS qf127<>(SB), Y3
	VBROADCASTSS qfn128<>(SB), Y4
	VBROADCASTSS qfhalf<>(SB), Y5
	VBROADCASTSS qfsign<>(SB), Y6
quantloop:
	VMOVUPS (SI), Y8
	VMULPS Y0, Y8, Y8
	qround8
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JNZ  quantloop
	VZEROUPPER
	RET

// The int8 GEMM (see gemm.go): a pack routine and two register tiles over
// the packed u8 quad panel.

DATA qpwFlip<>+0(SB)/8, $0x8080808080808080
DATA qpwFlip<>+8(SB)/8, $0x8080808080808080
GLOBL qpwFlip<>(SB), RODATA, $16

// func qpwPack(panel *uint8, src *int8, chanStride, k, tiles, nr int)
//
// Vector form of qpwPackPortable for tiles of nr = 16 or 32 columns: for
// t in [0,tiles), q in [0,(k+3)/4), j in [0,nr), i in [0,4) the byte
// panel[((t*quads+q)*nr+j)*4+i] becomes src[(4q+i)*chanStride+t*nr+j] XOR
// 0x80, or 0x80 for a row 4q+i >= k. A missing row of the last quad reads row
// 4q again (offset 0) under an all-zero mask (X12-X14 hold the masks of rows
// 4q+1..4q+3), so it packs to 0x80 like a zero tap. Each step flips 16 bytes
// of the four rows and interleaves them (VPUNPCK[LH]BW, then VPUNPCK[LH]WD)
// into 64 panel bytes in column order, so the tiles load panel vectors with
// no shuffle. Reads exactly nr*tiles bytes per row.
TEXT ·qpwPack(SB), NOSPLIT, $0-48
	MOVQ panel+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ chanStride+16(FP), R8
	MOVQ k+24(FP), BX
	MOVQ nr+40(FP), R11
	LEAQ 3(BX), R13
	SHRQ $2, R13
	IMULQ R11, R13
	SHLQ $2, R13 // bytes from one tile's quad to the next tile's: quads*nr*4
	SHLQ $2, R11 // bytes of one quad within a tile: nr*4
	VMOVDQU qpwFlip<>(SB), X15
	VPCMPEQB X12, X12, X12
	VPCMPEQB X13, X13, X13
	VPCMPEQB X14, X14, X14
packquad:
	MOVQ R8, R10             // row 4q+1 from row 4q
	LEAQ (R8)(R8*1), R12     // 4q+2
	LEAQ (R12)(R8*1), R14    // 4q+3
	CMPQ BX, $4
	JGE  packrows
	XORQ R14, R14
	VPXOR X14, X14, X14
	CMPQ BX, $3
	JGE  packrows
	XORQ R12, R12
	VPXOR X13, X13, X13
	CMPQ BX, $2
	JGE  packrows
	XORQ R10, R10
	VPXOR X12, X12, X12
packrows:
	MOVQ SI, R9
	MOVQ DI, DX
	MOVQ tiles+32(FP), CX
packtile:
	XORQ AX, AX
packgroup:
	VMOVDQU (R9), X0
	VPAND (R9)(R10*1), X12, X1
	VPAND (R9)(R12*1), X13, X2
	VPAND (R9)(R14*1), X14, X3
	VPXOR X15, X0, X0
	VPXOR X15, X1, X1
	VPXOR X15, X2, X2
	VPXOR X15, X3, X3
	VPUNPCKLBW X1, X0, X4 // (row 0, row 1) bytes of columns 0..7
	VPUNPCKHBW X1, X0, X5 // columns 8..15
	VPUNPCKLBW X3, X2, X6 // (row 2, row 3) bytes of columns 0..7
	VPUNPCKHBW X3, X2, X7 // columns 8..15
	VPUNPCKLWD X6, X4, X0 // quads of columns 0..3
	VPUNPCKHWD X6, X4, X1 // 4..7
	VPUNPCKLWD X7, X5, X2 // 8..11
	VPUNPCKHWD X7, X5, X3 // 12..15
	VMOVDQU X0, (DX)(AX*1)
	VMOVDQU X1, 16(DX)(AX*1)
	VMOVDQU X2, 32(DX)(AX*1)
	VMOVDQU X3, 48(DX)(AX*1)
	ADDQ $16, R9
	ADDQ $64, AX
	CMPQ AX, R11
	JLT  packgroup
	ADDQ R13, DX
	DECQ CX
	JNZ  packtile
	LEAQ (SI)(R8*4), SI
	ADDQ R11, DI
	SUBQ $4, BX
	JG   packquad
	VZEROUPPER
	RET

// Activation operands of the tile epilogues, indexed by the act code (0
// none, 1 ReLU, 2 LeakyReLU): v = max(v, lo), then v = v*slope where v < 0.
// max(v, -Inf) and v*1.0 are identities on every non-NaN float, so the
// branch-free sequence equals qrequantRow8's per-activation loops bit for bit.
DATA qpwActLo<>+0(SB)/4, $0xff800000 // -Inf
DATA qpwActLo<>+4(SB)/4, $0x00000000
DATA qpwActLo<>+8(SB)/4, $0xff800000
GLOBL qpwActLo<>(SB), RODATA, $12
DATA qpwActSlope<>+0(SB)/4, $0x3f800000 // 1.0
DATA qpwActSlope<>+4(SB)/4, $0x3f800000
DATA qpwActSlope<>+8(SB)/4, $0x3dcccccd // float32(0.1)
GLOBL qpwActSlope<>(SB), RODATA, $12

// A2_MAC is one channel's step of qpwTileAVX2 over one panel quad: the
// weight quad broadcast to Y14 is sign-extended into int16 pairs (w0,w2) in
// Y10 and (w1,w3) in Y14, and VPMADDWD multiplies them with the matching
// zero-extended activation pairs — (u0,u2) in Y8/Y9, (u1,u3) in Y12/Y13 for
// columns 0..7/8..15.
#define A2_MAC(off, a, b) \
	VPBROADCASTD off(DX), Y14 \
	VPSLLW $8, Y14, Y10 \
	VPSRAW $8, Y10, Y10 \
	VPSRAW $8, Y14, Y14 \
	VPMADDWD Y8, Y10, Y11 \
	VPADDD Y11, a, a \
	VPMADDWD Y12, Y14, Y11 \
	VPADDD Y11, a, a \
	VPMADDWD Y9, Y10, Y11 \
	VPADDD Y11, b, b \
	VPMADDWD Y13, Y14, Y11 \
	VPADDD Y11, b, b

// func qpwTileAVX2(dst *int8, dstStride int, panel *uint8, wgt, seed *int32, quads, tiles int, scale, bias *float32, act int)
//
// For t in [0,tiles), b in [0,8), j in [0,16):
//
//	dst[b*dstStride+t*16+j] = requant(seed[b] + sum over q in [0,quads),
//	    i in [0,4) of s8(wgt[q*8+b] byte i)*u8(panel[((t*quads+q)*16+j)*4+i]),
//	    scale[b], bias[b], act)
//
// where requant is qrequantRow8's operation sequence per lane (convert,
// separate multiply and add, activation, qround8). The activation bytes are
// widened exactly — VPAND/VPSRLW into non-negative int16 — and never through
// the saturating VPMADDUBSW: each VPMADDWD product is at most 255*128 in
// magnitude, so its pair sum is exact, and VPADDD wraps like Go int32.
// Sixteen YMM registers hold 4 channels x 16 columns of accumulators plus
// operands, so a tile is two passes over its panel (channels 0-3, then 4-7)
// spilled to the frame, row b at 64*b(SP), and requantized from there.
TEXT ·qpwTileAVX2(SB), NOSPLIT, $512-80
	MOVQ dst+0(FP), BX
	MOVQ dstStride+8(FP), R8
	MOVQ panel+16(FP), SI
	MOVQ wgt+24(FP), R9
	MOVQ quads+40(FP), R10
	MOVQ tiles+48(FP), R11
	MOVQ scale+56(FP), R12
	MOVQ bias+64(FP), R13
	VPCMPEQW Y15, Y15, Y15
	VPSRLW $8, Y15, Y15 // 0x00ff in every word
a2tile:
	MOVQ R9, DX
	LEAQ 0(SP), R14
	MOVQ $2, AX
a2half:
	MOVQ DX, DI // the half's seeds: seed + (DX - wgt)
	SUBQ R9, DI
	ADDQ seed+32(FP), DI
	VPBROADCASTD (DI), Y0
	VMOVDQA Y0, Y1
	VPBROADCASTD 4(DI), Y2
	VMOVDQA Y2, Y3
	VPBROADCASTD 8(DI), Y4
	VMOVDQA Y4, Y5
	VPBROADCASTD 12(DI), Y6
	VMOVDQA Y6, Y7
	MOVQ SI, DI
	MOVQ R10, CX
a2quad:
	VMOVDQU (DI), Y8   // columns 0..7 as u8 quads
	VMOVDQU 32(DI), Y9 // columns 8..15
	VPSRLW $8, Y8, Y12
	VPAND Y15, Y8, Y8
	VPSRLW $8, Y9, Y13
	VPAND Y15, Y9, Y9
	A2_MAC(0, Y0, Y1)
	A2_MAC(4, Y2, Y3)
	A2_MAC(8, Y4, Y5)
	A2_MAC(12, Y6, Y7)
	ADDQ $64, DI
	ADDQ $32, DX
	DECQ CX
	JNZ  a2quad
	VMOVDQU Y0, (R14)
	VMOVDQU Y1, 32(R14)
	VMOVDQU Y2, 64(R14)
	VMOVDQU Y3, 96(R14)
	VMOVDQU Y4, 128(R14)
	VMOVDQU Y5, 160(R14)
	VMOVDQU Y6, 192(R14)
	VMOVDQU Y7, 224(R14)
	ADDQ $256, R14
	LEAQ 16(R9), DX // channels 4..7 of the block
	DECQ AX
	JNZ  a2half
	MOVQ DI, SI // the next tile's panel
	// Epilogue over the spilled tile: AX = row, DX = row's dst, R14 = spill.
	MOVQ act+72(FP), AX
	LEAQ qpwActLo<>(SB), R14
	VBROADCASTSS (R14)(AX*4), Y7
	LEAQ qpwActSlope<>(SB), R14
	VBROADCASTSS (R14)(AX*4), Y2
	VBROADCASTSS qf127<>(SB), Y3
	VBROADCASTSS qfn128<>(SB), Y4
	VBROADCASTSS qfhalf<>(SB), Y5
	VBROADCASTSS qfsign<>(SB), Y6
	VXORPS Y10, Y10, Y10
	LEAQ 0(SP), R14
	MOVQ BX, DX
	XORQ AX, AX
a2row:
	VBROADCASTSS (R12)(AX*4), Y0
	VBROADCASTSS (R13)(AX*4), Y1
	MOVQ DX, DI
	MOVQ $2, CX
a2vec:
	VCVTDQ2PS (R14), Y8
	VMULPS Y0, Y8, Y8
	VADDPS Y1, Y8, Y8
	VMAXPS Y7, Y8, Y8
	VMULPS Y2, Y8, Y9
	VCMPPS $1, Y10, Y8, Y11 // v < 0 (LT_OS)
	VBLENDVPS Y11, Y9, Y8, Y8
	qround8
	ADDQ $32, R14
	ADDQ $8, DI
	DECQ CX
	JNZ  a2vec
	ADDQ R8, DX
	INCQ AX
	CMPQ AX, $8
	JLT  a2row
	ADDQ $16, BX
	DECQ R11
	JNZ  a2tile
	VZEROUPPER
	RET

// QPW_DP is the VNNI MAC step of one channel over both column halves: per
// dword lane, acc += the four u8(panel) x s8(weight) byte products, the
// non-saturating form (VPDPBUSDS saturates and is never used), so the lane
// wraps mod 2^32 like Go int32. The weight quad is broadcast once into a
// register; as an embedded-broadcast memory operand of both VPDPBUSD it
// costs a load uop each (measured ~9% slower on the int16 form).
#define QPW_DP(off, a, b) \
	VPBROADCASTD off(DX), Z14 \
	VPDPBUSD Z14, Z12, a \
	VPDPBUSD Z14, Z13, b

// QPW_SEED starts channel b's two accumulators at seed[b].
#define QPW_SEED(b, a0, a1) \
	VPBROADCASTD (4*b)(R14), a0 \
	VMOVDQA32 a0, a1

// QPW_REQ16 requantizes the 16 int32 lanes of acc to int8 at off(DI):
// qrequantRow8's operation sequence per lane on 512-bit registers (the
// masked multiply is the blend, VPMOVSDB's saturation never fires after the
// clamp). Expects Z0 = scale, Z1 = bias, Z2 = slope, Z3 = 127, Z4 = -128,
// Z5 = 0.5, Z6 = sign mask, Z7 = act lo, Z10 = 0; clobbers Z8, Z9, K1.
#define QPW_REQ16(acc, off) \
	VCVTDQ2PS acc, Z8 \
	VMULPS Z0, Z8, Z8 \
	VADDPS Z1, Z8, Z8 \
	VMAXPS Z7, Z8, Z8 \
	VCMPPS $1, Z10, Z8, K1 \
	VMULPS Z2, Z8, K1, Z8 \
	VMINPS Z3, Z8, Z8 \
	VMAXPS Z4, Z8, Z8 \
	VPANDD Z6, Z8, Z9 \
	VPORD  Z5, Z9, Z9 \
	VADDPS Z9, Z8, Z8 \
	VCVTTPS2DQ Z8, Z8 \
	VPMOVSDB Z8, off(DI)

#define QPW_ROW(b, a0, a1) \
	VBROADCASTSS (4*b)(R12), Z0 \
	VBROADCASTSS (4*b)(R13), Z1 \
	QPW_REQ16(a0, 0) \
	QPW_REQ16(a1, 16) \
	ADDQ R8, DI

// func qpwTileVNNI(dst *int8, dstStride int, panel *uint8, wgt, seed *int32, quads, tiles int, scale, bias *float32, act int)
//
// qpwTileAVX2's contract over 32-column tiles (panel index
// ((t*quads+q)*32+j)*4+i, dst column t*32+j) with VPDPBUSD as the MAC step:
// 64 MACs an instruction. EVEX gives 32 registers: all 8 channels x 32
// columns accumulate in one pass over the panel in Z16-Z31 (sixteen
// independent chains cover the instruction's 5-cycle latency at two issues
// per cycle), and the epilogue runs from those registers.
TEXT ·qpwTileVNNI(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), BX
	MOVQ dstStride+8(FP), R8
	MOVQ panel+16(FP), SI
	MOVQ wgt+24(FP), R9
	MOVQ quads+40(FP), R10
	MOVQ tiles+48(FP), R11
	MOVQ scale+56(FP), R12
	MOVQ bias+64(FP), R13
	MOVQ act+72(FP), AX
	LEAQ qpwActLo<>(SB), R14
	VBROADCASTSS (R14)(AX*4), Z7
	LEAQ qpwActSlope<>(SB), R14
	VBROADCASTSS (R14)(AX*4), Z2
	VBROADCASTSS qf127<>(SB), Z3
	VBROADCASTSS qfn128<>(SB), Z4
	VBROADCASTSS qfhalf<>(SB), Z5
	VBROADCASTSS qfsign<>(SB), Z6
	VPXORD Z10, Z10, Z10
	MOVQ seed+32(FP), R14
vntile:
	QPW_SEED(0, Z16, Z17)
	QPW_SEED(1, Z18, Z19)
	QPW_SEED(2, Z20, Z21)
	QPW_SEED(3, Z22, Z23)
	QPW_SEED(4, Z24, Z25)
	QPW_SEED(5, Z26, Z27)
	QPW_SEED(6, Z28, Z29)
	QPW_SEED(7, Z30, Z31)
	MOVQ R9, DX
	MOVQ R10, CX
vnquad:
	VMOVDQU32 (SI), Z12   // columns 0..15 as u8 quads
	VMOVDQU32 64(SI), Z13 // columns 16..31
	QPW_DP(0, Z16, Z17)
	QPW_DP(4, Z18, Z19)
	QPW_DP(8, Z20, Z21)
	QPW_DP(12, Z22, Z23)
	QPW_DP(16, Z24, Z25)
	QPW_DP(20, Z26, Z27)
	QPW_DP(24, Z28, Z29)
	QPW_DP(28, Z30, Z31)
	ADDQ $128, SI
	ADDQ $32, DX
	DECQ CX
	JNZ  vnquad
	MOVQ BX, DI
	QPW_ROW(0, Z16, Z17)
	QPW_ROW(1, Z18, Z19)
	QPW_ROW(2, Z20, Z21)
	QPW_ROW(3, Z22, Z23)
	QPW_ROW(4, Z24, Z25)
	QPW_ROW(5, Z26, Z27)
	QPW_ROW(6, Z28, Z29)
	QPW_ROW(7, Z30, Z31)
	ADDQ $32, BX
	DECQ R11
	JNZ  vntile
	VZEROUPPER
	RET

// ---------------------------------------------------------------------------
// Float32 kernels. Float addition is not associative, so unlike the int8
// tiles these may not reorder anything: every vector lane holds an
// INDEPENDENT output element and chains its taps in exactly the scalar
// kernel's order, one VFMADD231PS per tap into the running accumulator —
// rounded once, like fma32. Operand order matters for the semantics-bearing
// ops: VMAXPS has the incoming value as src1 so the NaN/equal cases return
// the accumulator, matching Go's `if v > acc`.

// -Inf seeds the max-pool accumulators so padding never wins.
DATA fninf<>+0(SB)/4, $0xff800000
GLOBL fninf<>(SB), RODATA, $4

// func fmaxPair8(dst *float32, a *float32, b *float32, n int)
//
// 2x2 stride-2 float max-pool row pair: dst[i] folds a[2i], a[2i+1], b[2i],
// b[2i+1] into a -Inf-seeded accumulator in that tap order. Each fold is
// VMAXPS with the incoming value as src1: the NaN and equal (including
// signed-zero) cases return src2 — the accumulator — exactly like Go's
// `if v > acc { acc = v }`. n must be a positive multiple of 8 with 2*n
// readable float32s at a and b.
TEXT ·fmaxPair8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSS fninf<>(SB), Y15
fmaxloop:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VSHUFPS $0x88, Y1, Y0, Y2 // a evens
	VPERMPD $0xD8, Y2, Y2
	VSHUFPS $0xDD, Y1, Y0, Y3 // a odds
	VPERMPD $0xD8, Y3, Y3
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VSHUFPS $0x88, Y1, Y0, Y4 // b evens
	VPERMPD $0xD8, Y4, Y4
	VSHUFPS $0xDD, Y1, Y0, Y5 // b odds
	VPERMPD $0xD8, Y5, Y5
	VMOVAPS Y15, Y6
	VMAXPS Y6, Y2, Y6
	VMAXPS Y6, Y3, Y6
	VMAXPS Y6, Y4, Y6
	VMAXPS Y6, Y5, Y6
	VMOVUPS Y6, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  fmaxloop
	VZEROUPPER
	RET

// func fpwTile16(acc *float32, accStride int, src *float32, chanStride int, wgt *float32, bias *float32, inC int)
//
// Bias-seeded 4-output-channel x 16-column float pointwise tile written
// directly into the output rows:
//
//	acc[b*accStride+j] = bias[b] + sum over g of wgt[g*4+b]*src[g*chanStride+j]
//
// for b in [0,4), j in [0,16). The 64 float32 accumulators live in eight YMM
// registers across the whole input-channel reduction; each lane is one
// output pixel chaining its channels in ascending order from its bias,
// exactly the scalar kernel's sequence. The caller guarantees inC >= 1 and
// 16 readable float32s at every src[g*chanStride].
TEXT ·fpwTile16(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ accStride+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ chanStride+24(FP), BX
	MOVQ wgt+32(FP), DX
	MOVQ bias+40(FP), AX
	MOVQ inC+48(FP), CX
	SHLQ $2, BX // channel stride in bytes
	VBROADCASTSS (AX), Y0
	VMOVAPS Y0, Y1
	VBROADCASTSS 4(AX), Y2
	VMOVAPS Y2, Y3
	VBROADCASTSS 8(AX), Y4
	VMOVAPS Y4, Y5
	VBROADCASTSS 12(AX), Y6
	VMOVAPS Y6, Y7
fpwloop:
	VMOVUPS (SI), Y8         // columns 0..7 of this input channel
	VMOVUPS 32(SI), Y9       // columns 8..15
	VBROADCASTSS (DX), Y10   // channel b=0 weight
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VBROADCASTSS 4(DX), Y11  // b=1
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VBROADCASTSS 8(DX), Y12  // b=2
	VFMADD231PS Y8, Y12, Y4
	VFMADD231PS Y9, Y12, Y5
	VBROADCASTSS 12(DX), Y13 // b=3
	VFMADD231PS Y8, Y13, Y6
	VFMADD231PS Y9, Y13, Y7
	ADDQ BX, SI
	ADDQ $16, DX
	DECQ CX
	JNZ  fpwloop
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	LEAQ (DI)(R8*4), DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	LEAQ (DI)(R8*4), DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	LEAQ (DI)(R8*4), DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// FPW_MAC is one output channel's step of fpwTile32: both column halves of
// the input channel in Z8/Z9 times the channel's broadcast weight, fused
// into the accumulators.
#define FPW_MAC(off, a, b) \
	VBROADCASTSS off(DX), Z10 \
	VFMADD231PS Z8, Z10, a \
	VFMADD231PS Z9, Z10, b

// func fpwTile32(acc *float32, accStride int, src *float32, chanStride int, wgt *float32, bias *float32, inC int)
//
// fpwTile16's contract over 32 columns on 512-bit registers (AVX512F):
//
//	acc[b*accStride+j] = bias[b] + sum over g of wgt[g*4+b]*src[g*chanStride+j]
//
// for b in [0,4), j in [0,32). Eight independent accumulator chains exactly
// cover the FMA's 4-cycle latency on two 512-bit ports: 32 MAC a cycle,
// twice the YMM tile. The caller guarantees inC >= 1 and 32 readable
// float32s at every src[g*chanStride].
TEXT ·fpwTile32(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ accStride+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ chanStride+24(FP), BX
	MOVQ wgt+32(FP), DX
	MOVQ bias+40(FP), AX
	MOVQ inC+48(FP), CX
	SHLQ $2, BX // channel stride in bytes
	VBROADCASTSS (AX), Z0
	VMOVAPS Z0, Z1
	VBROADCASTSS 4(AX), Z2
	VMOVAPS Z2, Z3
	VBROADCASTSS 8(AX), Z4
	VMOVAPS Z4, Z5
	VBROADCASTSS 12(AX), Z6
	VMOVAPS Z6, Z7
fpw32loop:
	VMOVUPS (SI), Z8   // columns 0..15 of this input channel
	VMOVUPS 64(SI), Z9 // columns 16..31
	FPW_MAC(0, Z0, Z1)
	FPW_MAC(4, Z2, Z3)
	FPW_MAC(8, Z4, Z5)
	FPW_MAC(12, Z6, Z7)
	ADDQ BX, SI
	ADDQ $16, DX
	DECQ CX
	JNZ  fpw32loop
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	LEAQ (DI)(R8*4), DI
	VMOVUPS Z2, (DI)
	VMOVUPS Z3, 64(DI)
	LEAQ (DI)(R8*4), DI
	VMOVUPS Z4, (DI)
	VMOVUPS Z5, 64(DI)
	LEAQ (DI)(R8*4), DI
	VMOVUPS Z6, (DI)
	VMOVUPS Z7, 64(DI)
	VZEROUPPER
	RET

// func ffcPanel16(dst *float32, panel *float32, src *float32, bias *float32, n int)
//
// 16 fully-connected output features at once from a transposed weight panel
// (panel[i*16+l] = w[(o+l)*n+i]): dst[l] = bias[l] + sum over i of
// panel[i*16+l]*src[i]. Lanes are independent output features; each chains
// its dot product in ascending element order from its bias, exactly like
// the scalar per-feature loop. Any n >= 0 is fine — the reduction walks
// elements one broadcast at a time.
TEXT ·ffcPanel16(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ panel+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ bias+24(FP), AX
	MOVQ n+32(FP), CX
	VMOVUPS (AX), Y0
	VMOVUPS 32(AX), Y1
	TESTQ CX, CX
	JZ   ffcdone
ffcloop:
	VBROADCASTSS (SI), Y2
	VFMADD231PS (DX), Y2, Y0
	VFMADD231PS 32(DX), Y2, Y1
	ADDQ $4, SI
	ADDQ $64, DX
	DECQ CX
	JNZ  ffcloop
ffcdone:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func fgapSum8(dst *float32, src *float32, chanStride, n int)
//
// Global-average-pool reduction over 8 channels at once:
//
//	dst[c] = sum over i in [0,n) of src[c*chanStride+i]
//
// Lanes are channels. Each 8-column block is 8x8-transposed (VUNPCK,
// VSHUFPS, VPERM2F128) so the 8 adds into the running sums apply the
// elements in ascending order — per channel the chain is exactly the scalar
// left fold from 0. n must be a positive multiple of 8.
TEXT ·fgapSum8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), R8
	MOVQ src+8(FP), DI
	MOVQ chanStride+16(FP), AX
	MOVQ n+24(FP), CX
	SHLQ $2, AX // channel stride in bytes
	LEAQ (DI)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	LEAQ (R11)(AX*1), R12
	LEAQ (R12)(AX*1), R13
	LEAQ (R13)(AX*1), BX
	LEAQ (BX)(AX*1), SI
	XORQ DX, DX
	VXORPS Y15, Y15, Y15
fgaploop:
	VMOVUPS (DI)(DX*1), Y0  // channel rows a..h
	VMOVUPS (R9)(DX*1), Y1
	VMOVUPS (R10)(DX*1), Y2
	VMOVUPS (R11)(DX*1), Y3
	VMOVUPS (R12)(DX*1), Y4
	VMOVUPS (R13)(DX*1), Y5
	VMOVUPS (BX)(DX*1), Y6
	VMOVUPS (SI)(DX*1), Y7
	VUNPCKLPS Y1, Y0, Y8    // a0 b0 a1 b1 | a4 b4 a5 b5
	VUNPCKHPS Y1, Y0, Y9    // a2 b2 a3 b3 | a6 b6 a7 b7
	VUNPCKLPS Y3, Y2, Y0    // c0 d0 c1 d1 | c4 d4 c5 d5
	VUNPCKHPS Y3, Y2, Y1    // c2 d2 c3 d3 | c6 d6 c7 d7
	VUNPCKLPS Y5, Y4, Y2    // e0 f0 e1 f1 | ...
	VUNPCKHPS Y5, Y4, Y3
	VUNPCKLPS Y7, Y6, Y4    // g0 h0 g1 h1 | ...
	VUNPCKHPS Y7, Y6, Y5
	VSHUFPS $0x44, Y0, Y8, Y6  // a0 b0 c0 d0 | a4 b4 c4 d4
	VSHUFPS $0xEE, Y0, Y8, Y7  // a1 b1 c1 d1 | a5 b5 c5 d5
	VSHUFPS $0x44, Y1, Y9, Y8  // a2 b2 c2 d2 | a6 b6 c6 d6
	VSHUFPS $0xEE, Y1, Y9, Y0  // a3 b3 c3 d3 | a7 b7 c7 d7
	VSHUFPS $0x44, Y4, Y2, Y9  // e0 f0 g0 h0 | e4 f4 g4 h4
	VSHUFPS $0xEE, Y4, Y2, Y1  // e1 f1 g1 h1 | e5 f5 g5 h5
	VSHUFPS $0x44, Y5, Y3, Y2  // e2 f2 g2 h2 | e6 f6 g6 h6
	VSHUFPS $0xEE, Y5, Y3, Y4  // e3 f3 g3 h3 | e7 f7 g7 h7
	VPERM2F128 $0x20, Y9, Y6, Y3 // element 0 across channels a..h
	VADDPS Y3, Y15, Y15
	VPERM2F128 $0x20, Y1, Y7, Y3 // element 1
	VADDPS Y3, Y15, Y15
	VPERM2F128 $0x20, Y2, Y8, Y3 // element 2
	VADDPS Y3, Y15, Y15
	VPERM2F128 $0x20, Y4, Y0, Y3 // element 3
	VADDPS Y3, Y15, Y15
	VPERM2F128 $0x31, Y9, Y6, Y3 // element 4
	VADDPS Y3, Y15, Y15
	VPERM2F128 $0x31, Y1, Y7, Y3 // element 5
	VADDPS Y3, Y15, Y15
	VPERM2F128 $0x31, Y2, Y8, Y3 // element 6
	VADDPS Y3, Y15, Y15
	VPERM2F128 $0x31, Y4, Y0, Y3 // element 7
	VADDPS Y3, Y15, Y15
	ADDQ $32, DX
	SUBQ $8, CX
	JNZ  fgaploop
	VMOVUPS Y15, (R8)
	VZEROUPPER
	RET

// func fepiRow(dst *float32, scale, shift float32, bn, act, n int)
//
// Vector batch-norm + activation epilogue for one finished float output
// row: when bn != 0, dst[i] = float32(dst[i]*scale) + shift as separate
// VMULPS/VADDPS (an epilogue rounds twice), then act: 0 none, 1 ReLU, 2
// LeakyReLU. Both activations replicate the scalar `if v < 0` select
// through a compare+mask rather than VMAXPS, so NaN and -0 lanes keep their
// exact bits. n must be a positive multiple of 8.
TEXT ·fepiRow(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	VBROADCASTSS scale+8(FP), Y1
	VBROADCASTSS shift+12(FP), Y2
	MOVQ bn+16(FP), R8
	MOVQ act+24(FP), AX
	MOVQ n+32(FP), CX
	VXORPS Y3, Y3, Y3              // 0 for the v < 0 compares
	VBROADCASTSS qftenth<>(SB), Y4 // 0.1, the LeakyReLU slope
fepiloop:
	VMOVUPS (DI), Y0
	TESTQ R8, R8
	JZ    fepiact
	VMULPS Y1, Y0, Y0
	VADDPS Y2, Y0, Y0
fepiact:
	CMPQ AX, $1
	JEQ  fepirelu
	CMPQ AX, $2
	JEQ  fepileaky
fepistore:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  fepiloop
	VZEROUPPER
	RET
fepirelu:
	VCMPPS $1, Y3, Y0, Y5 // v < 0 (LT_OS)
	VANDNPS Y0, Y5, Y0    // ~mask & v: negatives -> +0, NaN and -0 kept
	JMP  fepistore
fepileaky:
	VMULPS Y4, Y0, Y6     // 0.1*v, float32-rounded exactly like Go
	VCMPPS $1, Y3, Y0, Y5 // v < 0
	VBLENDVPS Y5, Y6, Y0, Y0
	JMP  fepistore

// ---------------------------------------------------------------------------
// Fused 3x3 depthwise tiles (see dwTile in depthwise.go). One call produces a
// span of `rows` consecutive output rows of one channel plane — output rows
// outW apart, their input rows sh*rowStride apart:
//
//	dst[i] = fin(seed + sum over q, k < 3 of w[3q+k]*src[q*rowStride+i*sw+k])
//
// where src = in+off is kernel row 0 of the first output row, global input row
// ih; kernel row q of a row is skipped while ih+q is outside [0, inH), as is
// the one tap of an edge column that falls in the zero padding. Accumulators
// are seeded in-register and never loaded, every step is computed over full
// vectors and the last partial step is stored exactly — so any width >= 1
// works, at the price of reading ahead to the end of the last step (the Go
// wrappers check that span is addressable).
//
// Register plan of all four tiles: SI/R10/R11 the input rows under the three
// kernel rows (never read while outside the map), R9 the global row of the
// first, BX the byte offset of the step within them, DI the output row
// (float) or the step's output (int8, whose row lives in the dst argument
// slot), CX the columns left in the row, R8 and DX the row steps in bytes
// (input, output), AX the kernel rows of the current output row that are
// inside the map, as bits.

// dwmask is 8 all-ones dwords followed by 8 zero dwords: the 8 lanes starting
// rem dwords before the boundary mask the first rem lanes.
DATA dwmask<>+0(SB)/8, $0xffffffffffffffff
DATA dwmask<>+8(SB)/8, $0xffffffffffffffff
DATA dwmask<>+16(SB)/8, $0xffffffffffffffff
DATA dwmask<>+24(SB)/8, $0xffffffffffffffff
DATA dwmask<>+32(SB)/8, $0
DATA dwmask<>+40(SB)/8, $0
DATA dwmask<>+48(SB)/8, $0
DATA dwmask<>+56(SB)/8, $0
GLOBL dwmask<>(SB), RODATA, $64

// DW_ROWS_IN sets bit q of AX iff kernel row q of the current output row is
// inside the map: 0 <= R9+q < inH as one unsigned compare each, whose borrow
// ADC shifts in. Clobbers BX.
#define DW_ROWS_IN \
	XORQ AX, AX \
	LEAQ 2(R9), BX \
	CMPQ BX, inH+40(FP) \
	ADCQ AX, AX \
	LEAQ 1(R9), BX \
	CMPQ BX, inH+40(FP) \
	ADCQ AX, AX \
	CMPQ R9, inH+40(FP) \
	ADCQ AX, AX

// The float tiles take dst and off at the first INTERIOR column (all three
// taps in range): n of those, plus, when left (right) is 1, the edge column
// before (after) them: dst[-1] chains taps 1 and 2, dst[n] chains taps 0 and
// 1, scalar, ahead of each row's loop. fin is the identity; Y6 is the seed,
// Y7..Y15 the nine taps.
#define FDW_SETUP \
	MOVQ dst+0(FP), DI \
	MOVQ in+8(FP), SI \
	MOVQ off+16(FP), AX \
	LEAQ (SI)(AX*4), SI \
	MOVQ rowStride+24(FP), R8 \
	MOVQ ih+32(FP), R9 \
	MOVQ w+48(FP), DX \
	VBROADCASTSS bias+56(FP), Y6 \
	MOVQ left+72(FP), R12 \
	MOVQ right+80(FP), R13 \
	LEAQ (SI)(R8*4), R10 \
	LEAQ (R10)(R8*4), R11 \
	VBROADCASTSS (DX), Y7 \
	VBROADCASTSS 4(DX), Y8 \
	VBROADCASTSS 8(DX), Y9 \
	VBROADCASTSS 12(DX), Y10 \
	VBROADCASTSS 16(DX), Y11 \
	VBROADCASTSS 20(DX), Y12 \
	VBROADCASTSS 24(DX), Y13 \
	VBROADCASTSS 28(DX), Y14 \
	VBROADCASTSS 32(DX), Y15 \
	IMULQ sh+96(FP), R8 \
	SHLQ $2, R8 \
	MOVQ outW+104(FP), DX \
	SHLQ $2, DX

#define FDW_NEXT_ROW \
	ADDQ sh+96(FP), R9 \
	ADDQ R8, SI \
	ADDQ R8, R10 \
	ADDQ R8, R11 \
	ADDQ DX, DI \
	DECQ rows+88(FP) \
	JNZ  row \
	VZEROUPPER \
	RET

// One input row of a float edge column: its two taps in range, scalar, into
// X0 — the same fused chain as a vector lane. The left column's taps sit at
// fixed displacements from the row pointer, the right column's at byte
// offset R14.
#define FDW_EDGE_ROW(base, da, db, wa, wb) \
	VFMADD231SS da(base), wa, X0 \
	VFMADD231SS db(base), wb, X0

#define FDW_EDGE_ROWX(base, wa, wb) \
	VFMADD231SS (base)(R14*1), wa, X0 \
	VFMADD231SS 4(base)(R14*1), wb, X0

// One stride-1 input row: three unaligned loads one float apart, each tap
// one VFMADD231PS into the running accumulator Y0 (like the scalar
// fma32(w, v, acc)).
#define FDW_S1_ROW(base, w0, w1, w2) \
	VFMADD231PS (base)(BX*1), w0, Y0 \
	VFMADD231PS 4(base)(BX*1), w1, Y0 \
	VFMADD231PS 8(base)(BX*1), w2, Y0

// One stride-2 input row: 17 floats deinterleaved into the three taps of 8
// output columns. VSHUFPS picks even (0x88) or odd (0xDD) lanes per 128-bit
// half, so all three taps — and therefore the accumulator — carry columns in
// the order 0 1 4 5 | 2 3 6 7; one VPERMPD before the store undoes it.
#define FDW_S2_ROW(base, w0, w1, w2) \
	VMOVUPS (base)(BX*1), Y1 \
	VSHUFPS $0x88, 32(base)(BX*1), Y1, Y1 \
	VMOVUPS 4(base)(BX*1), Y2 \
	VSHUFPS $0x88, 36(base)(BX*1), Y2, Y3 \
	VSHUFPS $0xDD, 36(base)(BX*1), Y2, Y2 \
	VFMADD231PS Y1, w0, Y0 \
	VFMADD231PS Y3, w1, Y0 \
	VFMADD231PS Y2, w2, Y0

// func fdw3x3S1(dst, in *float32, off, rowStride, ih, inH int, w *float32, bias float32, n, left, right, rows, sh, outW int)
TEXT ·fdw3x3S1(SB), NOSPLIT, $0-112
	FDW_SETUP
row:
	DW_ROWS_IN
	MOVQ n+64(FP), CX
	TESTQ R12, R12
	JZ   noleft
	VMOVAPS X6, X0
	TESTQ $1, AX
	JZ   l1
	FDW_EDGE_ROW(SI, 0, 4, X8, X9)
l1:
	TESTQ $2, AX
	JZ   l2
	FDW_EDGE_ROW(R10, 0, 4, X11, X12)
l2:
	TESTQ $4, AX
	JZ   l3
	FDW_EDGE_ROW(R11, 0, 4, X14, X15)
l3:
	VMOVSS X0, -4(DI)
noleft:
	TESTQ R13, R13
	JZ   interior
	LEAQ (CX*4), R14 // byte offset of the right column's tap 0
	VMOVAPS X6, X0
	TESTQ $1, AX
	JZ   r1
	FDW_EDGE_ROWX(SI, X7, X8)
r1:
	TESTQ $2, AX
	JZ   r2
	FDW_EDGE_ROWX(R10, X10, X11)
r2:
	TESTQ $4, AX
	JZ   r3
	FDW_EDGE_ROWX(R11, X13, X14)
r3:
	VMOVSS X0, (DI)(CX*4)
interior:
	XORQ BX, BX
loop:
	VMOVAPS Y6, Y0
	TESTQ $1, AX
	JZ   m1
	FDW_S1_ROW(SI, Y7, Y8, Y9)
m1:
	TESTQ $2, AX
	JZ   m2
	FDW_S1_ROW(R10, Y10, Y11, Y12)
m2:
	TESTQ $4, AX
	JZ   m3
	FDW_S1_ROW(R11, Y13, Y14, Y15)
m3:
	CMPQ CX, $8
	JLT  tail
	VMOVUPS Y0, (DI)(BX*1)
	ADDQ $32, BX
	SUBQ $8, CX
	JNZ  loop
	JMP  next
tail:
	LEAQ dwmask<>(SB), R14
	SHLQ $2, CX
	SUBQ CX, R14
	VMOVDQU 32(R14), Y1
	VMASKMOVPS Y0, Y1, (DI)(BX*1)
next:
	FDW_NEXT_ROW

// func fdw3x3S2(dst, in *float32, off, rowStride, ih, inH int, w *float32, bias float32, n, left, right, rows, sh, outW int)
TEXT ·fdw3x3S2(SB), NOSPLIT, $0-112
	FDW_SETUP
row:
	DW_ROWS_IN
	MOVQ n+64(FP), CX
	TESTQ R12, R12
	JZ   noleft
	VMOVAPS X6, X0
	TESTQ $1, AX
	JZ   l1
	FDW_EDGE_ROW(SI, -4, 0, X8, X9)
l1:
	TESTQ $2, AX
	JZ   l2
	FDW_EDGE_ROW(R10, -4, 0, X11, X12)
l2:
	TESTQ $4, AX
	JZ   l3
	FDW_EDGE_ROW(R11, -4, 0, X14, X15)
l3:
	VMOVSS X0, -4(DI)
noleft:
	TESTQ R13, R13
	JZ   interior
	LEAQ (CX*8), R14 // byte offset of the right column's tap 0
	VMOVAPS X6, X0
	TESTQ $1, AX
	JZ   r1
	FDW_EDGE_ROWX(SI, X7, X8)
r1:
	TESTQ $2, AX
	JZ   r2
	FDW_EDGE_ROWX(R10, X10, X11)
r2:
	TESTQ $4, AX
	JZ   r3
	FDW_EDGE_ROWX(R11, X13, X14)
r3:
	VMOVSS X0, (DI)(CX*4)
interior:
	XORQ BX, BX
	XORQ R14, R14 // byte offset of the step within the output row
loop:
	VMOVAPS Y6, Y0
	TESTQ $1, AX
	JZ   m1
	FDW_S2_ROW(SI, Y7, Y8, Y9)
m1:
	TESTQ $2, AX
	JZ   m2
	FDW_S2_ROW(R10, Y10, Y11, Y12)
m2:
	TESTQ $4, AX
	JZ   m3
	FDW_S2_ROW(R11, Y13, Y14, Y15)
m3:
	VPERMPD $0xD8, Y0, Y0
	CMPQ CX, $8
	JLT  tail
	VMOVUPS Y0, (DI)(R14*1)
	ADDQ $64, BX
	ADDQ $32, R14
	SUBQ $8, CX
	JNZ  loop
	JMP  next
tail:
	LEAQ dwmask<>(SB), BX
	SHLQ $2, CX
	SUBQ CX, BX
	VMOVDQU 32(BX), Y1
	VMASKMOVPS Y0, Y1, (DI)(R14*1)
next:
	FDW_NEXT_ROW

// The int8 tiles take dst and off at the span's FIRST column — one byte
// before the row when left is 1 — and `cols` columns including the edges. An
// edge column's padding tap is not skipped but masked to zero, which adds
// nothing to a wrapping int32: a row's first and last steps AND their
// sign-extended loads with int16 lane masks that are all-ones except, in the
// first step, the lane of input byte 0 (left) and, in the last, the lane of
// the byte after the last column's tap 1 (right) — a byte only that column and
// the discarded lanes past it read. Accumulators start at zero (the int8 seed)
// and fin is qrequantRow8's operation sequence per lane and activation
// (convert, separate multiply and add, activation, clamp, round half away,
// truncate); the clamp at -128 is left to the saturating packs, which no
// value that passed the clamp at 127 can otherwise reach.
//
// Registers beyond the shared plan: R12 and R13 the step's lane masks (L0; L1
// and, two bytes on, L2), R14 the last step's, the `left` argument slot the
// first step's; Y7/Y8, Y9/Y10, Y11/Y12 the packed taps of the three kernel
// rows, Y13 scale, Y14 bias, Y5 127.0, Y6 0.5, Y15 the sign mask.

// qdwlanes is 17 all-ones int16 lanes, one zero lane, 16 all-ones lanes: the
// 32 bytes from lane 17-e on are a mask that clears lane e, and the masks at
// lanes 0 and 1 clear nothing.
DATA qdwlanes<>+0(SB)/8, $0xffffffffffffffff
DATA qdwlanes<>+8(SB)/8, $0xffffffffffffffff
DATA qdwlanes<>+16(SB)/8, $0xffffffffffffffff
DATA qdwlanes<>+24(SB)/8, $0xffffffffffffffff
DATA qdwlanes<>+32(SB)/8, $0xffffffff0000ffff
DATA qdwlanes<>+40(SB)/8, $0xffffffffffffffff
DATA qdwlanes<>+48(SB)/8, $0xffffffffffffffff
DATA qdwlanes<>+56(SB)/8, $0xffffffffffffffff
DATA qdwlanes<>+64(SB)/8, $0x00000000ffffffff
GLOBL qdwlanes<>(SB), RODATA, $72

// qdwzip interleaves, per 128-bit lane, bytes 0..3 with bytes 4..7 into the
// lane's low 8 bytes.
DATA qdwzip<>+0(SB)/8, $0x0703060205010400
DATA qdwzip<>+8(SB)/8, $0x8080808080808080
DATA qdwzip<>+16(SB)/8, $0x0703060205010400
DATA qdwzip<>+24(SB)/8, $0x8080808080808080
GLOBL qdwzip<>(SB), RODATA, $32

// Int8 weights: each kernel row's taps are packed into two int16-pair
// multiplicands for VPMADDWD: WA = (w0, w1) and WB = (0, w2). Products are at
// most 128*128, so pair sums are exact and the int32 accumulation wraps like
// Go's.
#define QDW_PACK(o0, o1, o2, WA, WB) \
	MOVBLSX o0(DX), AX \
	MOVBLSX o1(DX), BX \
	ANDL $0xffff, AX \
	SHLL $16, BX \
	ORL  BX, AX \
	VMOVQ AX, X2 \
	VPBROADCASTD X2, WA \
	MOVBLSX o2(DX), AX \
	SHLL $16, AX \
	VMOVQ AX, X2 \
	VPBROADCASTD X2, WB

// Everything of an int8 tile's set-up that does not depend on the stride.
// Leaves R14 at qdwlanes, the last step's masks when right is 0.
#define QDW_SETUP \
	MOVQ dst+0(FP), DI \
	MOVQ in+8(FP), SI \
	ADDQ off+16(FP), SI \
	MOVQ rowStride+24(FP), R8 \
	MOVQ ih+32(FP), R9 \
	MOVQ w+48(FP), DX \
	LEAQ (SI)(R8*1), R10 \
	LEAQ (R10)(R8*1), R11 \
	QDW_PACK(0, 1, 2, Y7, Y8) \
	QDW_PACK(3, 4, 5, Y9, Y10) \
	QDW_PACK(6, 7, 8, Y11, Y12) \
	VBROADCASTSS scale+104(FP), Y13 \
	VBROADCASTSS bias+108(FP), Y14 \
	VBROADCASTSS qf127<>(SB), Y5 \
	VBROADCASTSS qfhalf<>(SB), Y6 \
	VBROADCASTSS qfsign<>(SB), Y15 \
	IMULQ sh+88(FP), R8 \
	MOVQ outW+96(FP), DX \
	LEAQ qdwlanes<>(SB), R14 \
	MOVQ left+64(FP), BX \
	IMUL3Q $34, BX, BX \
	ADDQ R14, BX \
	MOVQ BX, left+64(FP)

#define QDW_NEXT_ROW \
	ADDQ sh+88(FP), R9 \
	ADDQ R8, SI \
	ADDQ R8, R10 \
	ADDQ R8, R11 \
	MOVQ dst+0(FP), DI \
	ADDQ DX, DI \
	MOVQ DI, dst+0(FP) \
	DECQ rows+80(FP) \
	JNZ  row \
	VZEROUPPER \
	RET

// One stride-1 int8 row, 16 columns. Sign-extending 16 bytes to int16 makes
// dword j the pair (s[2j], s[2j+1]); loading at byte offsets 0, 1 and 2
// gives L0, L1, L2 with
//
//	out[2j]   = L0.(w0,w1) + L1.(0,w2)   (even columns, Y0)
//	out[2j+1] = L1.(w0,w1) + L2.(0,w2)   (odd columns, Y1)
//
// Input byte 0 is lane 0 of L0; with r columns left in the row the byte after
// the last column's tap 1 is byte r+1: lane r of L1, lane r-1 of L2.
#define QDW_S1_LOAD(base) \
	VPMOVSXBW (base)(BX*1), Y2 \
	VPMOVSXBW 1(base)(BX*1), Y3 \
	VPMOVSXBW 2(base)(BX*1), Y4

#define QDW_S1_MASK \
	VPAND (R12), Y2, Y2 \
	VPAND (R13), Y3, Y3 \
	VPAND 2(R13), Y4, Y4

#define QDW_S1_MAC(WA, WB) \
	VPMADDWD Y2, WA, Y2 \
	VPADDD   Y2, Y0, Y0 \
	VPMADDWD Y3, WB, Y2 \
	VPADDD   Y2, Y0, Y0 \
	VPMADDWD Y3, WA, Y3 \
	VPADDD   Y3, Y1, Y1 \
	VPMADDWD Y4, WB, Y4 \
	VPADDD   Y4, Y1, Y1

// One stride-2 int8 row, 8 columns: the byte pairs of L0 are already taps 0
// and 1 of consecutive output columns, and L1 (one byte on) carries tap 2 in
// its high halves — stride 2 needs no shuffle at all. With r columns left
// the byte after the last column's tap 1 is byte 2r: lane 2r-1 of L1.
#define QDW_S2_LOAD(base) \
	VPMOVSXBW (base)(BX*1), Y2 \
	VPMOVSXBW 1(base)(BX*1), Y3

#define QDW_S2_MASK \
	VPAND (R12), Y2, Y2 \
	VPAND (R13), Y3, Y3

#define QDW_S2_MAC(WA, WB) \
	VPMADDWD Y2, WA, Y2 \
	VPADDD   Y2, Y0, Y0 \
	VPMADDWD Y3, WB, Y3 \
	VPADDD   Y3, Y0, Y0

// The epilogue of 8 int32 lanes in three parts around the activation branch.
#define QDW_AFFINE(acc) \
	VCVTDQ2PS acc, acc \
	VMULPS Y13, acc, acc \
	VADDPS Y14, acc, acc

#define QDW_LEAKY(acc) \
	VMULPS Y2, acc, Y3 \
	VCMPPS $1, Y4, acc, Y4 \
	VBLENDVPS Y4, Y3, acc, acc \
	VXORPS Y4, Y4, Y4

#define QDW_ROUND(acc) \
	VMINPS Y5, acc, acc \
	VANDPS Y15, acc, Y2 \
	VORPS  Y6, Y2, Y2 \
	VADDPS Y2, acc, acc \
	VCVTTPS2DQ acc, acc

// After ReLU no lane is negative, so copysign(0.5, v) is 0.5.
#define QDW_ROUND_POS(acc) \
	VMINPS Y5, acc, acc \
	VADDPS Y6, acc, acc \
	VCVTTPS2DQ acc, acc

// QDW_STORE_LT8 stores the low CX&7 bytes of X0 at (DI).
#define QDW_STORE_LT8 \
	VMOVQ X0, BX \
	TESTQ $4, CX \
	JZ   lt4 \
	MOVL BX, (DI) \
	SHRQ $32, BX \
	ADDQ $4, DI \
lt4: \
	TESTQ $2, CX \
	JZ   lt2 \
	MOVW BX, (DI) \
	SHRQ $16, BX \
	ADDQ $2, DI \
lt2: \
	TESTQ $1, CX \
	JZ   next \
	MOVB BX, (DI)

// func qdw3x3S1(dst, in *int8, off, rowStride, ih, inH int, w *int8, cols, left, right, rows, sh, outW int, scale, bias float32, act int)
TEXT ·qdw3x3S1(SB), NOSPLIT, $0-120
	QDW_SETUP
	CMPQ right+72(FP), $0
	JEQ  row
	MOVQ cols+56(FP), BX
	DECQ BX
	ANDQ $15, BX
	NEGQ BX
	LEAQ 32(R14)(BX*2), R14 // lane 17 - r, r = columns of the last step
row:
	DW_ROWS_IN
	MOVQ cols+56(FP), CX
	XORQ BX, BX
	MOVQ left+64(FP), R12
step:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	LEAQ qdwlanes<>(SB), R13
	CMPQ CX, $16
	JGT  masks
	MOVQ R14, R13
masks:
	CMPQ R12, R13
	JEQ  plain // neither the row's first step nor its last
	TESTQ $1, AX
	JZ   m1
	QDW_S1_LOAD(SI)
	QDW_S1_MASK
	QDW_S1_MAC(Y7, Y8)
m1:
	TESTQ $2, AX
	JZ   m2
	QDW_S1_LOAD(R10)
	QDW_S1_MASK
	QDW_S1_MAC(Y9, Y10)
m2:
	TESTQ $4, AX
	JZ   fin
	QDW_S1_LOAD(R11)
	QDW_S1_MASK
	QDW_S1_MAC(Y11, Y12)
	JMP  fin
plain:
	TESTQ $1, AX
	JZ   p1
	QDW_S1_LOAD(SI)
	QDW_S1_MAC(Y7, Y8)
p1:
	TESTQ $2, AX
	JZ   p2
	QDW_S1_LOAD(R10)
	QDW_S1_MAC(Y9, Y10)
p2:
	TESTQ $4, AX
	JZ   fin
	QDW_S1_LOAD(R11)
	QDW_S1_MAC(Y11, Y12)
fin:
	QDW_AFFINE(Y0)
	QDW_AFFINE(Y1)
	VXORPS Y4, Y4, Y4
	CMPQ act+112(FP), $1
	JLT  round
	JGT  leaky
	VMAXPS Y4, Y0, Y0
	VMAXPS Y4, Y1, Y1
	QDW_ROUND_POS(Y0)
	QDW_ROUND_POS(Y1)
	JMP  narrow
leaky:
	VBROADCASTSS qftenth<>(SB), Y2
	QDW_LEAKY(Y0)
	QDW_LEAKY(Y1)
round:
	QDW_ROUND(Y0)
	QDW_ROUND(Y1)
narrow:
	// Even columns in Y0, odd in Y1: narrow, then zip them per lane.
	VPACKSSDW Y1, Y0, Y0 // words of columns 0 2 4 6, 1 3 5 7 | 8 .. 14, 9 .. 15
	VPACKSSWB Y0, Y0, Y0
	VPSHUFB qdwzip<>(SB), Y0, Y0 // bytes of columns 0..7 | 8..15
	VPERMQ $0x08, Y0, Y0
	CMPQ CX, $16
	JLT  tail
	VMOVDQU X0, (DI)
	LEAQ qdwlanes<>(SB), R12
	ADDQ $16, BX
	ADDQ $16, DI
	SUBQ $16, CX
	JNZ  step
	JMP  next
tail:
	TESTQ $8, CX
	JZ   lt8
	VMOVQ X0, (DI)
	VPSRLDQ $8, X0, X0
	ADDQ $8, DI
lt8:
	QDW_STORE_LT8
next:
	QDW_NEXT_ROW

// func qdw3x3S2(dst, in *int8, off, rowStride, ih, inH int, w *int8, cols, left, right, rows, sh, outW int, scale, bias float32, act int)
TEXT ·qdw3x3S2(SB), NOSPLIT, $0-120
	QDW_SETUP
	CMPQ right+72(FP), $0
	JEQ  row
	MOVQ cols+56(FP), BX
	DECQ BX
	ANDQ $7, BX
	SHLQ $1, BX
	NEGQ BX
	LEAQ 32(R14)(BX*2), R14 // lane 17 - (2r-1), r = columns of the last step
row:
	DW_ROWS_IN
	MOVQ cols+56(FP), CX
	XORQ BX, BX
	MOVQ left+64(FP), R12
step:
	VPXOR Y0, Y0, Y0
	LEAQ qdwlanes<>(SB), R13
	CMPQ CX, $8
	JGT  masks
	MOVQ R14, R13
masks:
	CMPQ R12, R13
	JEQ  plain // neither the row's first step nor its last
	TESTQ $1, AX
	JZ   m1
	QDW_S2_LOAD(SI)
	QDW_S2_MASK
	QDW_S2_MAC(Y7, Y8)
m1:
	TESTQ $2, AX
	JZ   m2
	QDW_S2_LOAD(R10)
	QDW_S2_MASK
	QDW_S2_MAC(Y9, Y10)
m2:
	TESTQ $4, AX
	JZ   fin
	QDW_S2_LOAD(R11)
	QDW_S2_MASK
	QDW_S2_MAC(Y11, Y12)
	JMP  fin
plain:
	TESTQ $1, AX
	JZ   p1
	QDW_S2_LOAD(SI)
	QDW_S2_MAC(Y7, Y8)
p1:
	TESTQ $2, AX
	JZ   p2
	QDW_S2_LOAD(R10)
	QDW_S2_MAC(Y9, Y10)
p2:
	TESTQ $4, AX
	JZ   fin
	QDW_S2_LOAD(R11)
	QDW_S2_MAC(Y11, Y12)
fin:
	QDW_AFFINE(Y0)
	VXORPS Y4, Y4, Y4
	CMPQ act+112(FP), $1
	JLT  round
	JGT  leaky
	VMAXPS Y4, Y0, Y0
	QDW_ROUND_POS(Y0)
	JMP  narrow
leaky:
	VBROADCASTSS qftenth<>(SB), Y2
	QDW_LEAKY(Y0)
round:
	QDW_ROUND(Y0)
narrow:
	VEXTRACTI128 $1, Y0, X1
	VPACKSSDW X1, X0, X0
	VPACKSSWB X0, X0, X0
	CMPQ CX, $8
	JLT  tail
	VMOVQ X0, (DI)
	LEAQ qdwlanes<>(SB), R12
	ADDQ $16, BX
	ADDQ $8, DI
	SUBQ $8, CX
	JNZ  step
	JMP  next
tail:
	QDW_STORE_LT8
next:
	QDW_NEXT_ROW

// ---------------------------------------------------------------------------
// AVX-512 3x3 depthwise tiles (AVX512F+BW, the int8 ones also VNNI; see
// dwRunF and dwRunQ in simd_amd64.go). One call computes the finished output planes — every row,
// every column, epilogue included — of `chans` consecutive channels, whose
// taps (9 per channel), seeds and epilogue operands lie consecutively in
// memory. The walker pays its Go overhead once per call, not once per plane.
//
// Every output element chains its taps in the reference order (seed, then
// kernel rows ascending, taps ascending within a row) in one vector lane.
// A tap that falls in the zero padding is never added:
//
//   - a kernel row outside the map is not issued at all (bit q of R11 is
//     clear, DWZ_ROWS_IN);
//   - a tap outside the map horizontally is masked off in its lane. A float
//     lane under a clear merge-mask bit keeps its accumulator bit for bit,
//     which is exactly what skipping the tap means; an int8 load under a
//     clear zeroing-mask bit reads 0, and an integer zero product changes no
//     accumulator. Masked-off lanes read no memory (AVX-512 suppresses their
//     faults), so the tiles may address bytes before the plane or past the
//     tensor: every row, the first and last of the tensor included, runs
//     here.
//
// A row is computed in steps of V output columns. The opmasks of a step come
// from dwZArgs.masks, one set of eight per kind of step, indexed by
// first + 2*last: a middle step (every lane in the map), the first one, the
// last one (its tail lanes past the row are masked off for the loads and the
// store) and a row's only step. The Go side derives each lane's bit from the
// input column it reads: newDWZArgs for these sets, setFlat for the flat
// span's (dwZArgs.flatMasks, dwZArgs.xMasks).
//
// Register plan shared by the four tiles: R12 the dwZArgs, R13 the output
// row, SI/DI its kernel row 0 input (column x0) and output row, R8 the input
// row stride in bytes, DX the output row stride in bytes, BX the step's
// input pointer (kernel rows q = 1, 2 at (BX)(R8*q)), R14 the step's output
// pointer, CX the columns left in the row, R11 the kernel rows of a single
// row that are inside the map (bits), AX scratch.

// dwzUnshuf is the VPERMPS index that puts the stride-2 float tile's
// accumulator lanes (columns 0 1 8 9 | 2 3 10 11 | 4 5 12 13 | 6 7 14 15)
// back in column order.
DATA dwzUnshuf<>+0(SB)/8, $0x0000000100000000
DATA dwzUnshuf<>+8(SB)/8, $0x0000000500000004
DATA dwzUnshuf<>+16(SB)/8, $0x0000000900000008
DATA dwzUnshuf<>+24(SB)/8, $0x0000000d0000000c
DATA dwzUnshuf<>+32(SB)/8, $0x0000000300000002
DATA dwzUnshuf<>+40(SB)/8, $0x0000000700000006
DATA dwzUnshuf<>+48(SB)/8, $0x0000000b0000000a
DATA dwzUnshuf<>+56(SB)/8, $0x0000000f0000000e
GLOBL dwzUnshuf<>(SB), RODATA, $64

// DWZ_ROW_PTRS points SI at kernel row 0, column x0 of output row R13 of the
// current channel and DI at that output row.
#define DWZ_ROW_PTRS \
	MOVQ R13, SI \
	IMULQ dwZArgs_rowStep(R12), SI \
	ADDQ dwZArgs_off(R12), SI \
	ADDQ in+8(FP), SI \
	MOVQ R13, DI \
	IMULQ DX, DI \
	ADDQ dst+0(FP), DI \
	MOVQ SI, BX \
	MOVQ DI, R14 \
	MOVQ dwZArgs_outW(R12), CX

// DWZ_ROWS_IN sets bit q of R11 iff kernel row q of output row R13 is inside
// the map: 0 <= ih+q < inH as one unsigned compare each, whose borrow ADC
// shifts in. Clobbers AX, R9 and BX (call it before DWZ_ROW_PTRS).
#define DWZ_ROWS_IN \
	MOVQ R13, R9 \
	IMULQ dwZArgs_sh(R12), R9 \
	ADDQ dwZArgs_ih0(R12), R9 \
	MOVQ dwZArgs_inH(R12), AX \
	XORQ R11, R11 \
	LEAQ 2(R9), BX \
	CMPQ BX, AX \
	ADCQ R11, R11 \
	LEAQ 1(R9), BX \
	CMPQ BX, AX \
	ADCQ R11, R11 \
	CMPQ R9, AX \
	ADCQ R11, R11

// DWZ_MASK_SET points AX at the mask set of the step that starts with CX
// columns left in a row of V-column steps: first when CX == outW, last when
// CX <= V.
#define DWZ_MASK_SET(V) \
	XORQ AX, AX \
	CMPQ CX, dwZArgs_outW(R12) \
	SETEQ AL \
	CMPQ CX, $V \
	JGT  2(PC) \
	ADDQ $2, AX \
	SHLQ $5, AX \
	LEAQ dwZArgs_masks(R12)(AX*1), AX

// DWZ_GROUP decides whether output row R13 starts a group of four rows whose
// kernel rows all lie in the map ([rlo, rhi) holds them) and jumps to
// `single` if not. A group that would pass rhi starts at rhi-4 instead: it
// recomputes rows already stored, bit for bit the same values. On a group it
// points BX, R10, R11 and R9 at the four rows' input, R14 at the first's
// output.
#define DWZ_GROUP(single) \
	MOVQ dwZArgs_rhi(R12), AX \
	SUBQ $4, AX \
	CMPQ AX, dwZArgs_rlo(R12) \
	JLT  single \
	CMPQ R13, dwZArgs_rlo(R12) \
	JLT  single \
	CMPQ R13, dwZArgs_rhi(R12) \
	JGE  single \
	CMPQ R13, AX \
	JLE  2(PC) \
	MOVQ AX, R13 \
	DWZ_ROW_PTRS \
	MOVQ dwZArgs_rowStep(R12), AX \
	LEAQ (SI)(AX*1), R10 \
	LEAQ (R10)(AX*1), R11 \
	LEAQ (R11)(AX*1), R9

// DWZ_FLAT jumps to `rows` unless output row R13 starts the flat span: the
// rows [flatRow0, flatRow1) of a stride-1 plane whose input and output rows
// have the same width, which are then one contiguous run in both
// (dwZArgs.flat is 0 when the geometry has none). It points SI and DI at
// the span's input (kernel row 0, column x0) and output, BX and R14 one
// V-column step of `size` bytes on — where the span's main steps start — CX
// at the main steps' columns and R9 at the flat mask table's entry 1 (ent
// bytes an entry).
#define DWZ_FLAT(rows, V, size, ent) \
	CMPQ R13, dwZArgs_flatRow0(R12) \
	JNE  rows \
	CMPQ dwZArgs_flat(R12), $0 \
	JEQ  rows \
	DWZ_ROW_PTRS \
	LEAQ (V*size)(SI), BX \
	LEAQ (V*size)(DI), R14 \
	MOVQ dwZArgs_flatMain(R12), CX \
	MOVQ $ent, R9

// DWZ_FLAT_NEXT moves R9 on by n bytes of the flat mask table, wrapping at
// dwZArgs.flatLen (every entry repeats flatLen bytes on).
#define DWZ_FLAT_NEXT(n) \
	ADDQ $n, R9 \
	CMPQ R9, dwZArgs_flatLen(R12) \
	JLT  2(PC) \
	SUBQ dwZArgs_flatLen(R12), R9

// DWZ_FLAT_X points BX and R14 at the span's R10-th extra step (dwZArgs.flatX,
// a byte offset, negative when there is none: then it jumps to `skip`) and
// AX at its masks, 48 bytes an entry (dwZArgs.xMasks).
#define DWZ_FLAT_X(skip) \
	MOVQ dwZArgs_flatX(R12)(R10*8), AX \
	TESTQ AX, AX \
	JLT  skip \
	LEAQ (SI)(AX*1), BX \
	LEAQ (DI)(AX*1), R14 \
	LEAQ (R10)(R10*2), AX \
	SHLQ $4, AX

// The float tiles. Z7..Z15 hold the channel's nine taps, Z6 its bias (the
// seed), Z4/Z5 its batch-norm scale and shift, Z3 zero, Z2 float32(0.1);
// Z16..Z19 are the accumulators of a group's four rows (a single row uses
// Z16), so every step carries four independent 9-FMA chains. The epilogue is
// finishRowF's operation sequence per lane: a separate VMULPS and VADDPS
// when the channel has batch norm, then the activation as `if v < 0`
// through a compare mask (NaN and -0 lanes keep their bits): ReLU writes +0,
// LeakyReLU multiplies by 0.1.
#define FDWZ_SETUP \
	MOVQ a+56(FP), R12 \
	MOVQ dwZArgs_inRow(R12), R8 \
	MOVQ dwZArgs_outRow(R12), DX \
	VPXORD Z3, Z3, Z3 \
	VBROADCASTSS qftenth<>(SB), Z2

#define FDWZ_CHAN \
	MOVQ w+16(FP), AX \
	VBROADCASTSS 0(AX), Z7 \
	VBROADCASTSS 4(AX), Z8 \
	VBROADCASTSS 8(AX), Z9 \
	VBROADCASTSS 12(AX), Z10 \
	VBROADCASTSS 16(AX), Z11 \
	VBROADCASTSS 20(AX), Z12 \
	VBROADCASTSS 24(AX), Z13 \
	VBROADCASTSS 28(AX), Z14 \
	VBROADCASTSS 32(AX), Z15 \
	MOVQ bias+24(FP), AX \
	VBROADCASTSS (AX), Z6 \
	MOVQ scale+32(FP), AX \
	TESTQ AX, AX \
	JZ   4(PC) \
	VBROADCASTSS (AX), Z4 \
	MOVQ shift+40(FP), AX \
	VBROADCASTSS (AX), Z5 \
	XORQ R13, R13

// FDWZ_NEXT_CHAN moves every per-channel argument on by one channel and
// counts the run down (the caller's JNZ loops).
#define FDWZ_NEXT_CHAN \
	ADDQ $36, w+16(FP) \
	ADDQ $4, bias+24(FP) \
	CMPQ scale+32(FP), $0 \
	JEQ  3(PC) \
	ADDQ $4, scale+32(FP) \
	ADDQ $4, shift+40(FP) \
	MOVQ dwZArgs_inPlane(R12), AX \
	ADDQ AX, in+8(FP) \
	MOVQ dwZArgs_outPlane(R12), AX \
	ADDQ AX, dst+0(FP) \
	DECQ chans+48(FP)

// FZ_BN4/FZ_BN1 apply the batch-norm affine to a group's / a single row's
// accumulators when the channel has one.
#define FZ_BN4 \
	CMPQ scale+32(FP), $0 \
	JEQ  9(PC) \
	VMULPS Z4, Z16, Z16 \
	VMULPS Z4, Z17, Z17 \
	VMULPS Z4, Z18, Z18 \
	VMULPS Z4, Z19, Z19 \
	VADDPS Z5, Z16, Z16 \
	VADDPS Z5, Z17, Z17 \
	VADDPS Z5, Z18, Z18 \
	VADDPS Z5, Z19, Z19

#define FZ_BN1 \
	CMPQ scale+32(FP), $0 \
	JEQ  3(PC) \
	VMULPS Z4, Z16, Z16 \
	VADDPS Z5, Z16, Z16

// FZ_ACT applies the activation to acc: kr is all-ones for ReLU, kl for
// LeakyReLU (both zero for none), kc a scratch mask.
#define FZ_ACT(acc, kc, kr, kl) \
	VCMPPS $1, Z3, acc, kr, kc \
	VMOVAPS Z3, kc, acc \
	VCMPPS $1, Z3, acc, kl, kc \
	VMULPS Z2, acc, kc, acc

// One stride-1 float tap of a group's four rows: FZ1_G0 for kernel row 0,
// FZ1_GS for kernel row s (1 or 2), d the tap's byte offset.
#define FZ1_G0(d, w, k) \
	VFMADD231PS d(BX), w, k, Z16 \
	VFMADD231PS d(R10), w, k, Z17 \
	VFMADD231PS d(R11), w, k, Z18 \
	VFMADD231PS d(R9), w, k, Z19

#define FZ1_GS(d, s, w, k) \
	VFMADD231PS d(BX)(R8*s), w, k, Z16 \
	VFMADD231PS d(R10)(R8*s), w, k, Z17 \
	VFMADD231PS d(R11)(R8*s), w, k, Z18 \
	VFMADD231PS d(R9)(R8*s), w, k, Z19

// FZ1_FSTEP is one 16-column step of the float flat span at byte offset d:
// taps 0 and 2 merge-masked by the flat table's masks at entry R9+e (a
// column's tap 0 is padding in the span's first column of a row, its tap 2
// in the last; tap 1 never is), then the epilogue and an unmasked store.
#define FZ1_FSTEP(d, e, acc) \
	KMOVD (dwZArgs_flatMasks+e)(R12)(R9*1), K1 \
	KMOVD (dwZArgs_flatMasks+e+4)(R12)(R9*1), K3 \
	VMOVAPS Z6, acc \
	VFMADD231PS d(BX), Z7, K1, acc \
	VFMADD231PS (d+4)(BX), Z8, acc \
	VFMADD231PS (d+8)(BX), Z9, K3, acc \
	VFMADD231PS d(BX)(R8*1), Z10, K1, acc \
	VFMADD231PS (d+4)(BX)(R8*1), Z11, acc \
	VFMADD231PS (d+8)(BX)(R8*1), Z12, K3, acc \
	VFMADD231PS d(BX)(R8*2), Z13, K1, acc \
	VFMADD231PS (d+4)(BX)(R8*2), Z14, acc \
	VFMADD231PS (d+8)(BX)(R8*2), Z15, K3, acc

#define FZ1_FSTORE(d, acc) \
	FZ_ACT(acc, K5, K6, K7) \
	VMOVUPS acc, d(R14)

// FZ1_XSTEP is one of the flat span's extra steps (DWZ_FLAT_X): the first,
// the last, and one ending where the main steps' last ends. Their lanes may
// lie in the span's first or last row, where kernel row 0 or 2 is outside
// the map, so every kernel row has its own three tap masks (xMasks at AX).
#define FZ1_XSTEP(acc) \
	VMOVAPS Z6, acc \
	KMOVD (dwZArgs_xMasks+0)(R12)(AX*1), K1 \
	KMOVD (dwZArgs_xMasks+4)(R12)(AX*1), K2 \
	KMOVD (dwZArgs_xMasks+8)(R12)(AX*1), K3 \
	VFMADD231PS (BX), Z7, K1, acc \
	VFMADD231PS 4(BX), Z8, K2, acc \
	VFMADD231PS 8(BX), Z9, K3, acc \
	KMOVD (dwZArgs_xMasks+16)(R12)(AX*1), K1 \
	KMOVD (dwZArgs_xMasks+20)(R12)(AX*1), K2 \
	KMOVD (dwZArgs_xMasks+24)(R12)(AX*1), K3 \
	VFMADD231PS (BX)(R8*1), Z10, K1, acc \
	VFMADD231PS 4(BX)(R8*1), Z11, K2, acc \
	VFMADD231PS 8(BX)(R8*1), Z12, K3, acc \
	KMOVD (dwZArgs_xMasks+32)(R12)(AX*1), K1 \
	KMOVD (dwZArgs_xMasks+36)(R12)(AX*1), K2 \
	KMOVD (dwZArgs_xMasks+40)(R12)(AX*1), K3 \
	VFMADD231PS (BX)(R8*2), Z13, K1, acc \
	VFMADD231PS 4(BX)(R8*2), Z14, K2, acc \
	VFMADD231PS 8(BX)(R8*2), Z15, K3, acc

// func fdwZ1(dst, in, w, bias, scale, shift *float32, chans int, a *dwZArgs)
//
// The stride-1 float tile: a step is 16 columns, tap k of every lane one
// merge-masked VFMADD231PS from input offset k (masks: K1..K3 the taps', K4
// the store's). K6/K7 enable ReLU/LeakyReLU, K5 is the epilogue's scratch.
TEXT ·fdwZ1(SB), NOSPLIT, $0-64
	FDWZ_SETUP
	KMOVD dwZArgs_relu(R12), K6
	KMOVD dwZArgs_leaky(R12), K7
fz1chan:
	FDWZ_CHAN
fz1row:
	CMPQ R13, dwZArgs_outRows(R12)
	JGE  fz1next
	DWZ_FLAT(fz1rows, 16, 4, 8)
fz1f4:
	CMPQ CX, $64
	JLT  fz1f1
	FZ1_FSTEP(0, 0, Z16)
	FZ1_FSTEP(64, 8, Z17)
	FZ1_FSTEP(128, 16, Z18)
	FZ1_FSTEP(192, 24, Z19)
	FZ_BN4
	FZ1_FSTORE(0, Z16)
	FZ1_FSTORE(64, Z17)
	FZ1_FSTORE(128, Z18)
	FZ1_FSTORE(192, Z19)
	ADDQ $256, BX
	ADDQ $256, R14
	SUBQ $64, CX
	DWZ_FLAT_NEXT(32)
	JMP  fz1f4
fz1f1:
	CMPQ CX, $16
	JLT  fz1fx
	FZ1_FSTEP(0, 0, Z16)
	FZ_BN1
	FZ1_FSTORE(0, Z16)
	ADDQ $64, BX
	ADDQ $64, R14
	SUBQ $16, CX
	DWZ_FLAT_NEXT(8)
	JMP  fz1f1
fz1fx:
	XORQ R10, R10
fz1fxstep:
	DWZ_FLAT_X(fz1fxnext)
	FZ1_XSTEP(Z16)
	FZ_BN1
	FZ1_FSTORE(0, Z16)
fz1fxnext:
	INCQ R10
	CMPQ R10, $3
	JLT  fz1fxstep
	MOVQ dwZArgs_flatRow1(R12), R13
	JMP  fz1row
fz1rows:
	DWZ_GROUP(fz1single)
fz1gstep:
	DWZ_MASK_SET(16)
	KMOVD 0(AX), K1
	KMOVD 4(AX), K2
	KMOVD 8(AX), K3
	KMOVD 12(AX), K4
	VMOVAPS Z6, Z16
	VMOVAPS Z6, Z17
	VMOVAPS Z6, Z18
	VMOVAPS Z6, Z19
	FZ1_G0(0, Z7, K1)
	FZ1_G0(4, Z8, K2)
	FZ1_G0(8, Z9, K3)
	FZ1_GS(0, 1, Z10, K1)
	FZ1_GS(4, 1, Z11, K2)
	FZ1_GS(8, 1, Z12, K3)
	FZ1_GS(0, 2, Z13, K1)
	FZ1_GS(4, 2, Z14, K2)
	FZ1_GS(8, 2, Z15, K3)
	FZ_BN4
	FZ_ACT(Z16, K5, K6, K7)
	FZ_ACT(Z17, K5, K6, K7)
	FZ_ACT(Z18, K5, K6, K7)
	FZ_ACT(Z19, K5, K6, K7)
	VMOVUPS Z16, K4, (R14)
	VMOVUPS Z17, K4, (R14)(DX*1)
	VMOVUPS Z18, K4, (R14)(DX*2)
	LEAQ (R14)(DX*2), AX
	VMOVUPS Z19, K4, (AX)(DX*1)
	ADDQ $64, BX
	ADDQ $64, R10
	ADDQ $64, R11
	ADDQ $64, R9
	ADDQ $64, R14
	SUBQ $16, CX
	JGT  fz1gstep
	ADDQ $4, R13
	JMP  fz1row
fz1single:
	DWZ_ROWS_IN
	DWZ_ROW_PTRS
fz1sstep:
	DWZ_MASK_SET(16)
	KMOVD 0(AX), K1
	KMOVD 4(AX), K2
	KMOVD 8(AX), K3
	KMOVD 12(AX), K4
	VMOVAPS Z6, Z16
	TESTQ $1, R11
	JZ   fz1s1
	VFMADD231PS 0(BX), Z7, K1, Z16
	VFMADD231PS 4(BX), Z8, K2, Z16
	VFMADD231PS 8(BX), Z9, K3, Z16
fz1s1:
	TESTQ $2, R11
	JZ   fz1s2
	VFMADD231PS 0(BX)(R8*1), Z10, K1, Z16
	VFMADD231PS 4(BX)(R8*1), Z11, K2, Z16
	VFMADD231PS 8(BX)(R8*1), Z12, K3, Z16
fz1s2:
	TESTQ $4, R11
	JZ   fz1s3
	VFMADD231PS 0(BX)(R8*2), Z13, K1, Z16
	VFMADD231PS 4(BX)(R8*2), Z14, K2, Z16
	VFMADD231PS 8(BX)(R8*2), Z15, K3, Z16
fz1s3:
	FZ_BN1
	FZ_ACT(Z16, K5, K6, K7)
	VMOVUPS Z16, K4, (R14)
	ADDQ $64, BX
	ADDQ $64, R14
	SUBQ $16, CX
	JGT  fz1sstep
	INCQ R13
	JMP  fz1row
fz1next:
	FDWZ_NEXT_CHAN
	JNZ  fz1chan
	VZEROUPPER
	RET

// One stride-2 float input row: 32 floats from column x (A, B) and 32 from
// x+2 (A2, B2), zero-masked by K1..K4, give the three taps of 16 output
// columns in Z24..Z26 by in-lane VSHUFPS: even floats of A:B (tap 0), odd
// ones (tap 1), even floats of A2:B2 (tap 2). Each 128-bit lane takes two
// columns from A and two from B, so every tap — and the accumulator — holds
// the columns in the order 0 1 8 9 | 2 3 10 11 | 4 5 12 13 | 6 7 14 15,
// which one VPERMPS (FZ2_UNSHUF) undoes before the store; the tap masks K5
// (tap 0) and K6 (tap 2) are laid out in that order (tap 1 of a column is
// always in the map). FZ2_L0 reads the row at (P), FZ2_LS the row s rows on.
#define FZ2_SHUF \
	VSHUFPS $0x88, Z21, Z20, Z24 \
	VSHUFPS $0xDD, Z21, Z20, Z25 \
	VSHUFPS $0x88, Z23, Z22, Z26

#define FZ2_L0(P) \
	VMOVUPS.Z (P), K1, Z20 \
	VMOVUPS.Z 64(P), K2, Z21 \
	VMOVUPS.Z 8(P), K3, Z22 \
	VMOVUPS.Z 72(P), K4, Z23 \
	FZ2_SHUF

#define FZ2_LS(P, s) \
	VMOVUPS.Z (P)(R8*s), K1, Z20 \
	VMOVUPS.Z 64(P)(R8*s), K2, Z21 \
	VMOVUPS.Z 8(P)(R8*s), K3, Z22 \
	VMOVUPS.Z 72(P)(R8*s), K4, Z23 \
	FZ2_SHUF

// FZ2_MAC chains one kernel row's taps (in Z24..Z26) into acc.
#define FZ2_MAC(w0, w1, w2, acc) \
	VFMADD231PS Z24, w0, K5, acc \
	VFMADD231PS Z25, w1, acc \
	VFMADD231PS Z26, w2, K6, acc

#define FZ2_UNSHUF(acc) \
	VPERMPS acc, Z28, acc

// FZ2_MASKS loads a step's seven masks: K1..K4 the loads', K5/K6 taps 0 and
// 2, K7 the store's.
#define FZ2_MASKS \
	DWZ_MASK_SET(16) \
	KMOVD 0(AX), K1 \
	KMOVD 4(AX), K2 \
	KMOVD 8(AX), K3 \
	KMOVD 12(AX), K4 \
	KMOVD 16(AX), K5 \
	KMOVD 20(AX), K6 \
	KMOVD 24(AX), K7

// func fdwZ2(dst, in, w, bias, scale, shift *float32, chans int, a *dwZArgs)
//
// The stride-2 float tile (row stride 2 as well): a step is 16 columns from
// 32 input floats. A group's four output rows read nine input rows (BX, R10
// and R11 three rows apart), each loaded and deinterleaved once and chained
// into the one or two rows that read it, in kernel-row order. Every mask
// register is taken by the step, so once its loads are done K2/K3 enable
// ReLU/LeakyReLU and K1 is the epilogue's scratch.
TEXT ·fdwZ2(SB), NOSPLIT, $0-64
	FDWZ_SETUP
	VMOVDQU32 dwzUnshuf<>(SB), Z28
fz2chan:
	FDWZ_CHAN
fz2row:
	CMPQ R13, dwZArgs_outRows(R12)
	JGE  fz2next
	DWZ_GROUP(fz2single)
	LEAQ (BX)(R8*2), R10
	ADDQ R8, R10
	LEAQ (R10)(R8*2), R11
	ADDQ R8, R11
fz2gstep:
	FZ2_MASKS
	VMOVAPS Z6, Z16
	VMOVAPS Z6, Z17
	VMOVAPS Z6, Z18
	VMOVAPS Z6, Z19
	FZ2_L0(BX)
	FZ2_MAC(Z7, Z8, Z9, Z16)
	FZ2_LS(BX, 1)
	FZ2_MAC(Z10, Z11, Z12, Z16)
	FZ2_LS(BX, 2)
	FZ2_MAC(Z7, Z8, Z9, Z17)
	FZ2_MAC(Z13, Z14, Z15, Z16)
	FZ2_L0(R10)
	FZ2_MAC(Z10, Z11, Z12, Z17)
	FZ2_LS(R10, 1)
	FZ2_MAC(Z7, Z8, Z9, Z18)
	FZ2_MAC(Z13, Z14, Z15, Z17)
	FZ2_LS(R10, 2)
	FZ2_MAC(Z10, Z11, Z12, Z18)
	FZ2_L0(R11)
	FZ2_MAC(Z7, Z8, Z9, Z19)
	FZ2_MAC(Z13, Z14, Z15, Z18)
	FZ2_LS(R11, 1)
	FZ2_MAC(Z10, Z11, Z12, Z19)
	FZ2_LS(R11, 2)
	FZ2_MAC(Z13, Z14, Z15, Z19)
	KMOVD dwZArgs_relu(R12), K2
	KMOVD dwZArgs_leaky(R12), K3
	FZ_BN4
	FZ_ACT(Z16, K1, K2, K3)
	FZ_ACT(Z17, K1, K2, K3)
	FZ_ACT(Z18, K1, K2, K3)
	FZ_ACT(Z19, K1, K2, K3)
	FZ2_UNSHUF(Z16)
	FZ2_UNSHUF(Z17)
	FZ2_UNSHUF(Z18)
	FZ2_UNSHUF(Z19)
	VMOVUPS Z16, K7, (R14)
	VMOVUPS Z17, K7, (R14)(DX*1)
	VMOVUPS Z18, K7, (R14)(DX*2)
	LEAQ (R14)(DX*2), AX
	VMOVUPS Z19, K7, (AX)(DX*1)
	ADDQ $128, BX
	ADDQ $128, R10
	ADDQ $128, R11
	ADDQ $64, R14
	SUBQ $16, CX
	JGT  fz2gstep
	ADDQ $4, R13
	JMP  fz2row
fz2single:
	DWZ_ROWS_IN
	DWZ_ROW_PTRS
fz2sstep:
	FZ2_MASKS
	VMOVAPS Z6, Z16
	TESTQ $1, R11
	JZ   fz2s1
	FZ2_L0(BX)
	FZ2_MAC(Z7, Z8, Z9, Z16)
fz2s1:
	TESTQ $2, R11
	JZ   fz2s2
	FZ2_LS(BX, 1)
	FZ2_MAC(Z10, Z11, Z12, Z16)
fz2s2:
	TESTQ $4, R11
	JZ   fz2s3
	FZ2_LS(BX, 2)
	FZ2_MAC(Z13, Z14, Z15, Z16)
fz2s3:
	KMOVD dwZArgs_relu(R12), K2
	KMOVD dwZArgs_leaky(R12), K3
	FZ_BN1
	FZ_ACT(Z16, K1, K2, K3)
	FZ2_UNSHUF(Z16)
	VMOVUPS Z16, K7, (R14)
	ADDQ $128, BX
	ADDQ $64, R14
	SUBQ $16, CX
	JGT  fz2sstep
	INCQ R13
	JMP  fz2row
fz2next:
	FDWZ_NEXT_CHAN
	JNZ  fz2chan
	VZEROUPPER
	RET

// dwzLo/dwzHi interleave the even-column and odd-column dwords of the int8
// stride-1 tile (VPERMI2D) into columns 0..15 and 16..31.
DATA dwzLo<>+0(SB)/8, $0x0000001000000000
DATA dwzLo<>+8(SB)/8, $0x0000001100000001
DATA dwzLo<>+16(SB)/8, $0x0000001200000002
DATA dwzLo<>+24(SB)/8, $0x0000001300000003
DATA dwzLo<>+32(SB)/8, $0x0000001400000004
DATA dwzLo<>+40(SB)/8, $0x0000001500000005
DATA dwzLo<>+48(SB)/8, $0x0000001600000006
DATA dwzLo<>+56(SB)/8, $0x0000001700000007
GLOBL dwzLo<>(SB), RODATA, $64

DATA dwzHi<>+0(SB)/8, $0x0000001800000008
DATA dwzHi<>+8(SB)/8, $0x0000001900000009
DATA dwzHi<>+16(SB)/8, $0x0000001a0000000a
DATA dwzHi<>+24(SB)/8, $0x0000001b0000000b
DATA dwzHi<>+32(SB)/8, $0x0000001c0000000c
DATA dwzHi<>+40(SB)/8, $0x0000001d0000000d
DATA dwzHi<>+48(SB)/8, $0x0000001e0000000e
DATA dwzHi<>+56(SB)/8, $0x0000001f0000000f
GLOBL dwzHi<>(SB), RODATA, $64

// dwzPair holds the VPERMW word-index pairs that pack kernel row q's taps,
// sign-extended to words 0..8 of a register whose words 9..31 are zero, into
// the int16-pair multiplicands WA = (w[3q], w[3q+1]) and WB = (0, w[3q+2])
// (word 15 is a zero).
DATA dwzPair<>+0(SB)/8, $0x0002000f00010000
DATA dwzPair<>+8(SB)/8, $0x0005000f00040003
DATA dwzPair<>+16(SB)/8, $0x0008000f00070006
GLOBL dwzPair<>(SB), RODATA, $24

// (These tables sit here, after fdwZ2, on purpose: go vet's asmdecl checks
// the argument names of every line up to the next DATA against the TEXT
// before it, and the macros below name the int8 tiles' arguments.)

// The int8 tiles. Input bytes are sign-extended to int16 words (VPMOVSXBW,
// zero-masked by the step's load masks) and multiplied in pairs with the
// packed taps and accumulated by VPDPWSSD (never the saturating VPDPWSSDS):
// products are at most 128*128, pair sums exact, and the accumulation wraps
// like Go int32, so any summation order gives the reference's accumulator. Z11/Z12, Z13/Z14, Z15/Z16 hold the WA/WB pairs of
// kernel rows 0, 1, 2; Z17..Z24 the accumulators (a group's four rows, or a
// single row split into independent chains), Z25..Z27 the loads, Z28/Z29
// scratch. The epilogue is qrequantRow8's operation sequence per lane (as in
// QPW_REQ16): Z0 scale and Z1 bias of the channel, Z2 slope, Z3 127, Z4
// -128, Z5 0.5, Z6 the sign mask, Z7 act lo, Z10 zero, Z9 and K6 scratch.
#define QDWZ_SETUP \
	MOVQ a+48(FP), R12 \
	MOVQ dwZArgs_inRow(R12), R8 \
	MOVQ dwZArgs_outRow(R12), DX \
	MOVQ dwZArgs_act(R12), AX \
	LEAQ qpwActLo<>(SB), R14 \
	VBROADCASTSS (R14)(AX*4), Z7 \
	LEAQ qpwActSlope<>(SB), R14 \
	VBROADCASTSS (R14)(AX*4), Z2 \
	VBROADCASTSS qf127<>(SB), Z3 \
	VBROADCASTSS qfn128<>(SB), Z4 \
	VBROADCASTSS qfhalf<>(SB), Z5 \
	VBROADCASTSS qfsign<>(SB), Z6 \
	VPXORD Z10, Z10, Z10

// QDWZ_CHAN packs the channel's taps (a 9-byte masked load, then one VPERMW
// per multiplicand) and broadcasts its epilogue operands.
#define QDWZ_CHAN \
	MOVQ w+16(FP), AX \
	MOVL $0x1ff, BX \
	KMOVD BX, K1 \
	VPMOVSXBW.Z (AX), K1, Z28 \
	VPBROADCASTD dwzPair<>+0(SB), Z29 \
	VPERMW Z28, Z29, Z11 \
	VPBROADCASTD dwzPair<>+4(SB), Z29 \
	VPERMW Z28, Z29, Z12 \
	VPBROADCASTD dwzPair<>+8(SB), Z29 \
	VPERMW Z28, Z29, Z13 \
	VPBROADCASTD dwzPair<>+12(SB), Z29 \
	VPERMW Z28, Z29, Z14 \
	VPBROADCASTD dwzPair<>+16(SB), Z29 \
	VPERMW Z28, Z29, Z15 \
	VPBROADCASTD dwzPair<>+20(SB), Z29 \
	VPERMW Z28, Z29, Z16 \
	MOVQ scale+24(FP), AX \
	VBROADCASTSS (AX), Z0 \
	MOVQ bias+32(FP), AX \
	VBROADCASTSS (AX), Z1 \
	XORQ R13, R13

#define QDWZ_NEXT_CHAN \
	ADDQ $9, w+16(FP) \
	ADDQ $4, scale+24(FP) \
	ADDQ $4, bias+32(FP) \
	MOVQ dwZArgs_inPlane(R12), AX \
	ADDQ AX, in+8(FP) \
	MOVQ dwZArgs_outPlane(R12), AX \
	ADDQ AX, dst+0(FP) \
	DECQ chans+40(FP)

// QZ_REQ requantizes the 16 int32 lanes of acc in place to int32 values in
// [-128, 127]. QZ_RELU is the same sequence for ReLU with the steps that are
// identities on its non-negative values left out: max(v, 0) keeps Go's
// `v < 0` select (NaN and -0 become 0, as quantClamp makes them), the -128
// clamp cannot bind and copysign(0.5, v) is 0.5.
#define QZ_REQ(acc) \
	VCVTDQ2PS acc, acc \
	VMULPS Z0, acc, acc \
	VADDPS Z1, acc, acc \
	VMAXPS Z7, acc, acc \
	VCMPPS $1, Z10, acc, K6 \
	VMULPS Z2, acc, K6, acc \
	VMINPS Z3, acc, acc \
	VMAXPS Z4, acc, acc \
	VPANDD Z6, acc, Z9 \
	VPORD  Z5, Z9, Z9 \
	VADDPS Z9, acc, acc \
	VCVTTPS2DQ acc, acc

#define QZ_RELU(acc) \
	VCVTDQ2PS acc, acc \
	VMULPS Z0, acc, acc \
	VADDPS Z1, acc, acc \
	VMAXPS Z10, acc, acc \
	VMINPS Z3, acc, acc \
	VADDPS Z5, acc, acc \
	VCVTTPS2DQ acc, acc

#define QDWZ_ZERO4 \
	VPXORD Z17, Z17, Z17 \
	VPXORD Z18, Z18, Z18 \
	VPXORD Z19, Z19, Z19 \
	VPXORD Z20, Z20, Z20

// One stride-1 int8 kernel row of one output row, 32 columns: words from
// input offsets 0, 1 and 2 (L0, L1, L2 in Z25..Z27; dword j of Lk is the
// byte pair at 2j+k) give
//
//	out[2j]   = L0.(w0,w1) + L1.(0,w2)   (even columns, E)
//	out[2j+1] = L1.(w0,w1) + L2.(0,w2)   (odd columns, O)
//
// QZ1_L0 loads kernel row 0 from P, QZ1_LS kernel row s.
#define QZ1_L0(P) \
	VPMOVSXBW.Z (P), K1, Z25 \
	VPMOVSXBW.Z 1(P), K2, Z26 \
	VPMOVSXBW.Z 2(P), K3, Z27

#define QZ1_LS(P, s) \
	VPMOVSXBW.Z (P)(R8*s), K1, Z25 \
	VPMOVSXBW.Z 1(P)(R8*s), K2, Z26 \
	VPMOVSXBW.Z 2(P)(R8*s), K3, Z27

#define QZ1_MAC(WA, WB, E, O) \
	VPDPWSSD Z25, WA, E \
	VPDPWSSD Z26, WB, E \
	VPDPWSSD Z26, WA, O \
	VPDPWSSD Z27, WB, O

// QZ1_STORE interleaves a row's even and odd columns (VPERMI2D) and stores
// columns 0..15 at lo and 16..31 at hi under K4 and K5 (VPMOVSDB's
// saturation never binds after the clamp).
#define QZ1_STORE(E, O, lo, hi) \
	VMOVDQA32 Z30, Z28 \
	VPERMI2D O, E, Z28 \
	VMOVDQA32 Z31, Z29 \
	VPERMI2D O, E, Z29 \
	VPMOVSDB Z28, K4, lo \
	VPMOVSDB Z29, K5, hi

// One kernel row of one 32-column step of the int8 flat span at byte offset
// d (QZ1_FL0 kernel row 0, QZ1_FLS kernel row s): as QZ1_MAC, but word 2j+1
// of L1 feeds two columns — the even column 2j's tap 2 and the odd column
// 2j+1's tap 1 — and the first may be padding where the second is not (the
// last column of a row, then the first of the next). So the load's mask
// serves the odd columns, and the even columns' L1 product is merge-masked
// per dword instead: a clear bit keeps the accumulator, which for an int32
// sum is the same as adding the zero a padding tap stands for.
// QZ1_FMASKS loads the flat table's entry at R9+e: the word masks of L0, of
// L1 and of L2 (K1, K3, K4) and the even columns' tap-2 dword mask (K2).
#define QZ1_FMASKS(e) \
	KMOVD (dwZArgs_flatMasks+e)(R12)(R9*1), K1 \
	KMOVD (dwZArgs_flatMasks+e+4)(R12)(R9*1), K2 \
	KMOVD (dwZArgs_flatMasks+e+8)(R12)(R9*1), K3 \
	KMOVD (dwZArgs_flatMasks+e+12)(R12)(R9*1), K4

#define QZ1_FL0(d) \
	VPMOVSXBW.Z d(BX), K1, Z25 \
	VPMOVSXBW.Z (d+1)(BX), K3, Z26 \
	VPMOVSXBW.Z (d+2)(BX), K4, Z8

#define QZ1_FLS(d, s) \
	VPMOVSXBW.Z d(BX)(R8*s), K1, Z25 \
	VPMOVSXBW.Z (d+1)(BX)(R8*s), K3, Z26 \
	VPMOVSXBW.Z (d+2)(BX)(R8*s), K4, Z8

#define QZ1_FMAC(WA, WB, E, O) \
	VPDPWSSD Z25, WA, E \
	VPDPWSSD Z26, WB, K2, E \
	VPDPWSSD Z26, WA, O \
	VPDPWSSD Z8, WB, O

// QZ1_FSTEP accumulates one flat step at byte offset d with masks at R9+e
// into E/O.
#define QZ1_FSTEP(d, e, E, O) \
	QZ1_FMASKS(e) \
	VPXORD E, E, E \
	VPXORD O, O, O \
	QZ1_FL0(d) \
	QZ1_FMAC(Z11, Z12, E, O) \
	QZ1_FLS(d, 1) \
	QZ1_FMAC(Z13, Z14, E, O) \
	QZ1_FLS(d, 2) \
	QZ1_FMAC(Z15, Z16, E, O)

// QZ1_XSTEP is one of the flat span's extra steps (DWZ_FLAT_X): the first,
// the last, and one ending where the main steps' last ends. Their lanes may
// lie in the span's first or last row, where kernel row 0 or 2 is outside
// the map, so every kernel row has its own four masks (xMasks at AX, laid
// out as a table entry). Kernel rows 0 and 2 accumulate into Z17/Z18, row 1
// into Z19/Z20.
#define QZ1_XSTEP \
	QDWZ_ZERO4 \
	KMOVD (dwZArgs_xMasks+0)(R12)(AX*1), K1 \
	KMOVD (dwZArgs_xMasks+4)(R12)(AX*1), K2 \
	KMOVD (dwZArgs_xMasks+8)(R12)(AX*1), K3 \
	KMOVD (dwZArgs_xMasks+12)(R12)(AX*1), K4 \
	QZ1_FL0(0) \
	QZ1_FMAC(Z11, Z12, Z17, Z18) \
	KMOVD (dwZArgs_xMasks+16)(R12)(AX*1), K1 \
	KMOVD (dwZArgs_xMasks+20)(R12)(AX*1), K2 \
	KMOVD (dwZArgs_xMasks+24)(R12)(AX*1), K3 \
	KMOVD (dwZArgs_xMasks+28)(R12)(AX*1), K4 \
	QZ1_FLS(0, 1) \
	QZ1_FMAC(Z13, Z14, Z19, Z20) \
	KMOVD (dwZArgs_xMasks+32)(R12)(AX*1), K1 \
	KMOVD (dwZArgs_xMasks+36)(R12)(AX*1), K2 \
	KMOVD (dwZArgs_xMasks+40)(R12)(AX*1), K3 \
	KMOVD (dwZArgs_xMasks+44)(R12)(AX*1), K4 \
	QZ1_FLS(0, 2) \
	QZ1_FMAC(Z15, Z16, Z17, Z18) \
	VPADDD Z19, Z17, Z17 \
	VPADDD Z20, Z18, Z18

// QZ1_FIN requantizes one flat step's even and odd columns (Z17/Z18) under
// the activation and stores its 32 columns at R14; req and done name the
// labels it branches between.
#define QZ1_FIN(req, done) \
	CMPQ dwZArgs_act(R12), $1 \
	JNE  req \
	QZ_RELU(Z17) \
	QZ_RELU(Z18) \
	JMP  done \
req: \
	QZ_REQ(Z17) \
	QZ_REQ(Z18) \
done: \
	K_ONES \
	QZ1_STORE(Z17, Z18, (R14), 16(R14))

// K_ONES sets the store masks K4/K5 to all ones (the flat span stores whole
// steps).
#define K_ONES \
	KXNORD K4, K4, K4 \
	KXNORD K5, K5, K5

// func qdwZ1(dst, in, w *int8, scale, bias *float32, chans int, a *dwZArgs)
//
// The stride-1 int8 tile: a step is 32 columns (masks: K1..K3 the loads',
// K4/K5 the stores' of columns 0..15 and 16..31).
TEXT ·qdwZ1(SB), NOSPLIT, $0-56
	QDWZ_SETUP
	VMOVDQU32 dwzLo<>(SB), Z30
	VMOVDQU32 dwzHi<>(SB), Z31
qz1chan:
	QDWZ_CHAN
qz1row:
	CMPQ R13, dwZArgs_outRows(R12)
	JGE  qz1next
	DWZ_FLAT(qz1rows, 32, 1, 16)
qz1f4:
	CMPQ CX, $128
	JLT  qz1f1
	QZ1_FSTEP(0, 0, Z17, Z18)
	QZ1_FSTEP(32, 16, Z19, Z20)
	QZ1_FSTEP(64, 32, Z21, Z22)
	QZ1_FSTEP(96, 48, Z23, Z24)
	CMPQ dwZArgs_act(R12), $1
	JNE  qz1f4req
	QZ_RELU(Z17)
	QZ_RELU(Z18)
	QZ_RELU(Z19)
	QZ_RELU(Z20)
	QZ_RELU(Z21)
	QZ_RELU(Z22)
	QZ_RELU(Z23)
	QZ_RELU(Z24)
	JMP  qz1f4store
qz1f4req:
	QZ_REQ(Z17)
	QZ_REQ(Z18)
	QZ_REQ(Z19)
	QZ_REQ(Z20)
	QZ_REQ(Z21)
	QZ_REQ(Z22)
	QZ_REQ(Z23)
	QZ_REQ(Z24)
qz1f4store:
	K_ONES
	QZ1_STORE(Z17, Z18, (R14), 16(R14))
	QZ1_STORE(Z19, Z20, 32(R14), 48(R14))
	QZ1_STORE(Z21, Z22, 64(R14), 80(R14))
	QZ1_STORE(Z23, Z24, 96(R14), 112(R14))
	ADDQ $128, BX
	ADDQ $128, R14
	SUBQ $128, CX
	DWZ_FLAT_NEXT(64)
	JMP  qz1f4
qz1f1:
	CMPQ CX, $32
	JLT  qz1fx
	QZ1_FSTEP(0, 0, Z17, Z18)
	QZ1_FIN(qz1fareq, qz1fastore)
	ADDQ $32, BX
	ADDQ $32, R14
	SUBQ $32, CX
	DWZ_FLAT_NEXT(16)
	JMP  qz1f1
qz1fx:
	XORQ R10, R10
qz1fxstep:
	DWZ_FLAT_X(qz1fxnext)
	QZ1_XSTEP
	QZ1_FIN(qz1fbreq, qz1fbstore)
qz1fxnext:
	INCQ R10
	CMPQ R10, $3
	JLT  qz1fxstep
	MOVQ dwZArgs_flatRow1(R12), R13
	JMP  qz1row
qz1rows:
	DWZ_GROUP(qz1single)
qz1gstep:
	DWZ_MASK_SET(32)
	KMOVD 0(AX), K1
	KMOVD 4(AX), K2
	KMOVD 8(AX), K3
	KMOVD 12(AX), K4
	KMOVD 16(AX), K5
	QDWZ_ZERO4
	VPXORD Z21, Z21, Z21
	VPXORD Z22, Z22, Z22
	VPXORD Z23, Z23, Z23
	VPXORD Z24, Z24, Z24
	QZ1_L0(BX)
	QZ1_MAC(Z11, Z12, Z17, Z18)
	QZ1_L0(R10)
	QZ1_MAC(Z11, Z12, Z19, Z20)
	QZ1_L0(R11)
	QZ1_MAC(Z11, Z12, Z21, Z22)
	QZ1_L0(R9)
	QZ1_MAC(Z11, Z12, Z23, Z24)
	QZ1_LS(BX, 1)
	QZ1_MAC(Z13, Z14, Z17, Z18)
	QZ1_LS(R10, 1)
	QZ1_MAC(Z13, Z14, Z19, Z20)
	QZ1_LS(R11, 1)
	QZ1_MAC(Z13, Z14, Z21, Z22)
	QZ1_LS(R9, 1)
	QZ1_MAC(Z13, Z14, Z23, Z24)
	QZ1_LS(BX, 2)
	QZ1_MAC(Z15, Z16, Z17, Z18)
	QZ1_LS(R10, 2)
	QZ1_MAC(Z15, Z16, Z19, Z20)
	QZ1_LS(R11, 2)
	QZ1_MAC(Z15, Z16, Z21, Z22)
	QZ1_LS(R9, 2)
	QZ1_MAC(Z15, Z16, Z23, Z24)
	CMPQ dwZArgs_act(R12), $1
	JNE  qz1greq
	QZ_RELU(Z17)
	QZ_RELU(Z18)
	QZ_RELU(Z19)
	QZ_RELU(Z20)
	QZ_RELU(Z21)
	QZ_RELU(Z22)
	QZ_RELU(Z23)
	QZ_RELU(Z24)
	JMP  qz1gstore
qz1greq:
	QZ_REQ(Z17)
	QZ_REQ(Z18)
	QZ_REQ(Z19)
	QZ_REQ(Z20)
	QZ_REQ(Z21)
	QZ_REQ(Z22)
	QZ_REQ(Z23)
	QZ_REQ(Z24)
qz1gstore:
	QZ1_STORE(Z17, Z18, (R14), 16(R14))
	QZ1_STORE(Z19, Z20, (R14)(DX*1), 16(R14)(DX*1))
	QZ1_STORE(Z21, Z22, (R14)(DX*2), 16(R14)(DX*2))
	LEAQ (R14)(DX*2), AX
	QZ1_STORE(Z23, Z24, (AX)(DX*1), 16(AX)(DX*1))
	ADDQ $32, BX
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R9
	ADDQ $32, R14
	SUBQ $32, CX
	JGT  qz1gstep
	ADDQ $4, R13
	JMP  qz1row
qz1single:
	DWZ_ROWS_IN
	DWZ_ROW_PTRS
qz1sstep:
	DWZ_MASK_SET(32)
	KMOVD 0(AX), K1
	KMOVD 4(AX), K2
	KMOVD 8(AX), K3
	KMOVD 12(AX), K4
	KMOVD 16(AX), K5
	QDWZ_ZERO4
	TESTQ $1, R11
	JZ   qz1s1
	QZ1_L0(BX)
	QZ1_MAC(Z11, Z12, Z17, Z18)
qz1s1:
	TESTQ $2, R11
	JZ   qz1s2
	QZ1_LS(BX, 1)
	QZ1_MAC(Z13, Z14, Z19, Z20)
qz1s2:
	TESTQ $4, R11
	JZ   qz1s3
	QZ1_LS(BX, 2)
	QZ1_MAC(Z15, Z16, Z17, Z18)
qz1s3:
	VPADDD Z19, Z17, Z17
	VPADDD Z20, Z18, Z18
	CMPQ dwZArgs_act(R12), $1
	JNE  qz1sreq
	QZ_RELU(Z17)
	QZ_RELU(Z18)
	JMP  qz1sstore
qz1sreq:
	QZ_REQ(Z17)
	QZ_REQ(Z18)
qz1sstore:
	QZ1_STORE(Z17, Z18, (R14), 16(R14))
	ADDQ $32, BX
	ADDQ $32, R14
	SUBQ $32, CX
	JGT  qz1sstep
	INCQ R13
	JMP  qz1row
qz1next:
	QDWZ_NEXT_CHAN
	JNZ  qz1chan
	VZEROUPPER
	RET

// One stride-2 int8 kernel row of one output row, 16 columns: the byte pairs
// of L0 (offset 0, Z25) are taps 0 and 1 of consecutive columns, and L1
// (offset 1, Z26) carries tap 2 in the high word of each pair — stride 2
// needs no shuffle. QZ2_MAC adds both products to A and B (the same
// register in a group, two chains of a single row).
#define QZ2_L0(P) \
	VPMOVSXBW.Z (P), K1, Z25 \
	VPMOVSXBW.Z 1(P), K2, Z26

#define QZ2_LS(P, s) \
	VPMOVSXBW.Z (P)(R8*s), K1, Z25 \
	VPMOVSXBW.Z 1(P)(R8*s), K2, Z26

#define QZ2_MAC(WA, WB, A, B) \
	VPDPWSSD Z25, WA, A \
	VPDPWSSD Z26, WB, B

// func qdwZ2(dst, in, w *int8, scale, bias *float32, chans int, a *dwZArgs)
//
// The stride-2 int8 tile: a step is 16 columns from 32 input bytes (masks:
// K1/K2 the loads', K3 the store's).
TEXT ·qdwZ2(SB), NOSPLIT, $0-56
	QDWZ_SETUP
qz2chan:
	QDWZ_CHAN
qz2row:
	CMPQ R13, dwZArgs_outRows(R12)
	JGE  qz2next
	DWZ_GROUP(qz2single)
qz2gstep:
	DWZ_MASK_SET(16)
	KMOVD 0(AX), K1
	KMOVD 4(AX), K2
	KMOVD 8(AX), K3
	QDWZ_ZERO4
	QZ2_L0(BX)
	QZ2_MAC(Z11, Z12, Z17, Z17)
	QZ2_L0(R10)
	QZ2_MAC(Z11, Z12, Z18, Z18)
	QZ2_L0(R11)
	QZ2_MAC(Z11, Z12, Z19, Z19)
	QZ2_L0(R9)
	QZ2_MAC(Z11, Z12, Z20, Z20)
	QZ2_LS(BX, 1)
	QZ2_MAC(Z13, Z14, Z17, Z17)
	QZ2_LS(R10, 1)
	QZ2_MAC(Z13, Z14, Z18, Z18)
	QZ2_LS(R11, 1)
	QZ2_MAC(Z13, Z14, Z19, Z19)
	QZ2_LS(R9, 1)
	QZ2_MAC(Z13, Z14, Z20, Z20)
	QZ2_LS(BX, 2)
	QZ2_MAC(Z15, Z16, Z17, Z17)
	QZ2_LS(R10, 2)
	QZ2_MAC(Z15, Z16, Z18, Z18)
	QZ2_LS(R11, 2)
	QZ2_MAC(Z15, Z16, Z19, Z19)
	QZ2_LS(R9, 2)
	QZ2_MAC(Z15, Z16, Z20, Z20)
	CMPQ dwZArgs_act(R12), $1
	JNE  qz2greq
	QZ_RELU(Z17)
	QZ_RELU(Z18)
	QZ_RELU(Z19)
	QZ_RELU(Z20)
	JMP  qz2gstore
qz2greq:
	QZ_REQ(Z17)
	QZ_REQ(Z18)
	QZ_REQ(Z19)
	QZ_REQ(Z20)
qz2gstore:
	VPMOVSDB Z17, K3, (R14)
	VPMOVSDB Z18, K3, (R14)(DX*1)
	VPMOVSDB Z19, K3, (R14)(DX*2)
	LEAQ (R14)(DX*2), AX
	VPMOVSDB Z20, K3, (AX)(DX*1)
	ADDQ $32, BX
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R9
	ADDQ $16, R14
	SUBQ $16, CX
	JGT  qz2gstep
	ADDQ $4, R13
	JMP  qz2row
qz2single:
	DWZ_ROWS_IN
	DWZ_ROW_PTRS
qz2sstep:
	DWZ_MASK_SET(16)
	KMOVD 0(AX), K1
	KMOVD 4(AX), K2
	KMOVD 8(AX), K3
	QDWZ_ZERO4
	TESTQ $1, R11
	JZ   qz2s1
	QZ2_L0(BX)
	QZ2_MAC(Z11, Z12, Z17, Z18)
qz2s1:
	TESTQ $2, R11
	JZ   qz2s2
	QZ2_LS(BX, 1)
	QZ2_MAC(Z13, Z14, Z19, Z20)
qz2s2:
	TESTQ $4, R11
	JZ   qz2s3
	QZ2_LS(BX, 2)
	QZ2_MAC(Z15, Z16, Z17, Z18)
qz2s3:
	VPADDD Z18, Z17, Z17
	VPADDD Z20, Z19, Z19
	VPADDD Z19, Z17, Z17
	CMPQ dwZArgs_act(R12), $1
	JNE  qz2sreq
	QZ_RELU(Z17)
	JMP  qz2sstore
qz2sreq:
	QZ_REQ(Z17)
qz2sstore:
	VPMOVSDB Z17, K3, (R14)
	ADDQ $32, BX
	ADDQ $16, R14
	SUBQ $16, CX
	JGT  qz2sstep
	INCQ R13
	JMP  qz2row
qz2next:
	QDWZ_NEXT_CHAN
	JNZ  qz2chan
	VZEROUPPER
	RET
