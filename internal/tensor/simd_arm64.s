//go:build arm64

#include "textflag.h"

// NEON ports of the int8 kernel surface. The scalar Go kernels are the
// behavioural contract; every tile here computes bit-identical results:
//
//   - integer tiles widen int8 operands to int16 and accumulate through
//     SMLAL/SMLAL2, whose int16xint16+int32 lanes are exact for int8-range
//     products and wrap exactly like Go int32 addition;
//   - the float epilogues replicate Go's op sequence instruction for
//     instruction: separate multiply and add (never fused - Go rounds
//     twice), clamp to [-128,127] before rounding, round half away from
//     zero as v + copysign(0.5, v), then truncate toward zero.
//
// Go's arm64 assembler lacks mnemonics for several ASIMD instructions
// (SSHLL, SMLAL, SMAX, ADDV, SCVTF/FCVTZS vector, FMUL/FADD/FMIN/FMAX
// vector, FCMGE, XTN); those are emitted as WORD-encoded machine
// instructions through the macros below. Register numbers are passed as
// plain integers (Vn = n).

// SSHLL Vd.8H, Vn.8B, #0  - sign-extend the low 8 bytes to int16.
#define SSHLL8H(rn, rd) WORD $(0x0F08A400 | rn<<5 | rd)
// SSHLL2 Vd.8H, Vn.16B, #0 - sign-extend the high 8 bytes to int16.
#define SSHLL28H(rn, rd) WORD $(0x4F08A400 | rn<<5 | rd)
// SMLAL Vd.4S, Vn.4H, Vm.4H - widening multiply-accumulate, low halves.
#define SMLAL4S(rm, rn, rd) WORD $(0x0E608000 | rm<<16 | rn<<5 | rd)
// SMLAL2 Vd.4S, Vn.8H, Vm.8H - widening multiply-accumulate, high halves.
#define SMLAL24S(rm, rn, rd) WORD $(0x4E608000 | rm<<16 | rn<<5 | rd)
// SMAX Vd.8B, Vn.8B, Vm.8B - signed byte max.
#define SMAX8B(rm, rn, rd) WORD $(0x0E206400 | rm<<16 | rn<<5 | rd)
// ADDV Sd, Vn.4S - horizontal int32 sum into lane 0.
#define ADDV4S(rn, rd) WORD $(0x4EB1B800 | rn<<5 | rd)
// SCVTF Vd.4S, Vn.4S - int32 -> float32.
#define SCVTF4S(rn, rd) WORD $(0x4E21D800 | rn<<5 | rd)
// FCVTZS Vd.4S, Vn.4S - float32 -> int32, truncating toward zero.
#define FCVTZS4S(rn, rd) WORD $(0x4EA1B800 | rn<<5 | rd)
// FMUL Vd.4S, Vn.4S, Vm.4S
#define FMUL4S(rm, rn, rd) WORD $(0x6E20DC00 | rm<<16 | rn<<5 | rd)
// FADD Vd.4S, Vn.4S, Vm.4S
#define FADD4S(rm, rn, rd) WORD $(0x4E20D400 | rm<<16 | rn<<5 | rd)
// FMAX Vd.4S, Vn.4S, Vm.4S
#define FMAX4S(rm, rn, rd) WORD $(0x4E20F400 | rm<<16 | rn<<5 | rd)
// FMIN Vd.4S, Vn.4S, Vm.4S
#define FMIN4S(rm, rn, rd) WORD $(0x4EA0F400 | rm<<16 | rn<<5 | rd)
// FCMGE Vd.4S, Vn.4S, Vm.4S - lane mask of Vn >= Vm.
#define FCMGE4S(rm, rn, rd) WORD $(0x6E20E400 | rm<<16 | rn<<5 | rd)
// XTN Vd.4H, Vn.4S - narrow int32 -> int16 into the low half.
#define XTN4H(rn, rd) WORD $(0x0E612800 | rn<<5 | rd)
// XTN2 Vd.8H, Vn.4S - narrow int32 -> int16 into the high half.
#define XTN28H(rn, rd) WORD $(0x4E612800 | rn<<5 | rd)
// XTN Vd.8B, Vn.8H - narrow int16 -> int8.
#define XTN8B(rn, rd) WORD $(0x0E212800 | rn<<5 | rd)

// func qpwTile16(acc *int32, src *int8, wgt *int32, inC, chanStride int)
//
// The 4-output-channel x 16-column pointwise tile: for b in [0,4), j in
// [0,16): acc[b*16+j] = sum over g of wgt[g*4+b] * src[g*chanStride+j].
// The 64 int32 accumulators live in V0-V15 across the whole channel
// reduction. inC >= 1; the tile is fully written.
TEXT ·qpwTile16(SB), NOSPLIT, $0-40
	MOVD acc+0(FP), R0
	MOVD src+8(FP), R1
	MOVD wgt+16(FP), R2
	MOVD inC+24(FP), R3
	MOVD chanStride+32(FP), R4
	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16
	VEOR V2.B16, V2.B16, V2.B16
	VEOR V3.B16, V3.B16, V3.B16
	VEOR V4.B16, V4.B16, V4.B16
	VEOR V5.B16, V5.B16, V5.B16
	VEOR V6.B16, V6.B16, V6.B16
	VEOR V7.B16, V7.B16, V7.B16
	VEOR V8.B16, V8.B16, V8.B16
	VEOR V9.B16, V9.B16, V9.B16
	VEOR V10.B16, V10.B16, V10.B16
	VEOR V11.B16, V11.B16, V11.B16
	VEOR V12.B16, V12.B16, V12.B16
	VEOR V13.B16, V13.B16, V13.B16
	VEOR V14.B16, V14.B16, V14.B16
	VEOR V15.B16, V15.B16, V15.B16
pwloop:
	VLD1 (R1), [V16.B16]
	ADD  R4, R1
	SSHLL8H(16, 17)  // columns 0..7 as int16
	SSHLL28H(16, 18) // columns 8..15
	MOVW.P 4(R2), R5
	VDUP   R5, V19.H8
	SMLAL4S(19, 17, 0)
	SMLAL24S(19, 17, 1)
	SMLAL4S(19, 18, 2)
	SMLAL24S(19, 18, 3)
	MOVW.P 4(R2), R5
	VDUP   R5, V19.H8
	SMLAL4S(19, 17, 4)
	SMLAL24S(19, 17, 5)
	SMLAL4S(19, 18, 6)
	SMLAL24S(19, 18, 7)
	MOVW.P 4(R2), R5
	VDUP   R5, V19.H8
	SMLAL4S(19, 17, 8)
	SMLAL24S(19, 17, 9)
	SMLAL4S(19, 18, 10)
	SMLAL24S(19, 18, 11)
	MOVW.P 4(R2), R5
	VDUP   R5, V19.H8
	SMLAL4S(19, 17, 12)
	SMLAL24S(19, 17, 13)
	SMLAL4S(19, 18, 14)
	SMLAL24S(19, 18, 15)
	SUBS $1, R3
	BNE  pwloop
	VST1.P [V0.S4, V1.S4, V2.S4, V3.S4], 64(R0)
	VST1.P [V4.S4, V5.S4, V6.S4, V7.S4], 64(R0)
	VST1.P [V8.S4, V9.S4, V10.S4, V11.S4], 64(R0)
	VST1.P [V12.S4, V13.S4, V14.S4, V15.S4], 64(R0)
	RET

// func qdw3Row(acc *int32, src *int8, wgt *int32, n int)
//
// The fused depthwise 3-tap row sweep: acc[i] += wgt[0]*src[i] +
// wgt[1]*src[i+1] + wgt[2]*src[i+2]. Each step loads 16 source bytes and
// shifts taps 1 and 2 out with VEXT, so src must have n+8 readable bytes
// (the Go wrapper's (n-6)&^7 bound guarantees it). n must be a positive
// multiple of 8.
TEXT ·qdw3Row(SB), NOSPLIT, $0-32
	MOVD acc+0(FP), R0
	MOVD src+8(FP), R1
	MOVD wgt+16(FP), R2
	MOVD n+24(FP), R3
	MOVW 0(R2), R4
	VDUP R4, V20.H8
	MOVW 4(R2), R4
	VDUP R4, V21.H8
	MOVW 8(R2), R4
	VDUP R4, V22.H8
dwloop:
	VLD1 (R1), [V16.B16]
	ADD  $8, R1
	VEXT $1, V16.B16, V16.B16, V17.B16
	VEXT $2, V16.B16, V16.B16, V18.B16
	SSHLL8H(16, 16)
	SSHLL8H(17, 17)
	SSHLL8H(18, 18)
	VLD1 (R0), [V24.S4, V25.S4]
	SMLAL4S(20, 16, 24)
	SMLAL24S(20, 16, 25)
	SMLAL4S(21, 17, 24)
	SMLAL24S(21, 17, 25)
	SMLAL4S(22, 18, 24)
	SMLAL24S(22, 18, 25)
	VST1.P [V24.S4, V25.S4], 32(R0)
	SUBS $8, R3
	BNE  dwloop
	RET

// func qmaxPair8(dst *int8, a, b *int8, n int)
//
// One output row of a 2x2 stride-2 max pool: dst[i] = max(a[2i], a[2i+1],
// b[2i], b[2i+1]) for i in [0,n). a and b must have 2n readable bytes;
// n must be a positive multiple of 8.
TEXT ·qmaxPair8(SB), NOSPLIT, $0-32
	MOVD dst+0(FP), R0
	MOVD a+8(FP), R1
	MOVD b+16(FP), R2
	MOVD n+24(FP), R3
maxloop:
	VLD2.P 16(R1), [V0.B8, V1.B8]
	VLD2.P 16(R2), [V2.B8, V3.B8]
	SMAX8B(1, 0, 0)
	SMAX8B(3, 2, 2)
	SMAX8B(2, 0, 0)
	VST1.P [V0.B8], 8(R0)
	SUBS $8, R3
	BNE  maxloop
	RET

// func qdotKernel(a, b *int8, n int) int32
//
// Wrapping int32 dot product over n int8 elements; n must be a positive
// multiple of 16. Lane sums are reordered relative to the scalar loop,
// which wrapping addition makes bit-identical.
TEXT ·qdotKernel(SB), NOSPLIT, $0-28
	MOVD a+0(FP), R0
	MOVD b+8(FP), R1
	MOVD n+16(FP), R2
	VEOR V16.B16, V16.B16, V16.B16
	VEOR V17.B16, V17.B16, V17.B16
dotloop:
	VLD1.P 16(R0), [V0.B16]
	VLD1.P 16(R1), [V1.B16]
	SSHLL8H(0, 2)
	SSHLL28H(0, 3)
	SSHLL8H(1, 4)
	SSHLL28H(1, 5)
	SMLAL4S(4, 2, 16)
	SMLAL24S(4, 2, 17)
	SMLAL4S(5, 3, 16)
	SMLAL24S(5, 3, 17)
	SUBS $16, R2
	BNE  dotloop
	VADD V17.S4, V16.S4, V16.S4
	ADDV4S(16, 16)
	VMOV V16.S[0], R0
	MOVW R0, ret+24(FP)
	RET

// qround8 clamps V1:V2 (8 float32 lanes) to [-128,127], rounds half away
// from zero, truncates to int32, narrows to int8 and stores 8 bytes at R0.
// Expects V22=127.0, V23=-128.0, V24=0.5, V25=sign mask; clobbers V3.
// The order matches the scalar quantClamp exactly: clamp first (so the
// +-0.5 nudge cannot cross the clamp boundary), then round, then a
// truncating convert.
#define qround8 \
	FMIN4S(22, 1, 1)                  \
	FMAX4S(23, 1, 1)                  \
	FMIN4S(22, 2, 2)                  \
	FMAX4S(23, 2, 2)                  \
	VAND V25.B16, V1.B16, V3.B16      \
	VORR V24.B16, V3.B16, V3.B16      \
	FADD4S(3, 1, 1)                   \
	VAND V25.B16, V2.B16, V3.B16      \
	VORR V24.B16, V3.B16, V3.B16      \
	FADD4S(3, 2, 2)                   \
	FCVTZS4S(1, 1)                    \
	FCVTZS4S(2, 2)                    \
	XTN4H(1, 1)                       \
	XTN28H(2, 1)                      \
	XTN8B(1, 1)                       \
	VST1.P [V1.B8], 8(R0)

// func qrequantRow8(dst *int8, acc *int32, scale, bias float32, act, n int)
//
// The requantize+activation epilogue: dst[i] = clamp(round(act(acc[i]*scale
// + bias))). act selects none (0), ReLU (1) or LeakyReLU 0.1 (2). Multiply
// and add stay separate ops - Go rounds twice and a fused multiply-add
// would not. n must be a positive multiple of 8.
TEXT ·qrequantRow8(SB), NOSPLIT, $0-40
	MOVD  dst+0(FP), R0
	MOVD  acc+8(FP), R1
	FMOVS scale+16(FP), F0
	FMOVS bias+20(FP), F1
	MOVD  act+24(FP), R2
	MOVD  n+32(FP), R3
	VDUP  V0.S[0], V20.S4
	VDUP  V1.S[0], V21.S4
	MOVD  $0x42fe0000, R4 // 127.0
	VDUP  R4, V22.S4
	MOVD  $0xc3000000, R4 // -128.0
	VDUP  R4, V23.S4
	MOVD  $0x3f000000, R4 // 0.5
	VDUP  R4, V24.S4
	MOVD  $0x80000000, R4 // float32 sign bit
	VDUP  R4, V25.S4
	VEOR  V26.B16, V26.B16, V26.B16
	MOVD  $0x3dcccccd, R4 // 0.1, the LeakyReLU slope
	VDUP  R4, V27.S4
	CMP   $1, R2
	BEQ   rqrelu
	CMP   $2, R2
	BEQ   rqleaky
rqnone:
	VLD1.P 32(R1), [V1.S4, V2.S4]
	SCVTF4S(1, 1)
	SCVTF4S(2, 2)
	FMUL4S(20, 1, 1)
	FMUL4S(20, 2, 2)
	FADD4S(21, 1, 1)
	FADD4S(21, 2, 2)
	qround8
	SUBS $8, R3
	BNE  rqnone
	RET
rqrelu:
	VLD1.P 32(R1), [V1.S4, V2.S4]
	SCVTF4S(1, 1)
	SCVTF4S(2, 2)
	FMUL4S(20, 1, 1)
	FMUL4S(20, 2, 2)
	FADD4S(21, 1, 1)
	FADD4S(21, 2, 2)
	FMAX4S(26, 1, 1)
	FMAX4S(26, 2, 2)
	qround8
	SUBS $8, R3
	BNE  rqrelu
	RET
rqleaky:
	VLD1.P 32(R1), [V1.S4, V2.S4]
	SCVTF4S(1, 1)
	SCVTF4S(2, 2)
	FMUL4S(20, 1, 1)
	FMUL4S(20, 2, 2)
	FADD4S(21, 1, 1)
	FADD4S(21, 2, 2)
	FMUL4S(27, 1, 4)  // leak = v * 0.1
	FCMGE4S(26, 1, 5) // mask = v >= 0
	VBSL V4.B16, V1.B16, V5.B16
	VMOV V5.B16, V1.B16
	FMUL4S(27, 2, 4)
	FCMGE4S(26, 2, 5)
	VBSL V4.B16, V2.B16, V5.B16
	VMOV V5.B16, V2.B16
	qround8
	SUBS $8, R3
	BNE  rqleaky
	RET

// func qquantizeRow8(dst *int8, src *float32, inv float32, n int)
//
// The input quantizer: dst[i] = clamp(round(src[i] * inv)). n must be a
// positive multiple of 8.
TEXT ·qquantizeRow8(SB), NOSPLIT, $0-32
	MOVD  dst+0(FP), R0
	MOVD  src+8(FP), R1
	FMOVS inv+16(FP), F0
	MOVD  n+24(FP), R2
	VDUP  V0.S[0], V20.S4
	MOVD  $0x42fe0000, R4 // 127.0
	VDUP  R4, V22.S4
	MOVD  $0xc3000000, R4 // -128.0
	VDUP  R4, V23.S4
	MOVD  $0x3f000000, R4 // 0.5
	VDUP  R4, V24.S4
	MOVD  $0x80000000, R4 // float32 sign bit
	VDUP  R4, V25.S4
qzloop:
	VLD1.P 32(R1), [V1.S4, V2.S4]
	FMUL4S(20, 1, 1)
	FMUL4S(20, 2, 2)
	qround8
	SUBS $8, R2
	BNE  qzloop
	RET

// ---------------------------------------------------------------------------
// Float32 kernel tiles.
//
// The contract is bit-identity with the scalar Go kernels ON THIS
// ARCHITECTURE: gc on arm64 fuses x*y + z into a single-rounding FMADD, so
// these tiles accumulate through fused FMLA — one rounding per tap, exactly
// like the scalar loop they replace. (The amd64 tiles keep multiply and add
// separate for the same reason: gc there rounds twice.) Vector lanes always
// hold independent output elements — output columns, features or channels —
// and each element's taps chain in the scalar order, so no float addition is
// ever reordered. Max-pool selection uses FCMGT+BSL rather than FMAX to
// replicate the scalar `if v > acc` exactly around NaNs and signed zeros.

// FMLA Vd.4S, Vn.4S, Vm.4S - fused multiply-accumulate: Vd += Vn*Vm.
#define FMLA4S(rm, rn, rd) WORD $(0x4E20CC00 | rm<<16 | rn<<5 | rd)
// FCMGT Vd.4S, Vn.4S, Vm.4S - lane mask of Vn > Vm.
#define FCMGT4S(rm, rn, rd) WORD $(0x6EA0E400 | rm<<16 | rn<<5 | rd)
// TRN1 Vd.4S, Vn.4S, Vm.4S - [Vn.0, Vm.0, Vn.2, Vm.2].
#define TRN14S(rm, rn, rd) WORD $(0x4E802800 | rm<<16 | rn<<5 | rd)
// TRN2 Vd.4S, Vn.4S, Vm.4S - [Vn.1, Vm.1, Vn.3, Vm.3].
#define TRN24S(rm, rn, rd) WORD $(0x4E806800 | rm<<16 | rn<<5 | rd)
// TRN1 Vd.2D, Vn.2D, Vm.2D - [Vn.d0, Vm.d0].
#define TRN12D(rm, rn, rd) WORD $(0x4EC02800 | rm<<16 | rn<<5 | rd)
// TRN2 Vd.2D, Vn.2D, Vm.2D - [Vn.d1, Vm.d1].
#define TRN22D(rm, rn, rd) WORD $(0x4EC06800 | rm<<16 | rn<<5 | rd)

// func fdw3Row(acc *float32, src *float32, wgt *float32, n int)
//
// The fused depthwise 3-tap row sweep: acc[i] += wgt[0]*src[i] +
// wgt[1]*src[i+1] + wgt[2]*src[i+2], taps chained per element in ascending
// order. wgt points at 4 floats (the wrapper pads); src must have n+2
// readable floats. n must be a positive multiple of 8.
TEXT ·fdw3Row(SB), NOSPLIT, $0-32
	MOVD acc+0(FP), R0
	MOVD src+8(FP), R1
	MOVD wgt+16(FP), R2
	MOVD n+24(FP), R3
	VLD1 (R2), [V24.S4]
	VDUP V24.S[0], V8.S4
	VDUP V24.S[1], V9.S4
	VDUP V24.S[2], V10.S4
fdwloop:
	ADD  $4, R1, R12
	ADD  $8, R1, R13
	VLD1 (R1), [V16.S4, V17.S4]
	VLD1 (R12), [V18.S4, V19.S4]
	VLD1 (R13), [V4.S4, V5.S4]
	ADD  $32, R1
	VLD1 (R0), [V0.S4, V1.S4]
	FMLA4S(8, 16, 0)
	FMLA4S(9, 18, 0)
	FMLA4S(10, 4, 0)
	FMLA4S(8, 17, 1)
	FMLA4S(9, 19, 1)
	FMLA4S(10, 5, 1)
	VST1.P [V0.S4, V1.S4], 32(R0)
	SUBS $8, R3
	BNE  fdwloop
	RET

// func fmaxPair8(dst *float32, a, b *float32, n int)
//
// One output row of an unpadded 2x2 stride-2 float max pool: dst[i] folds
// a[2i], a[2i+1], b[2i], b[2i+1] into a -Inf-seeded accumulator with the
// scalar `if v > acc` semantics — FCMGT+BSL keeps the accumulator on NaN
// candidates and signed-zero ties exactly like the scalar compare, which
// FMAX would not. a and b must have 2n readable floats; n must be a
// positive multiple of 8 (each step emits 4 outputs).
TEXT ·fmaxPair8(SB), NOSPLIT, $0-32
	MOVD dst+0(FP), R0
	MOVD a+8(FP), R1
	MOVD b+16(FP), R2
	MOVD n+24(FP), R3
	MOVD $0xff800000, R4 // float32 -Inf
	VDUP R4, V20.S4
fmaxloop:
	VLD2.P 32(R1), [V0.S4, V1.S4]
	VLD2.P 32(R2), [V2.S4, V3.S4]
	VMOV V20.B16, V4.B16
	FCMGT4S(4, 0, 5)             // V5 = a-even > acc
	VBSL V4.B16, V0.B16, V5.B16
	VMOV V5.B16, V4.B16
	FCMGT4S(4, 1, 5)             // a-odd
	VBSL V4.B16, V1.B16, V5.B16
	VMOV V5.B16, V4.B16
	FCMGT4S(4, 2, 5)             // b-even
	VBSL V4.B16, V2.B16, V5.B16
	VMOV V5.B16, V4.B16
	FCMGT4S(4, 3, 5)             // b-odd
	VBSL V4.B16, V3.B16, V5.B16
	VST1.P [V5.S4], 16(R0)
	SUBS $4, R3
	BNE  fmaxloop
	RET

// func fpwTile16(acc *float32, accStride int, src *float32, chanStride int, wgt *float32, bias *float32, inC int)
//
// The 4-output-channel x 16-column float pointwise tile: for b in [0,4),
// j in [0,16): acc[b*accStride+j] = bias[b] + sum over g of wgt[g*4+b] *
// src[g*chanStride+j]. The 64 float32 accumulators live in V0-V15 across
// the whole channel reduction, seeded from the bias so overlapped tail
// tiles recompute bit-identically. inC >= 1; the tile is fully written.
TEXT ·fpwTile16(SB), NOSPLIT, $0-56
	MOVD acc+0(FP), R0
	MOVD accStride+8(FP), R3
	MOVD src+16(FP), R1
	MOVD chanStride+24(FP), R4
	MOVD wgt+32(FP), R2
	MOVD bias+40(FP), R5
	MOVD inC+48(FP), R6
	LSL  $2, R4, R4
	VLD1 (R5), [V24.S4]
	VDUP V24.S[0], V0.S4
	VDUP V24.S[0], V1.S4
	VDUP V24.S[0], V2.S4
	VDUP V24.S[0], V3.S4
	VDUP V24.S[1], V4.S4
	VDUP V24.S[1], V5.S4
	VDUP V24.S[1], V6.S4
	VDUP V24.S[1], V7.S4
	VDUP V24.S[2], V8.S4
	VDUP V24.S[2], V9.S4
	VDUP V24.S[2], V10.S4
	VDUP V24.S[2], V11.S4
	VDUP V24.S[3], V12.S4
	VDUP V24.S[3], V13.S4
	VDUP V24.S[3], V14.S4
	VDUP V24.S[3], V15.S4
fpwloop:
	VLD1 (R1), [V16.S4, V17.S4, V18.S4, V19.S4]
	ADD  R4, R1
	VLD1.P 16(R2), [V20.S4]
	VDUP V20.S[0], V21.S4
	FMLA4S(21, 16, 0)
	FMLA4S(21, 17, 1)
	FMLA4S(21, 18, 2)
	FMLA4S(21, 19, 3)
	VDUP V20.S[1], V21.S4
	FMLA4S(21, 16, 4)
	FMLA4S(21, 17, 5)
	FMLA4S(21, 18, 6)
	FMLA4S(21, 19, 7)
	VDUP V20.S[2], V21.S4
	FMLA4S(21, 16, 8)
	FMLA4S(21, 17, 9)
	FMLA4S(21, 18, 10)
	FMLA4S(21, 19, 11)
	VDUP V20.S[3], V21.S4
	FMLA4S(21, 16, 12)
	FMLA4S(21, 17, 13)
	FMLA4S(21, 18, 14)
	FMLA4S(21, 19, 15)
	SUBS $1, R6
	BNE  fpwloop
	LSL  $2, R3, R3
	VST1 [V0.S4, V1.S4, V2.S4, V3.S4], (R0)
	ADD  R3, R0
	VST1 [V4.S4, V5.S4, V6.S4, V7.S4], (R0)
	ADD  R3, R0
	VST1 [V8.S4, V9.S4, V10.S4, V11.S4], (R0)
	ADD  R3, R0
	VST1 [V12.S4, V13.S4, V14.S4, V15.S4], (R0)
	RET

// func ffcPanel16(dst *float32, panel *float32, src *float32, bias *float32, n int)
//
// 16 fully-connected output features from a transposed weight panel:
// dst[l] = bias[l] + sum over i of panel[i*16+l]*src[i]. Lanes are
// features; each feature's dot product sums in ascending element order.
// n may be zero (dst = bias).
TEXT ·ffcPanel16(SB), NOSPLIT, $0-40
	MOVD dst+0(FP), R0
	MOVD panel+8(FP), R1
	MOVD src+16(FP), R2
	MOVD bias+24(FP), R3
	MOVD n+32(FP), R4
	VLD1 (R3), [V0.S4, V1.S4, V2.S4, V3.S4]
	CBZ  R4, ffcdone
ffcloop:
	MOVW.P 4(R2), R5
	VDUP R5, V4.S4
	VLD1.P 64(R1), [V16.S4, V17.S4, V18.S4, V19.S4]
	FMLA4S(4, 16, 0)
	FMLA4S(4, 17, 1)
	FMLA4S(4, 18, 2)
	FMLA4S(4, 19, 3)
	SUBS $1, R4
	BNE  ffcloop
ffcdone:
	VST1 [V0.S4, V1.S4, V2.S4, V3.S4], (R0)
	RET

// func fgapSum8(dst *float32, src *float32, chanStride, n int)
//
// Sums 8 channel spans at once: dst[c] = sum over i in [0,n) of
// src[c*chanStride+i]. Lanes are channels: each 4-element block transposes
// 4x4 (TRN pairs) so the four adds per block apply elements in ascending
// order per channel — the scalar reduction's exact chain. n must be a
// positive multiple of 8 (blocks of 4 divide it).
TEXT ·fgapSum8(SB), NOSPLIT, $0-32
	MOVD dst+0(FP), R0
	MOVD src+8(FP), R1
	MOVD chanStride+16(FP), R2
	MOVD n+24(FP), R3
	LSL  $2, R2, R4
	ADD  R4, R1, R5
	ADD  R4, R5, R6
	ADD  R4, R6, R7
	ADD  R4, R7, R8
	ADD  R4, R8, R9
	ADD  R4, R9, R10
	ADD  R4, R10, R11
	VEOR V30.B16, V30.B16, V30.B16
	VEOR V31.B16, V31.B16, V31.B16
fgaploop:
	VLD1.P 16(R1), [V0.S4]
	VLD1.P 16(R5), [V1.S4]
	VLD1.P 16(R6), [V2.S4]
	VLD1.P 16(R7), [V3.S4]
	TRN14S(1, 0, 4)  // [a0,b0,a2,b2]
	TRN24S(1, 0, 5)  // [a1,b1,a3,b3]
	TRN14S(3, 2, 6)  // [c0,d0,c2,d2]
	TRN24S(3, 2, 7)  // [c1,d1,c3,d3]
	TRN12D(6, 4, 16) // [a0,b0,c0,d0]
	TRN12D(7, 5, 17) // [a1,b1,c1,d1]
	TRN22D(6, 4, 18) // [a2,b2,c2,d2]
	TRN22D(7, 5, 19) // [a3,b3,c3,d3]
	FADD4S(16, 30, 30)
	FADD4S(17, 30, 30)
	FADD4S(18, 30, 30)
	FADD4S(19, 30, 30)
	VLD1.P 16(R8), [V0.S4]
	VLD1.P 16(R9), [V1.S4]
	VLD1.P 16(R10), [V2.S4]
	VLD1.P 16(R11), [V3.S4]
	TRN14S(1, 0, 4)
	TRN24S(1, 0, 5)
	TRN14S(3, 2, 6)
	TRN24S(3, 2, 7)
	TRN12D(6, 4, 16)
	TRN12D(7, 5, 17)
	TRN22D(6, 4, 18)
	TRN22D(7, 5, 19)
	FADD4S(16, 31, 31)
	FADD4S(17, 31, 31)
	FADD4S(18, 31, 31)
	FADD4S(19, 31, 31)
	SUBS $4, R3
	BNE  fgaploop
	VST1 [V30.S4, V31.S4], (R0)
	RET

// func fepiRow(dst *float32, scale, shift float32, bn, act, n int)
//
// NEON batch-norm + activation epilogue. The affine uses fused FMLA into a
// shift-seeded accumulator because gc on arm64 compiles acc*s + sh to
// FMADDS (one rounding); the activations replicate the scalar `if v < 0`
// select through FCMGT+BSL, so NaN and -0 lanes keep their exact bits
// (FMAX would not). n must be a positive multiple of 8.
TEXT ·fepiRow(SB), NOSPLIT, $0-40
	MOVD  dst+0(FP), R0
	FMOVS scale+8(FP), F1
	VDUP  V1.S[0], V1.S4
	FMOVS shift+12(FP), F2
	VDUP  V2.S[0], V2.S4
	MOVD  bn+16(FP), R1
	MOVD  act+24(FP), R2
	MOVD  n+32(FP), R3
	VEOR  V26.B16, V26.B16, V26.B16 // 0 for the v < 0 compares
	MOVD  $0x3dcccccd, R4           // 0.1, the LeakyReLU slope
	VDUP  R4, V27.S4
fepiloop:
	VLD1 (R0), [V3.S4, V4.S4]
	CBZ  R1, fepiact
	VMOV V2.B16, V5.B16
	VMOV V2.B16, V6.B16
	FMLA4S(1, 3, 5)  // V5 = shift + v*scale, fused like scalar FMADDS
	FMLA4S(1, 4, 6)
	VMOV V5.B16, V3.B16
	VMOV V6.B16, V4.B16
fepiact:
	CMP  $1, R2
	BEQ  fepirelu
	CMP  $2, R2
	BEQ  fepileaky
fepistore:
	VST1.P [V3.S4, V4.S4], 32(R0)
	SUBS $8, R3
	BNE  fepiloop
	RET
fepirelu:
	FCMGT4S(3, 26, 5)            // V5 = 0 > v
	VBSL V3.B16, V26.B16, V5.B16 // V5 = mask ? 0 : v
	VMOV V5.B16, V3.B16
	FCMGT4S(4, 26, 6)
	VBSL V4.B16, V26.B16, V6.B16
	VMOV V6.B16, V4.B16
	B    fepistore
fepileaky:
	FMUL4S(27, 3, 7)             // leak = v * 0.1
	FCMGT4S(3, 26, 5)            // V5 = 0 > v
	VBSL V3.B16, V7.B16, V5.B16  // V5 = mask ? leak : v
	VMOV V5.B16, V3.B16
	FMUL4S(27, 4, 7)
	FCMGT4S(4, 26, 6)
	VBSL V4.B16, V7.B16, V6.B16
	VMOV V6.B16, V4.B16
	B    fepistore
