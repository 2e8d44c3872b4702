//go:build !purego

package tensor

import "pico/internal/nn"

// probeCPU reports whether the CPU and OS support AVX2 with FMA3, on top of
// it 512-bit registers (AVX512F with opmask and ZMM state enabled), and on
// top of those int16 lanes and 32-bit opmasks (AVX512BW) and the VPDPBUSD
// tile (AVX512VL+VNNI); see simd_amd64.s.
func probeCPU() (avx2, avx512, bw, vnni bool)

// hasAVX2 gates every vector kernel on amd64, hasAVX512 the ZMM float
// pointwise tile, hasAVX512 with hasAVX512BW the ZMM depthwise tiles, hasVNNI
// the dot-product int8 GEMM tile. The scalar kernels are the contract; the
// tiles compute the identical values — wrapping int32 accumulators, float
// lanes chained in the scalar order, one fused multiply-add (fma32) per tap —
// so enabling them never changes an output bit: the property tests run every
// variant against the reference.
var hasAVX2, hasAVX512, hasAVX512BW, hasVNNI = probeCPU()

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

// fdw3x3S1 and fdw3x3S2 are the AVX2 float32 fused 3x3 depthwise tiles for
// column stride 1 and 2 (see simd_amd64.s).
//
//go:noescape
func fdw3x3S1(dst, in *float32, off, rowStride, ih, inH int, w *float32, bias float32, n, left, right, rows, sh, outW int)

//go:noescape
func fdw3x3S2(dst, in *float32, off, rowStride, ih, inH int, w *float32, bias float32, n, left, right, rows, sh, outW int)

// qdw3x3S1 and qdw3x3S2 are the AVX2 int8 fused 3x3 depthwise tiles for
// column stride 1 and 2, requantize epilogue fused (see simd_amd64.s).
//
//go:noescape
func qdw3x3S1(dst, in *int8, off, rowStride, ih, inH int, w *int8, cols, left, right, rows, sh, outW int, scale, bias float32, act int)

//go:noescape
func qdw3x3S2(dst, in *int8, off, rowStride, ih, inH int, w *int8, cols, left, right, rows, sh, outW int, scale, bias float32, act int)

// dw3x3TileF is the AVX2 float32 dwTile. The tiles produce 8 interior
// columns per step with the bias seeded in-register (stride 2 deinterleaves
// even/odd lanes), store the last partial step under a mask, and compute the
// edge columns with scalar instructions ahead of each row's loop. The rows
// whose read-ahead would leave the tensor run in portable form.
func dw3x3TileF(c *dwChan[float32, float32], dst, in []float32, base int) {
	g := c.g
	lo, hi := g.vecRows(len(in), base, g.x, g.n, 8)
	if lo < hi {
		tile := fdw3x3S1
		if g.sw == 2 {
			tile = fdw3x3S2
		}
		ih := g.ih0 + lo*g.sh
		tile(&dst[lo*g.outW+g.left], &in[0], base+(ih-g.inLo)*g.inW+g.x, g.inW, ih, g.inHGlobal, &c.w[0], c.seed,
			g.n, g.left, g.right, hi-lo, g.sh, g.outW)
	}
	dw3x3Rows(c, dst, in, base, lo, hi)
}

// dw3x3TileQ is the AVX2 int8 dwTile. The tiles pair taps through VPMADDWD
// (stride 1: 16 columns per step as even/odd halves; stride 2: 8 columns, the
// even/odd byte pairs are the taps), wrap like Go int32, mask the one padding
// tap of an edge column to zero, and requantize from registers.
func dw3x3TileQ(c *dwChan[int8, int32], dst, in []int8, base int) {
	g := c.g
	cols := g.tileHi - g.tileLo
	lo, hi := g.vecRows(len(in), base, g.x0, cols, 32>>g.sw)
	if lo < hi {
		tile := qdw3x3S1
		if g.sw == 2 {
			tile = qdw3x3S2
		}
		ih := g.ih0 + lo*g.sh
		tile(&dst[lo*g.outW], &in[0], base+(ih-g.inLo)*g.inW+g.x0, g.inW, ih, g.inHGlobal, &c.w[0],
			cols, g.left, g.right, hi-lo, g.sh, g.outW, c.scale, c.bias, actCode(c.act))
	}
	dw3x3Rows(c, dst, in, base, lo, hi)
}

// dwZArgs is the frame of one call of an AVX-512 depthwise tile, shared by
// every channel of its run; the asm reads its fields through go_asm.h.
// Offsets and strides are in bytes.
type dwZArgs struct {
	inRow, outRow     int // row strides of the input and output planes
	inPlane, outPlane int // plane strides
	rowStep           int // between the input of consecutive output rows
	off               int // plane start to kernel row 0, column x0 of output row 0
	outW, outRows     int
	ih0, inH, sh      int    // global input row under kernel row 0 of output row 0, map height, row stride
	rlo, rhi          int    // the output rows whose three kernel rows are all in the map
	act               int    // actCode, for the int8 epilogue
	relu, leaky       uint32 // all-ones when the float activation is ReLU / LeakyReLU
	// masks holds a step's opmasks by kind of step, first + 2*last (see
	// simd_amd64.s); each tile reads its dwZMask list's in order.
	masks [4][8]uint32
	// The flat span (setFlat): output rows [flatRow0, flatRow1) as one run of
	// flat columns (0: no span), whose main steps cover flatMain columns
	// from its second step on with masks from the periodic table flatMasks
	// (repeating after flatLen bytes), and whose extra steps start at byte
	// offsets flatX (negative: none) with masks xMasks.
	flat, flatRow0, flatRow1, flatMain, flatLen int
	flatX                                       [3]int
	flatMasks                                   [dwZFlatEntries * 4]uint32
	xMasks                                      [3][12]uint32
}

// dwZFlatEntries bounds the flat mask table: a span's step masks repeat
// every W/gcd(W, V) steps for W-wide rows and V-column steps, at most 16
// (MobileNetV1's 7·2^k widths repeat every 7), plus the 3 entries a
// four-step block reads past the wrap.
const dwZFlatEntries = 16 + 3

// setFlat sets up the flat span of a stride-1 call whose input and output
// rows have the same width W: its rows are one run of N columns in both,
// computed in V-column steps with no row overhead. The span holds the
// interior rows [rlo, rhi) and, when W <= V, the plane's first and last row
// too if those miss only kernel row 0 resp. 2. Lane b of a step starting at
// column p0 of the span holds column c = (p0 + b) % W of its row, whose tap 0
// is padding when c == 0 and tap 2 when c == W-1; a float entry holds the
// masks of taps 0 and 2 (2 words), an int8 entry the word masks of a flat
// step's three loads and the dword mask of its even columns' tap 2
// (QZ1_FMASKS; 4 words). The main steps start at column V and end at or before
// N-V; extra steps at 0, N-2V (when the main ones leave a gap) and N-V cover
// the rest, with a set of masks per kernel row, so that in the first and
// last row a kernel row outside the map is masked off too. Steps overlap
// where N is not a multiple of V, recomputing columns already stored, bit for
// bit the same values.
func (a *dwZArgs) setFlat(g *dwGeom, cols int, float bool) {
	w := g.outW
	if g.sw != 1 || g.sh != 1 || g.inW != w {
		return
	}
	r0, r1, top, bot := a.rlo, a.rhi, 0, 0
	if w <= cols {
		if lo, n, _ := g.krows(0); r0 == 1 && lo == 1 && n == 2 {
			r0, top = 0, w
		}
		if lo, n, _ := g.krows(r1); r1 == g.outRows-1 && lo == 0 && n == 2 {
			r1, bot = g.outRows, w
		}
	}
	n := (r1 - r0) * w
	d, x := cols, w
	for x != 0 {
		d, x = x, d%x
	}
	period := w / d
	entries := period * ((4 + period - 1) / period) // at least the four steps of a block
	if n < cols || entries+3 > dwZFlatEntries {
		return
	}
	// every w-th lane from the one whose column is c
	cols0 := func(p0, c int) uint32 {
		var m uint32
		for i := ((c-p0)%w + w) % w; i < cols; i += w {
			m |= 1 << i
		}
		return m
	}
	const even, odd = 0x55555555, 0xaaaaaaaa
	// masks writes the step at p0's masks for the output lanes [lo, hi).
	masks := func(m []uint32, p0, lo, hi int) {
		pad0, pad2 := cols0(p0, 0), cols0(p0, w-1) // columns whose tap 0 / tap 2 is padding
		lo, hi = lo-p0, hi-p0
		if float {
			in := laneRange(lo, hi, cols)
			m[0], m[1] = in&^pad0, in&^pad2
			return
		}
		// Word lanes 2j and 2j+1 feed the even column 2j (L0; L1's word
		// 2j+1 as tap 2, masked per dword j in m[1]) or the odd column 2j+1
		// (L1 as taps 0-1, L2).
		ev := laneRange(2*ceilDiv(lo, 2), 2*ceilDiv(hi, 2), cols)
		od := laneRange(2*floorDiv(lo, 2), 2*floorDiv(hi, 2), cols)
		m[0] = ev &^ (pad0 & even)
		m[1] = oddBits(ev & odd &^ (pad2 & even << 1))
		m[2] = od &^ (pad0 & odd >> 1)
		m[3] = od & odd &^ (pad2 & odd)
	}
	words := 4
	if float {
		words = 2
	}
	for e := 0; e < entries+3; e++ {
		masks(a.flatMasks[e*words:(e+1)*words], e*cols, 0, 1<<30)
	}
	size := 1
	if float {
		size = 4
	}
	a.flat, a.flatRow0, a.flatRow1, a.flatLen = n, r0, r1, entries*words*4
	a.flatMain = max(0, (n-2*cols)/cols*cols)
	a.flatX = [3]int{0, -1, (n - cols) * size}
	if n > 2*cols && (n-2*cols)%cols != 0 {
		a.flatX[1] = (n - 2*cols) * size
	}
	for i, off := range a.flatX {
		if off < 0 {
			continue
		}
		p0 := off / size
		for q, r := range [3][2]int{{top, n}, {0, n}, {0, n - bot}} { // the columns kernel row q reaches
			m := a.xMasks[i][4*q : 4*q+4]
			if !float {
				masks(m, p0, r[0], r[1])
				continue
			}
			var t [2]uint32 // taps 0 and 2; tap 1 is padding only outside the rows
			masks(t[:], p0, r[0], r[1])
			m[0], m[1], m[2] = t[0], laneRange(r[0]-p0, r[1]-p0, cols), t[1]
		}
	}
}

// oddBits packs bits 1, 3, ..., 31 of x into bits 0..15.
func oddBits(x uint32) uint32 {
	x = x >> 1 & 0x55555555
	x = (x | x>>1) & 0x33333333
	x = (x | x>>2) & 0x0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff
	return (x | x>>8) & 0x0000ffff
}

// floorDiv is a/b rounded down, for b > 0.
func floorDiv(a, b int) int {
	return -ceilDiv(-a, b)
}

// dwZMask defines one opmask of an AVX-512 depthwise step whose first column
// reads input column x and which produces c columns: lane b (of n) is set iff
// input column x + o + s*j lies in the map — or, for a store mask (s == 0),
// iff o + j < c — where j is b, or the column lane b holds in fdwZ2's
// VSHUFPS order when shuf is set.
type dwZMask struct {
	o, s, n int
	shuf    bool
}

// dwzShuf is the column each lane of fdwZ2's taps and accumulator holds.
var dwzShuf = [16]int{0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15}

// The masks of each tile, in the order it loads them (see simd_amd64.s).
var (
	fdwZ1Masks = []dwZMask{{0, 1, 16, false}, {1, 1, 16, false}, {2, 1, 16, false}, {0, 0, 16, false}}
	fdwZ2Masks = []dwZMask{{0, 1, 16, false}, {16, 1, 16, false}, {2, 1, 16, false}, {18, 1, 16, false},
		{0, 2, 16, true}, {2, 2, 16, true}, {0, 0, 16, false}}
	qdwZ1Masks = []dwZMask{{0, 1, 32, false}, {1, 1, 32, false}, {2, 1, 32, false}, {0, 0, 16, false}, {16, 0, 16, false}}
	qdwZ2Masks = []dwZMask{{0, 1, 32, false}, {1, 1, 32, false}, {0, 0, 16, false}}
)

// newDWZArgs derives a call's frame from its geometry for elements of size
// bytes and steps of cols output columns from adv input columns.
func newDWZArgs(g *dwGeom, size, cols, adv int, masks []dwZMask, act nn.Activation) dwZArgs {
	x0 := -g.pw
	a := dwZArgs{
		inRow: g.inW * size, outRow: g.outW * size,
		inPlane: g.inH * g.inW * size, outPlane: g.outRows * g.outW * size,
		rowStep: g.sh * g.inW * size, off: ((g.ih0-g.inLo)*g.inW + x0) * size,
		outW: g.outW, outRows: g.outRows, ih0: g.ih0, inH: g.inHGlobal, sh: g.sh,
		rlo: g.outRows, act: actCode(act),
	}
	switch act {
	case nn.ReLU:
		a.relu = ^uint32(0)
	case nn.LeakyReLU:
		a.leaky = ^uint32(0)
	}
	for r := 0; r < g.outRows; r++ {
		if _, n, _ := g.krows(r); n == 3 {
			a.rlo, a.rhi = min(a.rlo, r), r+1
		}
	}
	steps := (g.outW + cols - 1) / cols
	for set := range a.masks {
		t := 1 // a middle step: every lane in the map
		if set&1 != 0 {
			t = 0
		} else if set&2 != 0 {
			t = steps - 1
		}
		x, c := x0+t*adv, min(cols, g.outW-t*cols)
		for i, m := range masks {
			lo, hi := 0, c-m.o // a store mask
			if m.s > 0 {
				lo, hi = ceilDiv(-x-m.o, m.s), ceilDiv(g.inW-x-m.o, m.s)
			}
			a.masks[set][i] = laneRange(lo, hi, m.n)
			if m.shuf {
				a.masks[set][i] = 0
				for b, j := range dwzShuf {
					if lo <= j && j < hi {
						a.masks[set][i] |= 1 << b
					}
				}
			}
		}
	}
	return a
}

// ceilDiv is a/b rounded up, for b > 0.
func ceilDiv(a, b int) int {
	if a >= 0 {
		return (a + b - 1) / b
	}
	return -(-a / b)
}

// laneRange has bits [lo, hi) of n lanes set.
func laneRange(lo, hi, n int) uint32 {
	lo, hi = max(lo, 0), min(hi, n)
	if hi <= lo {
		return 0
	}
	return uint32((uint64(1)<<hi - 1) &^ (uint64(1)<<lo - 1))
}

// fdwZ1 and fdwZ2 are the AVX-512 float32 run tiles for column stride 1 and
// 2; scale and shift are nil for a layer without batch norm (see
// simd_amd64.s).
//
//go:noescape
func fdwZ1(dst, in, w, bias, scale, shift *float32, chans int, a *dwZArgs)

//go:noescape
func fdwZ2(dst, in, w, bias, scale, shift *float32, chans int, a *dwZArgs)

// qdwZ1 and qdwZ2 are the AVX-512 int8 run tiles for column stride 1 and 2
// (see simd_amd64.s).
//
//go:noescape
func qdwZ1(dst, in, w *int8, scale, bias *float32, chans int, a *dwZArgs)

//go:noescape
func qdwZ2(dst, in, w *int8, scale, bias *float32, chans int, a *dwZArgs)

// dwRunF is the AVX-512 float32 run: the finished planes of channels [lo, hi).
func dwRunF(g *dwGeom, act nn.Activation, dst, in []float32, p *fparams, lo, hi int) {
	tile, a := fdwZ1, newDWZArgs(g, 4, 16, 16, fdwZ1Masks, act)
	a.setFlat(g, 16, true)
	if g.sw == 2 {
		tile, a = fdwZ2, newDWZArgs(g, 4, 16, 32, fdwZ2Masks, act)
	}
	var scale, shift *float32
	if p.bnScale != nil {
		scale, shift = &p.bnScale[lo], &p.bnShift[lo]
	}
	tile(&dst[lo*g.outRows*g.outW], &in[lo*g.inH*g.inW], &p.w[lo*9], &p.bias[lo], scale, shift, hi-lo, &a)
}

// dwRunQ is the AVX-512 int8 run: the finished planes of channels [lo, hi).
func dwRunQ(g *dwGeom, act nn.Activation, dst, in []int8, qw *qconvWeights, lo, hi int) {
	tile, a := qdwZ1, newDWZArgs(g, 1, 32, 32, qdwZ1Masks, act)
	a.setFlat(g, 32, false)
	if g.sw == 2 {
		tile, a = qdwZ2, newDWZArgs(g, 1, 16, 32, qdwZ2Masks, act)
	}
	tile(&dst[lo*g.outRows*g.outW], &in[lo*g.inH*g.inW], &qw.wq[lo*9], &qw.effScale[lo], &qw.effBias[lo], hi-lo, &a)
}

// dwArchVariants lists the depthwise variants this CPU runs, fastest first.
// The AVX-512 one keeps the AVX2 per-plane tiles for the shapes and channels
// its run tiles do not take; its int8 run tiles chain VPDPWSSD (faster than
// VPMADDWD+VPADDD, EXPERIMENTS.md), so without VNNI its int8 path is exactly
// the avx2 variant's.
func dwArchVariants() []*dwVariant {
	var vs []*dwVariant
	if hasAVX512 && hasAVX512BW {
		v := &dwVariant{name: "avx512", tileF: dw3x3TileF, tileQ: dw3x3TileQ, runF: dwRunF}
		if hasVNNI {
			v.runQ = dwRunQ
		}
		vs = append(vs, v)
	}
	if hasAVX2 {
		vs = append(vs, &dwVariant{name: "avx2", tileF: dw3x3TileF, tileQ: dw3x3TileQ})
	}
	return vs
}
