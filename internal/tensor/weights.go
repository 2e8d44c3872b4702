package tensor

import (
	"hash/fnv"
	"math"
	"math/rand"

	"pico/internal/nn"
)

// convWeights holds one convolution's parameters: w is [outC][inC][kh][kw]
// flattened, bias is per output channel, and the optional folded batch-norm
// is a per-channel affine applied after the convolution.
type convWeights struct {
	w       []float32
	bias    []float32
	bnScale []float32
	bnShift []float32

	// The kernel is also available as compacted rows — one per
	// (oc*icg+g)*KH+kh kernel row, holding only the taps with non-zero
	// weight (see row). The reference-order loops iterate those instead of
	// w, which hoists the w == 0 branch out of the hot loop while keeping
	// the per-element accumulation order (kw ascending, zeros skipped)
	// identical to the original scalar loop. A kernel with no zero weight
	// — every generated one, in practice — is its own compaction: rowOff
	// stays nil and rows are views of w over the shared taps index.
	// Otherwise row r is rowKW/rowW[rowOff[r]:rowOff[r+1]]: two flat arrays
	// and one offset per row, never a heap object per row.
	taps   []int32 // 0..KW-1, the tap positions of a dense row
	rowOff []int32
	rowKW  []int32
	rowW   []float32

	// blocks is the register-tile plan: the output channels of each group
	// partitioned into runs of up to ocBlockWidth channels that the GEMM
	// walker's tile computes together over one gathered panel. See ocBlock
	// for the packed tap layout.
	blocks []ocBlock

	// padExact records that the padding zeros the GEMM walker gathers and
	// multiplies — taps the reference skips — are exact no-ops: trivially
	// for an unpadded layer, else by the padded-tap contract (padTapsExact;
	// DESIGN.md §6). Generated weights always hold it; convForward routes a
	// layer without it to convForwardRef.
	padExact bool
}

// ocBlockWidth is the register-tile height: how many output channels the
// float GEMM tile accumulates per sweep over a panel — 4 x nr accumulators,
// eight vector registers at either tile width.
const ocBlockWidth = 4

// ocBlock is one register-tile of output channels [oc0, oc0+width) within a
// single convolution group; group g's i-th block is blocks[g*obg+i], obg =
// ceil(OutC/groups/ocBlockWidth).
type ocBlock struct {
	oc0   int
	width int

	// packed, when non-nil, is the block's K-major weight panel for the GEMM
	// walker's tile — row k = (g*KH+kh)*KW+kw of the gathered taps times four
	// channel weights, g the input channel within the block's group:
	//
	//	packed[((g*KH+kh)*KW+kw)*ocBlockWidth + b] = w[oc0+b][g][kh][kw]
	//
	// It is built only for full-width blocks whose every kernel row is
	// dense (no zero taps dropped by compact): the tile applies every tap in
	// ascending k, which is then exactly the compacted rows' order, so
	// bit-identity with the reference loop holds. Ragged or sparse blocks
	// leave packed nil; the walker sweeps their channels one at a time over
	// the same panel, skipping zero weights.
	packed []float32
}

// pack builds the register-tile plan from the flat kernel and records
// padExact. compact must run first (pack consults the compacted rows to
// detect dropped zero taps).
func (cw *convWeights) pack(l *nn.Layer, icg int) {
	cw.padExact = l.PH == 0 && l.PW == 0 || padTapsExact(cw.w, cw.bias)
	groups := l.Groups
	if groups < 1 {
		groups = 1
	}
	ocg := l.OutC / groups
	cw.blocks = cw.blocks[:0]
	for g := 0; g < groups; g++ {
		for oc0 := g * ocg; oc0 < (g+1)*ocg; oc0 += ocBlockWidth {
			blk := ocBlock{oc0: oc0, width: min(ocBlockWidth, (g+1)*ocg-oc0)}
			if blk.width == ocBlockWidth && cw.denseRows(oc0, blk.width, icg, l.KH) {
				blk.packed = make([]float32, icg*l.KH*l.KW*ocBlockWidth)
				for gg := 0; gg < icg; gg++ {
					for kh := 0; kh < l.KH; kh++ {
						for kw := 0; kw < l.KW; kw++ {
							for b := 0; b < ocBlockWidth; b++ {
								blk.packed[((gg*l.KH+kh)*l.KW+kw)*ocBlockWidth+b] =
									cw.w[(((oc0+b)*icg+gg)*l.KH+kh)*l.KW+kw]
							}
						}
					}
				}
			}
			cw.blocks = append(cw.blocks, blk)
		}
	}
}

// padTapsExact reports the padded-tap contract: every weight finite (w*0 is
// then ±0), no bias -0 (an accumulator seeded otherwise is never -0, so
// adding ±0 leaves it as is) or NaN (a signalling one would be quieted by the
// first gathered zero of an all-padding window, where the reference stores
// it untouched).
func padTapsExact(w, bias []float32) bool {
	for _, v := range w {
		if v-v != 0 { // NaN for ±Inf and NaN, +0 for every finite v
			return false
		}
	}
	for _, b := range bias {
		if b != b || b == 0 && math.Signbit(float64(b)) {
			return false
		}
	}
	return true
}

// denseRows reports whether every compacted kernel row of channels
// [oc0, oc0+width) still holds all KW taps, i.e. compact dropped no zero
// weight anywhere in the block.
func (cw *convWeights) denseRows(oc0, width, icg, kh int) bool {
	if cw.rowOff == nil {
		return true
	}
	for r := oc0 * icg * kh; r < (oc0+width)*icg*kh; r++ {
		if int(cw.rowOff[r+1]-cw.rowOff[r]) != len(cw.taps) {
			return false
		}
	}
	return true
}

// kernelRow is one compacted kernel row: kw[i] is the horizontal tap
// position of weight w[i]. It is a view into the convWeights' flat arrays.
type kernelRow struct {
	kw []int32
	w  []float32
}

// row returns compacted kernel row r = (oc*icg+g)*KH+kh.
func (cw *convWeights) row(r int) kernelRow {
	if cw.rowOff == nil {
		kw := len(cw.taps)
		return kernelRow{kw: cw.taps, w: cw.w[r*kw : (r+1)*kw]}
	}
	lo, hi := cw.rowOff[r], cw.rowOff[r+1]
	return kernelRow{kw: cw.rowKW[lo:hi], w: cw.rowW[lo:hi]}
}

// compact prepares the compacted rows of the flat kernel: nothing but the
// taps index for a kernel without zeros, the flat zero-dropped copy
// otherwise. icg is input channels per group.
func (cw *convWeights) compact(l *nn.Layer, icg int) {
	cw.taps = make([]int32, l.KW)
	for i := range cw.taps {
		cw.taps[i] = int32(i)
	}
	cw.rowOff, cw.rowKW, cw.rowW = nil, nil, nil
	zeros := 0
	for _, w := range cw.w {
		if w == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		return
	}
	rows := l.OutC * icg * l.KH
	cw.rowOff = make([]int32, rows+1)
	cw.rowKW = make([]int32, 0, len(cw.w)-zeros)
	cw.rowW = make([]float32, 0, len(cw.w)-zeros)
	for r := 0; r < rows; r++ {
		for kw, w := range cw.w[r*l.KW : (r+1)*l.KW] {
			if w == 0 {
				continue
			}
			cw.rowKW = append(cw.rowKW, int32(kw))
			cw.rowW = append(cw.rowW, w)
		}
		cw.rowOff[r+1] = int32(len(cw.rowW))
	}
}

// fcWeights holds a fully connected layer's parameters: w is
// [outF][inElems] flattened.
type fcWeights struct {
	w    []float32
	bias []float32

	// panels, when non-nil, repacks the first OutF&^15 weight rows
	// transposed in 16-feature panels for the vector fc kernel:
	//
	//	panels[(p*inElems+i)*16 + l] = w[(16*p+l)*inElems + i]
	//
	// so each input element's 16 per-feature weights are contiguous. Lanes
	// are output features; each feature's dot product still sums elements
	// in ascending order, so the panel kernel is bit-identical to the row
	// sweep. Built only on hosts with float SIMD.
	panels []float32
}

// weightRNG derives a deterministic random source for a layer key: the same
// (seed, key) pair yields identical weights in any process, which is how
// distributed workers materialise the model without shipping parameters.
func weightRNG(seed int64, key string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// genConvParams generates a convolution's parameters alone: LeCun-uniform
// weights (scale sqrt(3/fanIn)), zero-mean small biases and a mild batch-norm
// affine, keeping activations numerically stable through deep stacks. The
// float kernels need the layouts genConv adds; the int8 quantizer reads only
// these. Every parameter is (u*2-1)*c for u in [0, 1) and a finite c > 0:
// finite, and never -0 — u*2-1 is +0 only when u*2 is exactly 1, since x-x
// is +0 in round-to-nearest — so the padded-tap contract (padExact) holds by
// construction.
func genConvParams(seed int64, key string, l *nn.Layer, inC int) *convWeights {
	rng := weightRNG(seed, key)
	icg := inC / max(l.Groups, 1)
	fanIn := l.KH * l.KW * icg
	bound := float32(math.Sqrt(3.0 / float64(fanIn)))
	w := make([]float32, l.OutC*icg*l.KH*l.KW)
	for i := range w {
		w[i] = (rng.Float32()*2 - 1) * bound
	}
	bias := make([]float32, l.OutC)
	for i := range bias {
		bias[i] = (rng.Float32()*2 - 1) * 0.01
	}
	cw := &convWeights{w: w, bias: bias}
	if l.BatchNorm {
		cw.bnScale = make([]float32, l.OutC)
		cw.bnShift = make([]float32, l.OutC)
		for i := range cw.bnScale {
			cw.bnScale[i] = 0.8 + rng.Float32()*0.4 // ~N(1, small)
			cw.bnShift[i] = (rng.Float32()*2 - 1) * 0.05
		}
	}
	return cw
}

// genConv generates a convolution's parameters and the layouts the float
// kernels read (compacted rows, register-tile plan).
func genConv(seed int64, key string, l *nn.Layer, inC int) *convWeights {
	cw := genConvParams(seed, key, l, inC)
	icg := inC / max(l.Groups, 1)
	cw.compact(l, icg)
	cw.pack(l, icg)
	return cw
}

// genFCParams generates a fully connected layer's parameters alone (see
// genConvParams).
func genFCParams(seed int64, key string, l *nn.Layer, inElems int) *fcWeights {
	rng := weightRNG(seed, key)
	bound := float32(math.Sqrt(3.0 / float64(inElems)))
	w := make([]float32, l.OutF*inElems)
	for i := range w {
		w[i] = (rng.Float32()*2 - 1) * bound
	}
	bias := make([]float32, l.OutF)
	for i := range bias {
		bias[i] = (rng.Float32()*2 - 1) * 0.01
	}
	return &fcWeights{w: w, bias: bias}
}

// genFC generates a fully connected layer's parameters and, on hosts with
// float SIMD, the panels the vector kernel reads.
func genFC(seed int64, key string, l *nn.Layer, inElems int) *fcWeights {
	fw := genFCParams(seed, key, l, inElems)
	if nf := l.OutF &^ 15; simdFloat && nf > 0 && inElems > 0 {
		fw.panels = make([]float32, nf*inElems)
		for p := 0; p < nf/16; p++ {
			for i := 0; i < inElems; i++ {
				for lane := 0; lane < 16; lane++ {
					fw.panels[(p*inElems+i)*16+lane] = fw.w[(16*p+lane)*inElems+i]
				}
			}
		}
	}
	return fw
}

// RandomInput generates a deterministic input tensor for the given shape —
// the synthetic stand-in for camera frames and the 64x64 MNIST-style inputs
// of the paper's toy experiments.
func RandomInput(s nn.Shape, seed int64) Tensor {
	rng := weightRNG(seed, "input")
	t := New(s.C, s.H, s.W)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}
