package tensor

import (
	"math"

	"pico/internal/nn"
)

// The int8 quantized path. Activations and weights are quantized with
// symmetric per-tensor (activations) and per-channel (weights) scales and a
// zero zero-point: float = Scale * int8. Kernels accumulate in int32 and
// requantize with a fused float epilogue (see requantRow). Because int32
// addition is associative and commutative, blocked kernels are free to
// reorder accumulation and still match the naive reference bit for bit —
// only the epilogue must be shared, which it is.

// QTensor is a CHW int8 feature map with a single symmetric quantization
// scale: the represented value of element q is Scale * float32(q). Data is
// indexed (c*H + h)*W + w, exactly like Tensor.
type QTensor struct {
	C, H, W int
	Scale   float32
	Data    []int8

	// slab mirrors Tensor.slab for the int8 arena (see AllocQ/RecycleQ).
	slab *[]int8
}

// Elems returns the number of scalars.
func (q *QTensor) Elems() int { return q.C * q.H * q.W }

// Valid reports whether the header matches the data length and the scale is
// usable (finite and positive).
func (q *QTensor) Valid() bool {
	s := float64(q.Scale)
	return q.C > 0 && q.H > 0 && q.W > 0 && len(q.Data) == q.Elems() &&
		s > 0 && !math.IsInf(s, 0) && !math.IsNaN(s)
}

// SliceRows copies rows [lo, hi) of every channel into a new arena-backed
// QTensor carrying the same scale.
func (q *QTensor) SliceRows(lo, hi int) QTensor { return MapOfQ(*q).sliceRows(lo, hi).QTensor() }

// Dequantize expands the tensor back to float32: v = Scale * q. The result
// is arena-backed.
func (q *QTensor) Dequantize() Tensor {
	out := Alloc(q.C, q.H, q.W)
	s := q.Scale
	for i, v := range q.Data {
		out.Data[i] = s * float32(v)
	}
	return out
}

// QuantizeTensor quantizes a float tensor at the given scale: q =
// clamp(round(v / scale)) with round-half-away-from-zero. The result is
// arena-backed.
func QuantizeTensor(t Tensor, scale float32) QTensor {
	out := AllocQ(t.C, t.H, t.W, scale)
	quantizeRow(out.Data, t.Data, 1/scale)
	return out
}

// quantizeRow is the one float32 -> int8 quantizer, for activations and
// weights alike: dst[i] = quantClamp(float32(src[i] * inv)), the product
// rounded before quantClamp's + 0.5. The vector path performs quantClamp's
// exact IEEE sequence lane-wise, so the output is bit-identical to the scalar
// loop for every finite input.
func quantizeRow(dst []int8, src []float32, inv float32) {
	n := len(src)
	i := 0
	if simd && n >= 8 {
		m := n &^ 7
		qquantizeRow8(&dst[0], &src[0], inv, m)
		i = m
	}
	for ; i < n; i++ {
		dst[i] = quantClamp(float32(src[i] * inv))
	}
}

// quantClamp rounds half away from zero and saturates to int8. The float
// clamp runs first so out-of-range values never hit Go's implementation-
// defined float-to-int conversion.
func quantClamp(v float32) int8 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	if v >= 0 {
		return int8(int32(v + 0.5))
	}
	return int8(int32(v - 0.5))
}

// StitchRowsQ reassembles a full int8 feature map from disjoint row strips,
// mirroring StitchRows. All strips must carry the same scale.
func StitchRowsQ(strips []QTensor, los []int, h int) (QTensor, error) {
	m, err := stitchRows(strips, los, h, MapOfQ)
	return m.QTensor(), err
}

// EqualQ reports exact equality of extent, scale bits and data.
func EqualQ(a, b QTensor) bool {
	if a.C != b.C || a.H != b.H || a.W != b.W || len(a.Data) != len(b.Data) {
		return false
	}
	if math.Float32bits(a.Scale) != math.Float32bits(b.Scale) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// qparams are a layer quantized for int8 inference: wq mirrors fparams.w
// with per-output-channel symmetric scales sW, and the requantize epilogue
// out_q = clampToInt8(round(float32(acc)*effScale[oc] + effBias[oc])) folds
// everything after the accumulation — effScale = sIn*sW*bnScale/sOut,
// effBias = (bias*bnScale + bnShift)/sOut, the activation applied in the
// sOut-scaled domain (valid as sOut > 0). scale is sOut, the outputs' scale.
type qparams struct {
	wq       []int8
	effScale []float32
	effBias  []float32
	scale    float32
}

// qconvWeights is a convolution quantized for int8 inference, with the
// layout its GEMM tiles read.
type qconvWeights struct {
	qparams
	// pw is the GEMM driver's weight panel (qgemm) over the K =
	// icg*kh*kw taps of each output channel, in blocks of qpwMR channels that
	// never straddle a group: with obg blocks per group, dword
	// pw[((grp*obg+ob)*quads+q)*qpwMR+b] holds taps 4q..4q+3 (low byte
	// first) of the group's channel ob*qpwMR+b, zero past the last tap or the
	// group's last channel.
	pw []int32
	// seed[oc] is -128 times the sum of channel oc's weights, where its
	// accumulators start: it cancels the +128 the panel adds to every tap. It
	// carries one block of zero capacity, like effScale.
	seed []int32
}

// genQConv derives the int8 form of a convolution's float parameters (none
// of the float layouts). icg is input channels per group; sIn/sOut are the
// activation scales at the layer's input and output boundaries. One channel
// block of spare epilogue capacity lets a tile over a ragged block reslice a
// whole block of operands from any channel.
func genQConv(cw *convWeights, l *nn.Layer, icg int, sIn, sOut float32) *qconvWeights {
	qw := &qconvWeights{qparams: quantize(&cw.fparams, l.OutC, icg*l.KH*l.KW, qpwMR-1, sIn, sOut)}
	qw.pack(l, icg)
	return qw
}

// drawQConv is genQConv(genConvParams(seed, key, l, inC), ...) bit for bit,
// without the float kernel: see drawQuantized.
func drawQConv(seed int64, key string, l *nn.Layer, inC int, sIn, sOut float32) *qconvWeights {
	icg := inC / max(l.Groups, 1)
	qw := &qconvWeights{qparams: drawQuantized(seed, key, l.OutC, icg*l.KH*l.KW, l.BatchNorm, qpwMR-1, sIn, sOut)}
	qw.pack(l, icg)
	return qw
}

// drawQFC is genQFC(genFCParams(seed, key, l, inElems), ...) bit for bit,
// without the float kernel.
func drawQFC(seed int64, key string, l *nn.Layer, inElems int, sIn, sOut float32) *qparams {
	q := drawQuantized(seed, key, l.OutF, inElems, false, 0, sIn, sOut)
	return &q
}

// quantize quantizes n output channels of per weights each, through the one
// vector quantizer, and folds bias, batch norm and the scales into the
// epilogue operands, which get `spare` elements of zero capacity.
func quantize(p *fparams, n, per, spare int, sIn, sOut float32) qparams {
	q := newQParams(n, per, spare, sOut)
	for oc := 0; oc < n; oc++ {
		q.quantizeChannel(oc, p.w[oc*per:(oc+1)*per])
	}
	q.fold(p, sIn)
	return q
}

// drawQuantized is quantize(genParams(seed, key, n, per, bn), ...) without
// the n*per float kernel: it draws each output channel's weights into one
// reused row, in genParams's stream order, and quantizes the row before
// drawing the next; the tail (bias, batch norm) follows as genParams draws
// it.
func drawQuantized(seed int64, key string, n, per int, bn bool, spare int, sIn, sOut float32) qparams {
	rng := weightRNG(seed, key)
	q := newQParams(n, per, spare, sOut)
	row, c := make([]float32, per), weightScale(per)
	for oc := 0; oc < n; oc++ {
		q.quantizeChannel(oc, uniform(rng, row, c))
	}
	tail := genTail(rng, n, bn)
	q.fold(&tail, sIn)
	return q
}

// newQParams allocates n channels of per quantized weights and the epilogue
// operands, with `spare` elements of zero capacity.
func newQParams(n, per, spare int, sOut float32) qparams {
	return qparams{
		wq:       make([]int8, n*per),
		effScale: make([]float32, n, n+spare),
		effBias:  make([]float32, n, n+spare),
		scale:    sOut,
	}
}

// quantizeChannel quantizes output channel oc's weights ws at their own
// symmetric scale sW, which it parks in effScale[oc] for fold.
func (q *qparams) quantizeChannel(oc int, ws []float32) {
	sW := scaleFor(maxAbs(ws))
	quantizeRow(q.wq[oc*len(ws):(oc+1)*len(ws)], ws, 1/sW)
	q.effScale[oc] = sW
}

// fold turns every channel's parked weight scale, and p's bias and batch
// norm, into the epilogue operands.
func (q *qparams) fold(p *fparams, sIn float32) {
	for oc, sW := range q.effScale {
		bnS, bnSh := float32(1), float32(0)
		if p.bnScale != nil {
			bnS, bnSh = p.bnScale[oc], p.bnShift[oc]
		}
		q.effScale[oc] = sIn * sW * bnS / q.scale
		q.effBias[oc] = (float32(p.bias[oc]*bnS) + bnSh) / q.scale
	}
}

// pack builds pw, the weight panel every tile variant reads, and seed.
func (qw *qconvWeights) pack(l *nn.Layer, icg int) {
	groups := max(l.Groups, 1)
	ocg := l.OutC / groups
	perOC := icg * l.KH * l.KW
	quads, obg := nquads(perOC), (ocg+qpwMR-1)/qpwMR
	qw.pw = make([]int32, groups*obg*quads*qpwMR)
	qw.seed = make([]int32, l.OutC, l.OutC+qpwMR-1)
	for oc := 0; oc < l.OutC; oc++ {
		grp, b := oc/ocg, oc%ocg
		row := qw.pw[(grp*obg+b/qpwMR)*quads*qpwMR+b%qpwMR:]
		var sum int32
		for i, w := range qw.wq[oc*perOC : (oc+1)*perOC] {
			row[i/4*qpwMR] |= int32(uint8(w)) << (8 * (i % 4))
			sum += int32(w)
		}
		qw.seed[oc] = -128 * sum
	}
}

// genQFC derives the int8 form of a fully connected layer, with
// per-output-feature weight scales.
func genQFC(fw *fcWeights, l *nn.Layer, inElems int, sIn, sOut float32) *qparams {
	q := quantize(&fw.fparams, l.OutF, inElems, 0, sIn, sOut)
	return &q
}

// maxAbs returns the largest absolute value in xs (0 for an empty slice; a
// NaN compares false and is skipped). The sign is cleared as a bit, not
// branched on: weights are random-signed, and the mispredicted branch cost
// five times the rest of the loop.
func maxAbs(xs []float32) float32 {
	var m float32
	for _, v := range xs {
		if v = math.Float32frombits(math.Float32bits(v) &^ (1 << 31)); v > m {
			m = v
		}
	}
	return m
}

// scaleFor maps a maximum absolute value to a symmetric int8 scale. A zero
// or non-finite range degrades to scale 1 so downstream math stays finite.
func scaleFor(maxabs float32) float32 {
	m := float64(maxabs)
	if !(m > 0) || math.IsInf(m, 0) || math.IsNaN(m) {
		return 1
	}
	return maxabs / 127
}

// requantRow applies the fused requantize+activation epilogue to one
// finished int32 accumulator row. This single function is shared by the
// reference and blocked quantized kernels: the int32 accumulators they
// produce are bit-identical by associativity, and funnelling the only float
// math through one code path keeps the final int8 outputs bit-identical
// too. The activation runs in the sOut-scaled domain, where ReLU and
// LeakyReLU commute with the positive rescale. The vector epilogue performs
// the identical IEEE operation sequence (separate multiply and add — never
// fused — plus quantClamp's clamp-then-round-half-away), so it is
// bit-identical to requantRowRef on every lane; the property suite asserts
// it.
func requantRow(dst []int8, acc []int32, scale, bias float32, act nn.Activation) {
	n := len(acc)
	i := 0
	if simd && n >= 8 {
		m := n &^ 7
		qrequantRow8(&dst[0], &acc[0], scale, bias, actCode(act), m)
		i = m
	}
	for ; i < n; i++ {
		dst[i] = requant1(acc[i], scale, bias, act)
	}
}

// actCode is the activation selector of the vector epilogues: 0 for none,
// 1 for ReLU, 2 for LeakyReLU.
func actCode(act nn.Activation) int {
	switch act {
	case nn.ReLU:
		return 1
	case nn.LeakyReLU:
		return 2
	}
	return 0
}

// requant1 is the scalar form of requantRow, for single accumulators.
func requant1(a int32, scale, bias float32, act nn.Activation) int8 {
	v := float32(float32(a)*scale) + bias
	if v < 0 {
		switch act {
		case nn.ReLU:
			v = 0
		case nn.LeakyReLU:
			v = 0.1 * v
		}
	}
	return quantClamp(v)
}

// applyActivationQ applies an activation directly in the quantized domain
// (zero-point 0 makes ReLU an integer clamp; LeakyReLU requantizes the
// scaled negative). Pool layers use it, conv/fc fold activation into the
// requantize epilogue instead.
func applyActivationQ(xs []int8, a nn.Activation) {
	switch a {
	case nn.ReLU:
		for i, v := range xs {
			if v < 0 {
				xs[i] = 0
			}
		}
	case nn.LeakyReLU:
		for i, v := range xs {
			if v < 0 {
				xs[i] = quantClamp(float32(0.1 * float32(v)))
			}
		}
	}
}
