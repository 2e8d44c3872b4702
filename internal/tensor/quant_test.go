package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pico/internal/nn"
	"pico/internal/partition"
)

// randomQInput quantizes a deterministic random float map at its own
// calibrated scale — the shape every quantized kernel input has in practice.
func randomQInput(c, h, w int, seed int64) QTensor {
	f := RandomInput(nn.Shape{C: c, H: h, W: w}, seed)
	return QuantizeTensor(f, scaleFor(maxAbs(f.Data)))
}

// quantBlockedCases extends the float geometry matrix with pointwise shapes
// on both sides of one 16-column tile, with odd channel counts and ragged
// channel blocks.
func quantBlockedCases() []blockedCase {
	cases := blockedCases()
	cases = append(cases,
		blockedCase{name: "pointwise-wide", inC: 9, h: 6, w: 35, l: nn.Layer{
			Name: "pointwise-wide", Kind: nn.Conv,
			KH: 1, KW: 1, SH: 1, SW: 1,
			OutC: 11, Act: nn.ReLU, BatchNorm: true,
		}},
		blockedCase{name: "pointwise-narrow", inC: 5, h: 3, w: 5, l: nn.Layer{
			Name: "pointwise-narrow", Kind: nn.Conv,
			KH: 1, KW: 1, SH: 1, SW: 1,
			OutC: 4, Act: nn.LeakyReLU, BatchNorm: false,
		}},
	)
	return cases
}

// TestQuantBlockedMatchesReferenceBitExact mirrors the float32 contract for
// the int8 engine: for every geometry, parallelism and tile window, the
// blocked quantized kernels must match the naive per-element reference byte
// for byte. Int32 accumulation is associative, so this holds for any
// accumulation order as long as the requantize epilogue is shared — which
// is exactly what the test pins down.
func TestQuantBlockedMatchesReferenceBitExact(t *testing.T) {
	for ci, tc := range quantBlockedCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			l := tc.l
			groups := l.Groups
			if groups < 1 {
				groups = 1
			}
			cw := genConv(int64(200+ci), "qblk", &l, tc.inC)
			qw := genQConv(cw, &l, tc.inC/groups, 0.03, 0.07)
			in := randomQInput(tc.inC, tc.h, tc.w, int64(100+ci))
			outH := (tc.h+2*l.PH-l.KH)/l.SH + 1
			ref := qconvForwardRef(in, stripGeom(&l, in.C, in.W, 0, tc.h, 0, outH), &l, qw, 1)
			eachQpwVariant(t, !depthwise(&l, tc.inC), func(t *testing.T, vn string) {
				for _, par := range []int{1, 3, 8} {
					got := qconvForward(in, stripGeom(&l, in.C, in.W, 0, tc.h, 0, outH), &l, qw, par)
					if !EqualQ(got, ref) {
						t.Fatalf("%s par=%d: full blocked int8 output differs from reference", vn, par)
					}
					rng := rand.New(rand.NewSource(int64(ci*10 + par)))
					for trial := 0; trial < 8; trial++ {
						lo := rng.Intn(outH)
						hi := lo + 1 + rng.Intn(outH-lo)
						inLo, inHi := convInputRows(&l, lo, hi, tc.h)
						tile := in.SliceRows(inLo, inHi)
						gotTile := qconvForward(tile, stripGeom(&l, tile.C, tile.W, inLo, tc.h, lo, hi), &l, qw, par)
						wantTile := ref.SliceRows(lo, hi)
						if !EqualQ(gotTile, wantTile) {
							t.Fatalf("%s par=%d tile [%d,%d): blocked int8 differs from reference", vn, par, lo, hi)
						}
					}
				}
			})
		})
	}
}

// TestQuantFCMatchesReferenceBitExact pins the unrolled int8 fc kernel to
// the serial dot-product reference across ragged output counts.
func TestQuantFCMatchesReferenceBitExact(t *testing.T) {
	for _, outF := range []int{1, 3, 4, 10, 17} {
		l := nn.Layer{Name: "qfc", Kind: nn.FullyConnected, OutF: outF, Act: nn.ReLU}
		in := randomQInput(3, 5, 7, int64(outF))
		fw := genFC(int64(outF), "qfc", &l, in.Elems())
		qw := genQFC(fw, &l, in.Elems(), float32(in.Scale), 0.11)
		ref := qfcForwardRef(in, &l, qw, 1)
		for _, par := range []int{1, 2, 8} {
			got := qfcForward(in, &l, qw, par)
			if !EqualQ(got, ref) {
				t.Fatalf("outF=%d par=%d: unrolled int8 fc differs from reference", outF, par)
			}
		}
	}
}

// TestQuantPoolTileIdentity checks that quantized pooling over row tiles
// reproduces the whole-map result at every parallelism — the tiled
// execution contract the pipeline depends on.
func TestQuantPoolTileIdentity(t *testing.T) {
	pools := []nn.Layer{
		{Name: "max2", Kind: nn.MaxPool, KH: 2, KW: 2, SH: 2, SW: 2},
		{Name: "max3", Kind: nn.MaxPool, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1, Act: nn.ReLU},
		{Name: "avg2", Kind: nn.AvgPool, KH: 2, KW: 2, SH: 2, SW: 2},
		{Name: "avg3", Kind: nn.AvgPool, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1},
	}
	for pi, l := range pools {
		l := l
		in := randomQInput(5, 13, 11, int64(40+pi))
		outH := (in.H+2*l.PH-l.KH)/l.SH + 1
		ref := qpoolForward(in, stripGeom(&l, in.C, in.W, 0, in.H, 0, outH), &l, 1)
		for _, par := range []int{1, 4} {
			rng := rand.New(rand.NewSource(int64(pi)))
			for trial := 0; trial < 6; trial++ {
				lo := rng.Intn(outH)
				hi := lo + 1 + rng.Intn(outH-lo)
				inLo, inHi := convInputRows(&l, lo, hi, in.H)
				tile := in.SliceRows(inLo, inHi)
				got := qpoolForward(tile, stripGeom(&l, tile.C, tile.W, inLo, in.H, lo, hi), &l, par)
				want := ref.SliceRows(lo, hi)
				if !EqualQ(got, want) {
					t.Fatalf("%s par=%d tile [%d,%d): tiled pool differs from whole-map", l.Name, par, lo, hi)
				}
			}
		}
	}
}

// TestQuantRoundTripErrorBound is the quantize→dequantize property test:
// for per-channel scales derived from each channel's max-abs, every element
// must round-trip within half a quantization step of its original value
// (symmetric quantization with round-half-away never clips a value inside
// the calibrated range).
func TestQuantRoundTripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		c, h, w := 1+rng.Intn(6), 1+rng.Intn(10), 1+rng.Intn(10)
		f := New(c, h, w)
		for i := range f.Data {
			f.Data[i] = (rng.Float32()*2 - 1) * float32(math.Pow(10, float64(rng.Intn(5)-2)))
		}
		per := h * w
		for ch := 0; ch < c; ch++ {
			chData := f.Data[ch*per : (ch+1)*per]
			scale := scaleFor(maxAbs(chData))
			sub := Tensor{C: 1, H: h, W: w, Data: chData}
			q := QuantizeTensor(sub, scale)
			back := q.Dequantize()
			bound := float64(scale) / 2 * (1 + 1e-5)
			for i := range chData {
				diff := math.Abs(float64(back.Data[i]) - float64(chData[i]))
				if diff > bound {
					t.Fatalf("trial %d ch %d elem %d: round-trip error %g exceeds scale/2 = %g (v=%g scale=%g)",
						trial, ch, i, diff, bound, chData[i], scale)
				}
			}
		}
	}
}

// TestQuantClampSaturates pins the requantization clamp and rounding
// convention at the edges.
func TestQuantClampSaturates(t *testing.T) {
	cases := []struct {
		in   float32
		want int8
	}{
		{0, 0}, {0.49, 0}, {0.5, 1}, {-0.5, -1}, {-0.49, 0},
		{126.49, 126}, {126.5, 127}, {127.4, 127}, {1e9, 127},
		{-127.5, -128}, {-128.9, -128}, {-1e9, -128},
	}
	for _, tc := range cases {
		if got := quantClamp(tc.in); got != tc.want {
			t.Fatalf("quantClamp(%g) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestQuantSegmentTileIdentity is the quantized tiled-execution contract at
// the executor level: running a segment on stitched strips must reproduce
// the whole-map RunQ bit for bit, at every strip partition and parallelism.
func TestQuantSegmentTileIdentity(t *testing.T) {
	m := nn.ToyChain("qtoy", 4, 2, 12, 32)
	in := RandomInput(m.Input, 5)
	full, err := func() (QTensor, error) {
		e, err := NewExecutor(m, 42, WithQuantized(), WithParallelism(1))
		if err != nil {
			return QTensor{}, err
		}
		return e.RunQ(in)
	}()
	if err != nil {
		t.Fatal(err)
	}
	scales, err := QuantScales(m, 42)
	if err != nil {
		t.Fatal(err)
	}
	qin := QuantizeTensor(in, scales[0])
	rng := rand.New(rand.NewSource(9))
	for _, par := range []int{1, 3} {
		e, err := NewExecutor(m, 42, WithQuantized(), WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			// Split the model at a random layer boundary and the output
			// rows of each segment into random strips.
			cut := 1 + rng.Intn(m.NumLayers()-1)
			shapes := m.Shapes()
			midH := shapes[cut].H

			runSeg := func(from, to int, tin QTensor, h int) QTensor {
				var strips []QTensor
				var los []int
				lo := 0
				for lo < h {
					hi := lo + 1 + rng.Intn(h-lo)
					out := partition.Range{Lo: lo, Hi: hi}
					need := e.InputRange(from, to, out)
					tile := tin.SliceRows(need.Lo, need.Hi)
					res, err := e.RunSegmentQ(from, to, tile, out)
					if err != nil {
						t.Fatal(err)
					}
					strips = append(strips, res)
					los = append(los, lo)
					lo = hi
				}
				st, err := StitchRowsQ(strips, los, h)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}

			mid := runSeg(0, cut, qin, midH)
			outT := runSeg(cut, m.NumLayers(), mid, shapes[m.NumLayers()].H)
			if !EqualQ(outT, full) {
				t.Fatalf("par=%d cut=%d: stitched quant strips differ from whole-map RunQ", par, cut)
			}
		}
	}
}

// TestQuantScaleMismatchRejected: a tile quantized at the wrong boundary
// scale must be refused, not silently misinterpreted.
func TestQuantScaleMismatchRejected(t *testing.T) {
	m := nn.ToyChain("qtoy", 3, 2, 8, 16)
	e, err := NewExecutor(m, 1, WithQuantized())
	if err != nil {
		t.Fatal(err)
	}
	in := RandomInput(m.Input, 2)
	q := QuantizeTensor(in, 12345) // not the calibrated scale
	if _, err := e.RunSegmentQ(0, m.NumLayers(), q, partition.Full(m.Output().H)); err == nil {
		t.Fatal("RunSegmentQ accepted a tile with a non-calibrated scale")
	}
}

// TestQuantCalibrationDeterministic: two executors with the same (model,
// seed) must derive bit-identical boundary scales — the property that lets a
// worker validate the scales it is shipped, or re-derive them when shipped
// none.
func TestQuantCalibrationDeterministic(t *testing.T) {
	m := nn.ToyChain("qtoy", 4, 2, 12, 32)
	a, err := QuantScales(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := QuantScales(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != m.NumLayers()+1 {
		t.Fatalf("got %d scales, want %d", len(a), m.NumLayers()+1)
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("scale %d differs between identical executors: %g vs %g", i, a[i], b[i])
		}
		if !(a[i] > 0) {
			t.Fatalf("scale %d is %g, want positive", i, a[i])
		}
	}
}

// TestQuantTop1AgreementToy asserts end-to-end accuracy: over a batch of
// inputs, int8 inference must pick the same top-1 class as float32 for the
// overwhelming majority of inputs — on the toy chain and on MobileNetV1,
// the depthwise-separable model the int8 path is tuned on.
func TestQuantTop1AgreementToy(t *testing.T) {
	for _, tc := range []struct {
		m     *nn.Model
		tasks int
	}{
		{nn.ToyChain("toy", 6, 2, 16, 64), 25},
		{nn.MobileNetV1(), 10},
	} {
		ef, err := NewExecutor(tc.m, 42)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := NewExecutor(tc.m, 42, WithQuantized())
		if err != nil {
			t.Fatal(err)
		}
		agree := 0
		for i := 0; i < tc.tasks; i++ {
			in := RandomInput(tc.m.Input, int64(1000+i))
			want, err := ef.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			q, err := eq.RunQ(in)
			if err != nil {
				t.Fatal(err)
			}
			got := q.Dequantize()
			if argmax(want.Data) == argmax(got.Data) {
				agree++
			}
			Recycle(want)
			Recycle(got)
			RecycleQ(q)
		}
		if agree < tc.tasks*9/10 {
			t.Fatalf("%s: top-1 agreement %d/%d below 90%%", tc.m.Name, agree, tc.tasks)
		}
		t.Logf("%s: top-1 agreement %d/%d", tc.m.Name, agree, tc.tasks)
	}
}

func argmax(xs []float32) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// eachQpwVariant runs fn once per GEMM tile variant the host supports (the
// portable tile included) with that variant forced through the walker, or
// once with the default when the case under test never reaches the GEMM
// walker. fn gets the variant's name for its failure messages.
func eachQpwVariant(t *testing.T, gemm bool, fn func(t *testing.T, name string)) {
	t.Helper()
	if !gemm {
		fn(t, "default")
		return
	}
	defer func(v *qpwVariant) { qpwActive = v }(qpwActive)
	for _, v := range qpwVariants {
		qpwActive = v
		fn(t, v.name)
	}
}

// checkQpwTile drives one variant's pack and tile steps directly — `tiles`
// whole tiles of inC channels at channel stride chanStride, the outC
// channels of as many channel blocks as that takes — against a scalar
// evaluation of their contract, with weights w(i) and taps x(i) (nil draws
// the full int8 range at random). The packed panel must match its layout
// byte for byte, a row past the last included; each channel's epilogue scale
// maps its largest accumulator to about 100, so an accumulator that is off
// by more than a hundredth of that range moves an output.
func checkQpwTile(t *testing.T, v *qpwVariant, rng *rand.Rand, inC, outC, tiles, chanStride int, act nn.Activation, w, x func(i int) int8) {
	t.Helper()
	random := func(int) int8 { return int8(rng.Intn(256) - 128) }
	if w == nil {
		w = random
	}
	if x == nil {
		x = random
	}
	l := nn.Layer{Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: outC, Act: act}
	padded := outC + qpwMR - 1
	qw := &qconvWeights{qparams: qparams{
		wq:       make([]int8, outC*inC),
		effScale: make([]float32, outC, padded),
		effBias:  make([]float32, outC, padded),
	}}
	for i := range qw.wq {
		qw.wq[i] = w(i)
	}
	src := make([]int8, (inC-1)*chanStride+tiles*v.nr)
	for i := range src {
		src[i] = x(i)
	}
	cols := tiles * v.nr
	acc := make([]int32, outC*cols)
	for oc := 0; oc < outC; oc++ {
		peak := 1.0
		for j := 0; j < cols; j++ {
			var a int32
			for g := 0; g < inC; g++ {
				a += int32(qw.wq[oc*inC+g]) * int32(src[g*chanStride+j])
			}
			acc[oc*cols+j] = a
			peak = max(peak, math.Abs(float64(a)))
		}
		qw.effScale[oc] = float32((0.5 + rng.Float64()) * 100 / peak)
		qw.effBias[oc] = rng.Float32()*40 - 20
	}
	qw.pack(&l, inC)
	a := qpwCols{src: src, rowStride: chanStride, k: inC}
	quads := nquads(a.k)
	a.panel = make([]uint8, tiles*quads*v.nr*4)
	v.pack(&a, tiles)
	for i, got := range a.panel {
		tq, j, r := i/(v.nr*4), i/4%v.nr, i%4 // tq = t*quads+q
		want := uint8(0x80)
		if g := tq%quads*4 + r; g < inC {
			want = uint8(src[g*chanStride+tq/quads*v.nr+j]) ^ 0x80
		}
		if got != want {
			t.Fatalf("%s inC=%d tiles=%d: panel byte %d (tile %d, quad %d, column %d, row %d) = %#x, want %#x",
				v.name, inC, tiles, i, tq/quads, tq%quads, j, r, got, want)
		}
	}
	stride := cols + rng.Intn(5)
	for ob := 0; ob*qpwMR < outC; ob++ {
		const guard = -77
		got := make([]int8, qpwMR*stride)
		for i := range got {
			got[i] = guard
		}
		v.tile(got, stride, &a, qw, ob, ob*qpwMR, tiles, act)
		for b := 0; b < qpwMR; b++ {
			oc := ob*qpwMR + b
			for x := 0; x < stride; x++ {
				want := int8(guard)
				if x < cols {
					if oc >= outC {
						continue // a ragged block's extra rows are unspecified
					}
					var w [1]int8
					requantRowRef(w[:], acc[oc*cols+x:][:1], qw.effScale[oc], qw.effBias[oc], act)
					want = w[0]
				}
				if got[b*stride+x] != want {
					t.Fatalf("%s inC=%d outC=%d tiles=%d stride=%d act=%v: dst[%d][%d] = %d, want %d",
						v.name, inC, outC, tiles, chanStride, act, oc, x, got[b*stride+x], want)
				}
			}
		}
	}
}

// TestQpwTileMatchesScalar A/Bs every pointwise tile variant (pack step
// included) against a direct scalar evaluation of its contract on random
// data, including negative values and the full int8 range.
func TestQpwTileMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for _, v := range qpwVariants {
		for trial := 0; trial < 50; trial++ {
			tiles := 1 + rng.Intn(3)
			checkQpwTile(t, v, rng, 1+rng.Intn(40), 1+rng.Intn(20), tiles, tiles*v.nr+rng.Intn(100),
				nn.Activation(1+rng.Intn(3)), nil, nil)
		}
	}
}

// qpwExtremes are the operand patterns at the ends of the int8 range: every
// tap at -128 (it packs to u8 0, so the seed alone carries the sum), every
// tap at 127 (u8 255: a u8 x s8 pair sum then leaves int16), and the two
// alternating.
var qpwExtremes = []struct {
	name string
	x    func(i int) int8
}{
	{"all-128", func(int) int8 { return -128 }},
	{"all127", func(int) int8 { return 127 }},
	{"alternating", func(i int) int8 { return int8(-128 + 255*(i%2)) }},
}

// TestQpwTileExtremeOperands holds every tile variant (portable included)
// to the reference at the ends of the operand range, over K from one tap to
// a tail quad of each length to 4608: the pack and tile steps directly with
// weights of +-127 and -128, and the GEMM driver — in place, gathered, and a
// 3x3 pad-1 layer whose border taps are padding, which packs to the same
// shifted zero the seed cancels — with the +-127 a quantized weight can
// hold. A saturating dot product (VPDPBUSDS, or VPMADDUBSW's int16 pair
// sums), a tile that skips the seed, or a tail quad padded with anything but
// 0x80 fails here. K = 140000 is the one case whose accumulators wrap int32:
// only there does VPDPBUSDS's saturating accumulate differ from VPDPBUSD.
func TestQpwTileExtremeOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	weights := []struct {
		name string
		w    func(i int) int8
	}{
		{"w+127", func(int) int8 { return 127 }},
		{"w-128", func(int) int8 { return -128 }},
		{"w+-127", func(i int) int8 { return int8(127 - 254*(i%2)) }},
	}
	for _, v := range qpwVariants {
		for _, k := range []int{1, 2, 3, 4, 5, 27, 29, 4608} {
			for _, x := range qpwExtremes {
				for _, w := range weights {
					checkQpwTile(t, v, rng, k, 9, 2, 2*v.nr+rng.Intn(3), nn.NoAct, w.w, x.x)
				}
			}
		}
		checkQpwTile(t, v, rng, 140000, 8, 1, v.nr, nn.NoAct, weights[0].w, qpwExtremes[1].x)
	}
	layers := []struct {
		k, s, p int
		inC     []int
	}{
		{1, 1, 0, []int{1, 2, 3, 4, 5, 27, 29, 4608}}, // in place
		{1, 2, 0, []int{1, 2, 3, 4, 5, 27, 29, 4608}}, // gathered
		{3, 1, 1, []int{1, 3, 512}},                   // K = 9, 27, 4608
	}
	for _, ly := range layers {
		for _, inC := range ly.inC {
			l := nn.Layer{Name: "x", Kind: nn.Conv, KH: ly.k, KW: ly.k, SH: ly.s, SW: ly.s, PH: ly.p, PW: ly.p, OutC: 9}
			per := inC * ly.k * ly.k
			for wi, w := range []func(i int) int8{weights[0].w, func(int) int8 { return -127 }, weights[2].w} {
				q := newQParams(l.OutC, per, qpwMR-1, 0.07)
				for i := range q.wq {
					q.wq[i] = w(i)
				}
				for oc := range q.effScale {
					q.effScale[oc] = float32((0.5 + 0.1*float64(oc)) * 100 / (128 * 127 * float64(per)))
				}
				qw := &qconvWeights{qparams: q}
				qw.pack(&l, inC)
				for _, x := range qpwExtremes {
					in := AllocQ(inC, 5, 5, 0.03)
					for i := range in.Data {
						in.Data[i] = x.x(i)
					}
					g := stripGeom(&l, inC, 5, 0, 5, 0, outWidth(&l, 5))
					ref := qconvForwardRef(in, g, &l, qw, 1)
					eachQpwVariant(t, true, func(t *testing.T, vn string) {
						if got := qconvForward(in, g, &l, qw, 2); !EqualQ(got, ref) {
							t.Fatalf("%s %dx%d s%d p%d inC=%d weights %d taps %s: differs from reference",
								vn, ly.k, ly.k, ly.s, ly.p, inC, wi, x.name)
						}
					})
				}
			}
		}
	}
}

// TestQpwVariantsMatchReference is the pointwise walker's table: every tile
// variant against the reference kernel byte for byte, over odd and even
// channel counts, ragged channel blocks, flattened widths on both sides of
// one tile and of one column block, strips that start inside their tile
// (ihBase > 0), par > 1 (column-block and channel-slice splits) and all
// three activations.
func TestQpwVariantsMatchReference(t *testing.T) {
	maps := [][2]int{{1, 1}, {1, 7}, {2, 7}, {3, 5}, {4, 4}, {1, 17}, {7, 7}, {14, 14}, {112, 112}}
	acts := []nn.Activation{nn.NoAct, nn.ReLU, nn.LeakyReLU}
	ci := 0
	for _, inC := range []int{1, 2, 3, 31, 32} {
		for mi, hw := range maps {
			ci++
			h, w := hw[0], hw[1]
			outC := []int{1, 7, 8, 9, 20}[(ci+mi)%5]
			if h*w > 1000 && inC > 3 {
				outC = 9 // keep the reference loop affordable
			}
			l := nn.Layer{Name: "pw", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: outC,
				Act: acts[ci%3], BatchNorm: ci%2 == 0}
			cw := genConv(int64(300+ci), "qpw", &l, inC)
			qw := genQConv(cw, &l, inC, 0.03, 0.07)
			in := randomQInput(inC, h, w, int64(400+ci))
			ref := qconvForwardRef(in, stripGeom(&l, inC, w, 0, h, 0, h), &l, qw, 1)
			eachQpwVariant(t, true, func(t *testing.T, vn string) {
				for _, par := range []int{1, 2, 5} {
					if got := qconvForward(in, stripGeom(&l, inC, w, 0, h, 0, h), &l, qw, par); !EqualQ(got, ref) {
						t.Fatalf("%s inC=%d outC=%d %dx%d par=%d: differs from reference", vn, inC, outC, h, w, par)
					}
					// A strip of the map's lower rows inside a taller tile.
					if h >= 3 {
						lo, hi := h/3+1, h
						tile := in.SliceRows(lo-1, h)
						got := qconvForward(tile, stripGeom(&l, inC, w, lo-1, h, lo, hi), &l, qw, par)
						if !EqualQ(got, ref.SliceRows(lo, hi)) {
							t.Fatalf("%s inC=%d outC=%d %dx%d par=%d: strip [%d,%d) differs from reference", vn, inC, outC, h, w, par, lo, hi)
						}
					}
				}
			})
		}
	}
}

// convRectGeom is the geometry of computing `out` of conv l over an inH x inW
// map from exactly the input region it reads, and that region.
func convRectGeom(l *nn.Layer, inC, inH, inW int, out partition.Rect) (geom, partition.Rect) {
	need := partition.Rect{
		Rows: partition.Range{Lo: out.Rows.Lo*l.SH - l.PH, Hi: (out.Rows.Hi-1)*l.SH - l.PH + l.KH}.Clamp(inH),
		Cols: partition.Range{Lo: out.Cols.Lo*l.SW - l.PW, Hi: (out.Cols.Hi-1)*l.SW - l.PW + l.KW}.Clamp(inW),
	}
	return geom{rowLo: need.Rows.Lo, colLo: need.Cols.Lo, in: nn.Shape{C: inC, H: inH, W: inW}, out: out}, need
}

// checkConvTiles runs conv — one kernel of either precision over l — on in
// as the whole map, as a strip whose tile starts above the rows it needs, and
// as the cells of a 2x2 and a 1x3 output grid (column origins, taps clipped
// on each of the four sides and on none), at every parallelism, against the
// matching region of ref.
func checkConvTiles(t *testing.T, tag string, in FMap, l *nn.Layer, conv func(tile FMap, g geom, par int) FMap, ref FMap, pars []int) {
	t.Helper()
	outH, outW := ref.H, ref.W
	rects := []partition.Rect{partition.FullRect(outH, outW)}
	for _, grid := range [][2]int{{2, 2}, {1, 3}} {
		for _, rows := range partition.Equal(outH, grid[0]) {
			for _, cols := range partition.Equal(outW, grid[1]) {
				rects = append(rects, partition.Rect{Rows: rows, Cols: cols})
			}
		}
	}
	for _, par := range pars {
		for _, out := range rects {
			if out.Empty() {
				continue
			}
			g, need := convRectGeom(l, in.C, in.H, in.W, out)
			if need.Empty() {
				continue // a cell whose windows are all padding reads no tile
			}
			if got := conv(in.SliceRect(need), g, par); !equalMaps(got, ref.SliceRect(out)) {
				t.Fatalf("%s par=%d rect %v: differs from reference", tag, par, out)
			}
		}
		if outH >= 3 {
			out := partition.Rect{Rows: partition.Range{Lo: outH/3 + 1, Hi: outH}, Cols: partition.Full(outW)}
			g, need := convRectGeom(l, in.C, in.H, in.W, out)
			need.Rows.Lo = max(need.Rows.Lo-1, 0) // a tile one row taller than the strip needs
			g.rowLo = need.Rows.Lo
			if got := conv(in.SliceRect(need), g, par); !equalMaps(got, ref.SliceRect(out)) {
				t.Fatalf("%s par=%d strip %v in tile rows %v: differs from reference", tag, par, out.Rows, need.Rows)
			}
		}
	}
}

// checkQuantConvTiles is checkConvTiles for the int8 dispatch.
func checkQuantConvTiles(t *testing.T, tag string, in QTensor, l *nn.Layer, qw *qconvWeights, ref QTensor, pars []int) {
	t.Helper()
	checkConvTiles(t, tag, MapOfQ(in), l, func(tile FMap, g geom, par int) FMap {
		return MapOfQ(qconvForward(tile.QTensor(), g, l, qw, par))
	}, MapOfQ(ref), pars)
}

// TestQuantConvGEMMMatchesReference is the GEMM walker's convolution table:
// every tile variant against the reference kernel byte for byte over kernel
// shapes 1x1 (strided), 3x3, 5x5, 1x7 and 7x1, stride 1 and 2, padding 0, 1
// and 3, input channels 1, 3, 31 and 64 (odd tap counts pair their last tap
// with zero), output channels off the 8-channel block, groups 1, 2 and C (a
// depthwise layer reaches the walker on partial-width tiles), all three
// activations, and the tilings of checkQuantConvTiles at par 1, 2 and 5.
func TestQuantConvGEMMMatchesReference(t *testing.T) {
	kernels := [][2]int{{1, 1}, {3, 3}, {5, 5}, {1, 7}, {7, 1}}
	acts := []nn.Activation{nn.NoAct, nn.ReLU, nn.LeakyReLU}
	ci := 0
	for _, k := range kernels {
		for _, stride := range []int{1, 2} {
			if k[0]*k[1] == 1 && stride == 1 {
				continue // the in-place source: TestQpwVariantsMatchReference
			}
			for _, pad := range []int{0, 1, 3} {
				for _, inC := range []int{1, 3, 31, 64} {
					ci++
					outC, groups := []int{1, 5, 9, 12, 20}[ci%5], 1
					switch {
					case ci%4 == 1 && inC%2 == 0:
						groups, outC = 2, outC+outC%2
					case ci%4 == 3:
						groups, outC = inC, inC
					}
					l := nn.Layer{Name: "c", Kind: nn.Conv, KH: k[0], KW: k[1], SH: stride, SW: stride,
						PH: min(pad, k[0]-1), PW: min(pad, k[1]-1), OutC: outC, Groups: groups, Act: acts[ci%3], BatchNorm: ci%2 == 0}
					h, w := 9+ci%4, 8+ci%6
					tag := fmt.Sprintf("%dx%d s%d p%d,%d %d->%d g%d on %dx%d", k[0], k[1], stride, l.PH, l.PW, inC, outC, groups, h, w)
					qw := genQConv(genConv(int64(500+ci), "qgemm", &l, inC), &l, inC/groups, 0.03, 0.07)
					in := randomQInput(inC, h, w, int64(600+ci))
					full, _ := convRectGeom(&l, inC, h, w, partition.FullRect((h+2*l.PH-l.KH)/stride+1, outWidth(&l, w)))
					ref := qconvForwardRef(in, full, &l, qw, 1)
					eachQpwVariant(t, true, func(t *testing.T, vn string) {
						checkQuantConvTiles(t, vn+" "+tag, in, &l, qw, ref, []int{1, 2, 5})
					})
				}
			}
		}
	}
}

// TestPoolFastMatchesReferenceBitExact pins the tap-major pool to the
// per-cell reference in both dtypes across geometries, tiles and
// parallelism: the whole map, random strips (each tile exactly the rows its
// windows read), and checkConvTiles' strip inside a taller tile and 2x2 and
// 1x3 grid cells, whose partial-width tiles take the per-cell path and must
// reproduce the whole map's region.
func TestPoolFastMatchesReferenceBitExact(t *testing.T) {
	pools := []nn.Layer{
		{Name: "max2", Kind: nn.MaxPool, KH: 2, KW: 2, SH: 2, SW: 2},
		{Name: "max3p1", Kind: nn.MaxPool, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1, Act: nn.ReLU},
		{Name: "avg2", Kind: nn.AvgPool, KH: 2, KW: 2, SH: 2, SW: 2},
		{Name: "avg3p1", Kind: nn.AvgPool, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, Act: nn.LeakyReLU},
		{Name: "max3-nopad-odd", Kind: nn.MaxPool, KH: 3, KW: 3, SH: 2, SW: 2},
		{Name: "avg3s2p1-odd", Kind: nn.AvgPool, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1},
	}
	for pi, l := range pools {
		l := l
		t.Run(l.Name, func(t *testing.T) {
			f := RandomInput(nn.Shape{C: 4, H: 13, W: 11}, int64(60+pi))
			for _, in := range []FMap{MapOf(f), MapOfQ(QuantizeTensor(f, scaleFor(maxAbs(f.Data))))} {
				fast, ref := func(tile FMap, g geom, par int) FMap { return MapOf(poolForward(tile.Tensor(), g, &l, par)) },
					func(tile FMap, g geom) FMap { return MapOf(poolForwardRef(tile.Tensor(), g, &l, 1)) }
				if in.DType == Int8 {
					fast = func(tile FMap, g geom, par int) FMap { return MapOfQ(qpoolForward(tile.QTensor(), g, &l, par)) }
					ref = func(tile FMap, g geom) FMap { return MapOfQ(qpoolForwardRef(tile.QTensor(), g, &l, 1)) }
				}
				outH := (in.H+2*l.PH-l.KH)/l.SH + 1
				whole := ref(in, stripGeom(&l, in.C, in.W, 0, in.H, 0, outH))
				for _, par := range []int{1, 3, 8} {
					checkConvTiles(t, fmt.Sprintf("%v %s", in.DType, l.Name), in, &l, fast, whole, []int{par})
					rng := rand.New(rand.NewSource(int64(pi*10 + par)))
					for trial := 0; trial < 6; trial++ {
						lo := rng.Intn(outH)
						hi := lo + 1 + rng.Intn(outH-lo)
						inLo, inHi := convInputRows(&l, lo, hi, in.H)
						tile := in.SliceRect(partition.Rect{Rows: partition.Range{Lo: inLo, Hi: inHi}, Cols: partition.Full(in.W)})
						g := stripGeom(&l, in.C, in.W, inLo, in.H, lo, hi)
						if got := fast(tile, g, par); !equalMaps(got, ref(tile, g)) {
							t.Fatalf("%v par=%d tile [%d,%d): tap-major pool differs from reference", in.DType, par, lo, hi)
						}
					}
				}
			}
		})
	}
}

// TestDepthwiseFusedRowBitExact drives the depthwise plane walker over one
// output row — fused 3x3 tile in the interior, per-column loop at the edges —
// directly against the reference convolution across strides, paddings and
// widths, under every depthwise variant; the float walker, which takes the
// run tiles where the variant has them, must agree as well.
func TestDepthwiseFusedRowBitExact(t *testing.T) {
	eachDwVariant(t, func(t *testing.T, vn string) {
		rng := rand.New(rand.NewSource(31))
		for trial := 0; trial < 120; trial++ {
			inW := 3 + rng.Intn(30)
			sw := 1 + rng.Intn(2)
			pw := rng.Intn(3)
			l := nn.Layer{Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: sw, PW: pw, OutC: 1}
			g := newDWGeom(&l, 3, inW, 0, 3, 0, 1)
			in := make([]float32, 3*inW)
			for i := range in {
				in[i] = rng.Float32()*2 - 1
			}
			w := make([]float32, 9)
			for i := range w {
				w[i] = rng.Float32() - 0.5
			}
			bias := rng.Float32()
			at := stripGeom(&l, 1, inW, 0, 3, 0, 1)
			p := &fparams{w: w, bias: []float32{bias}}
			want := convRef[float32, float32](in, 1, 3, inW, at, &l, p, 1).data
			got := make([]float32, g.outW)
			c := dwChan[float32, float32]{g: &g, w: w, seed: bias, tile: dwActive.tileF,
				store: func(_ *dwChan[float32, float32], dst, acc []float32) { copy(dst, acc) }}
			dwPlane(&c, in, 0, got)
			walker := convForwardDepthwise(Tensor{C: 1, H: 3, W: inW, Data: in}, at, &l, &convWeights{fparams: *p}, 1)
			for i := range want {
				if math.Float32bits(want[i]) != math.Float32bits(got[i]) || math.Float32bits(want[i]) != math.Float32bits(walker.Data[i]) {
					t.Fatalf("%s trial %d (inW=%d sw=%d pw=%d): col %d fused %g, walker %g != ref %g", vn, trial, inW, sw, pw, i, got[i], walker.Data[i], want[i])
				}
			}
		}
	})
}

// BenchmarkQpwVariants times the GEMM walker alone (no input quantization)
// under every tile variant the host supports, at par=1: MobileNetV1's five
// pointwise shapes (in place), its stem (gather-bound: 27 taps under 32
// channels) and VGG-style 3x3 layers from 576 to 4608 taps (tile-bound):
//
//	go test -run NONE -bench QpwVariants ./internal/tensor
func BenchmarkQpwVariants(b *testing.B) {
	type shape struct{ hw, inC, outC, k, s int }
	shapes := []shape{{112, 32, 64, 1, 1}, {56, 128, 128, 1, 1}, {28, 256, 256, 1, 1}, {14, 512, 512, 1, 1}, {7, 1024, 1024, 1, 1},
		{224, 3, 32, 3, 2}, {28, 64, 64, 3, 1}, {56, 64, 128, 3, 1}, {28, 256, 256, 3, 1}, {14, 512, 512, 3, 1}}
	for _, sh := range shapes {
		l := nn.Layer{Name: "c", Kind: nn.Conv, KH: sh.k, KW: sh.k, SH: sh.s, SW: sh.s, PH: sh.k / 2, PW: sh.k / 2,
			OutC: sh.outC, Act: nn.ReLU, BatchNorm: true}
		qw := genQConv(genConv(1, "bpw", &l, sh.inC), &l, sh.inC, 0.03, 0.07)
		in := randomQInput(sh.inC, sh.hw, sh.hw, 2)
		outHW := outWidth(&l, sh.hw)
		g := stripGeom(&l, sh.inC, sh.hw, 0, sh.hw, 0, outHW)
		for _, v := range qpwVariants {
			b.Run(fmt.Sprintf("%dx%dx%d-%d-s%d/%s", sh.k, sh.hw, sh.inC, sh.outC, sh.s, v.name), func(b *testing.B) {
				defer func(v *qpwVariant) { qpwActive = v }(qpwActive)
				qpwActive = v
				for i := 0; i < b.N; i++ {
					RecycleQ(qconvForward(in, g, &l, qw, 1))
				}
				macs := float64(outHW * outHW * sh.k * sh.k * sh.inC * sh.outC)
				b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}
