package tensor

import (
	"math"
	"reflect"
	"testing"

	"pico/internal/nn"
)

// eachSimdQuant runs fn with the vector quantizer on (where the host has one)
// and off.
func eachSimdQuant(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	defer func(v bool) { simdQuant = v }(simdQuant)
	for _, on := range []bool{vectorAvailable(), false} {
		simdQuant = on
		fn(t)
	}
}

// scalarQuantRows is the per-row weight quantizer as it was written before
// quantizeRow: a branching max-abs, then one quantClamp per weight at the
// row's own scale.
func scalarQuantRows(w []float32, rows, perRow int) (wq []int8, sW []float32) {
	wq, sW = make([]int8, len(w)), make([]float32, rows)
	for r := 0; r < rows; r++ {
		ws := w[r*perRow : (r+1)*perRow]
		var m float32
		for _, v := range ws {
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
		sW[r] = scaleFor(m)
		inv := 1 / sW[r]
		for i, v := range ws {
			wq[r*perRow+i] = quantClamp(v * inv)
		}
	}
	return wq, sW
}

// edgeRows overwrites the first rows of a [rows][perRow] kernel with the
// values a quantizer gets wrong first: a row whose scale is exactly 1 holding
// +-max and exact .5 ties on both sides of zero, and an all-zero row.
func edgeRows(w []float32, perRow int) {
	ties := []float32{127, -127, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 126.5, -126.5, 0, 63.5, -63.5}
	for i := 0; i < perRow; i++ {
		w[i] = ties[i%len(ties)]
		w[perRow+i] = 0
	}
}

// TestQuantWeightsMatchScalarLoop: genQConv and genQFC quantize through the
// shared vector quantizer; every output (wq, the GEMM panel packed from it,
// effScale, effBias) must equal the scalar per-weight loop byte for byte, on
// random and edge-valued kernels, with the vector path on and off.
func TestQuantWeightsMatchScalarLoop(t *testing.T) {
	const sIn, sOut = float32(0.0123), float32(0.0456)
	for _, tc := range []struct {
		name        string
		l           nn.Layer
		inC         int
		bn, edgeVal bool
	}{
		{"3x3", nn.Layer{Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, OutC: 11}, 5, true, false},
		{"3x3-edges", nn.Layer{Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, OutC: 6}, 3, false, true},
		{"pointwise-edges", nn.Layer{Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: 9}, 13, true, true},
		{"depthwise", nn.Layer{Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, OutC: 8, Groups: 8}, 8, true, false},
		{"grouped-short-rows", nn.Layer{Kind: nn.Conv, KH: 1, KW: 3, SH: 1, SW: 1, OutC: 4, Groups: 2}, 4, false, false},
	} {
		tc.l.BatchNorm = tc.bn
		icg := tc.inC / max(tc.l.Groups, 1)
		perOC := icg * tc.l.KH * tc.l.KW
		cw := genConvParams(3, tc.name, &tc.l, tc.inC)
		if tc.edgeVal {
			edgeRows(cw.w, perOC)
		}
		wq, sW := scalarQuantRows(cw.w, tc.l.OutC, perOC)
		want := &qconvWeights{qparams: qparams{wq: wq}}
		want.pack(&tc.l, icg)
		eachSimdQuant(t, func(t *testing.T) {
			got := genQConv(cw, &tc.l, icg, sIn, sOut)
			if !reflect.DeepEqual(got.wq, want.wq) || !reflect.DeepEqual(got.pw, want.pw) {
				t.Fatalf("%s (simdQuant=%v): int8 weights differ from the scalar loop", tc.name, simdQuant)
			}
			for oc := 0; oc < tc.l.OutC; oc++ {
				bnS, bnSh := float32(1), float32(0)
				if tc.bn {
					bnS, bnSh = cw.bnScale[oc], cw.bnShift[oc]
				}
				if es, eb := sIn*sW[oc]*bnS/sOut, (cw.bias[oc]*bnS+bnSh)/sOut; math.Float32bits(got.effScale[oc]) != math.Float32bits(es) || math.Float32bits(got.effBias[oc]) != math.Float32bits(eb) {
					t.Fatalf("%s (simdQuant=%v): channel %d epilogue (%g, %g), want (%g, %g)", tc.name, simdQuant, oc, got.effScale[oc], got.effBias[oc], es, eb)
				}
			}
		})
	}

	for _, inElems := range []int{7, 40, 131} {
		l := nn.Layer{Kind: nn.FullyConnected, OutF: 5}
		fw := genFCParams(3, "fc", &l, inElems)
		if inElems > 8 {
			edgeRows(fw.w, inElems)
		}
		wq, sW := scalarQuantRows(fw.w, l.OutF, inElems)
		eachSimdQuant(t, func(t *testing.T) {
			got := genQFC(fw, &l, inElems, sIn, sOut)
			if !reflect.DeepEqual(got.wq, wq) {
				t.Fatalf("fc %d (simdQuant=%v): int8 weights differ from the scalar loop", inElems, simdQuant)
			}
			for o := 0; o < l.OutF; o++ {
				if es, eb := sIn*sW[o]/sOut, fw.bias[o]/sOut; math.Float32bits(got.effScale[o]) != math.Float32bits(es) || math.Float32bits(got.effBias[o]) != math.Float32bits(eb) {
					t.Fatalf("fc %d (simdQuant=%v): feature %d epilogue (%g, %g), want (%g, %g)", inElems, simdQuant, o, got.effScale[o], got.effBias[o], es, eb)
				}
			}
		})
	}
}

// cachedFloat counts the float weight entries an executor holds.
func cachedFloat(e *Executor) int { return len(e.conv.m) + len(e.fc.m) }

// TestQuantExecutorHoldsNoFloatWeights pins the weight lifetime and the time
// attribution of an int8 executor, with scales preset (what a worker builds
// from a load frame) and calibrated locally: int8 weights come straight from
// the generator and calibration runs on a scratch executor, so after RunQ the
// float caches are empty and KindSeconds holds the int8 forward alone; the
// output equals the reference executor's; and a float Run afterwards still
// generates its weights and equals a float-only executor's output.
func TestQuantExecutorHoldsNoFloatWeights(t *testing.T) {
	for _, m := range []*nn.Model{nn.ToyChain("qlife", 4, 2, 8, 24), nn.MobileNetV1()} {
		const seed = 5
		scales, err := QuantScales(m, seed)
		if err != nil {
			t.Fatal(err)
		}
		in := RandomInput(m.Input, 9)
		fe, err := NewExecutor(m, seed)
		if err != nil {
			t.Fatal(err)
		}
		wantF, err := fe.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		var wantQ QTensor
		for _, opt := range []ExecutorOption{WithQuantized(), WithQuantScales(scales)} {
			e, err := NewExecutor(m, seed, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := e.QuantScales(); err != nil || !reflect.DeepEqual(got, scales) {
				t.Fatalf("%s: QuantScales = %v, %v; want the calibrated vector", m.Name, got, err)
			}
			for kind, sec := range e.KindSeconds() {
				if sec != 0 {
					t.Fatalf("%s: %g s of %s kernel time billed before any tile ran", m.Name, sec, kind)
				}
			}
			q, err := e.RunQ(in)
			if err != nil {
				t.Fatal(err)
			}
			if wantQ.Data == nil {
				wantQ = q
			} else if !EqualQ(q, wantQ) {
				t.Fatalf("%s: RunQ with preset scales differs from RunQ with local calibration", m.Name)
			}
			if n := cachedFloat(e); n != 0 {
				t.Fatalf("%s: %d float weight entries cached after an int8-only run", m.Name, n)
			}
			gotF, err := e.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(gotF, wantF) {
				t.Fatalf("%s: float Run after RunQ differs from a float-only executor", m.Name)
			}
			if cachedFloat(e) == 0 {
				t.Fatalf("%s: float Run cached no float weights", m.Name)
			}
		}
	}
}

// TestQuantBlockModelPresetScales: a Block layer takes the hybrid float
// fallback, which generates float weights for the block's paths on demand;
// preset scales must not change a byte of the result.
func TestQuantBlockModelPresetScales(t *testing.T) {
	m := nn.TinyGraph()
	const seed = 6
	ref, err := NewExecutor(m, seed, WithQuantized())
	if err != nil {
		t.Fatal(err)
	}
	scales, err := ref.QuantScales()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(m, seed, WithQuantScales(scales))
	if err != nil {
		t.Fatal(err)
	}
	in := RandomInput(m.Input, 2)
	want, err := ref.RunQ(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.RunQ(in)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualQ(got, want) {
		t.Fatal("block model: RunQ with preset scales differs from local calibration")
	}
}
