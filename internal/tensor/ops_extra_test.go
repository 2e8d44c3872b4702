package tensor

import (
	"math"
	"math/rand"
	"testing"

	"pico/internal/nn"
	"pico/internal/partition"
)

// naiveConv is an independent convolution implementation with a different
// loop structure (per-output-pixel gather, float64 accumulation) used as an
// oracle for convForward.
func naiveConv(in Tensor, l *nn.Layer, wts *convWeights) Tensor {
	outH := (in.H+2*l.PH-l.KH)/l.SH + 1
	outW := (in.W+2*l.PW-l.KW)/l.SW + 1
	out := New(l.OutC, outH, outW)
	for oc := 0; oc < l.OutC; oc++ {
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				acc := float64(wts.bias[oc])
				for ic := 0; ic < in.C; ic++ {
					for kh := 0; kh < l.KH; kh++ {
						ih := oh*l.SH - l.PH + kh
						if ih < 0 || ih >= in.H {
							continue
						}
						for kw := 0; kw < l.KW; kw++ {
							iw := ow*l.SW - l.PW + kw
							if iw < 0 || iw >= in.W {
								continue
							}
							w := wts.w[((oc*in.C+ic)*l.KH+kh)*l.KW+kw]
							acc += float64(w) * float64(in.At(ic, ih, iw))
						}
					}
				}
				v := float32(acc)
				if wts.bnScale != nil {
					v = v*wts.bnScale[oc] + wts.bnShift[oc]
				}
				out.Set(oc, oh, ow, v)
			}
		}
	}
	applyActivation(out.Data, l.Act)
	return out
}

func TestConvMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		l := nn.Layer{
			Name: "c", Kind: nn.Conv,
			KH: 1 + rng.Intn(5), KW: 1 + rng.Intn(5),
			SH: 1 + rng.Intn(2), SW: 1 + rng.Intn(2),
			PH: rng.Intn(3), PW: rng.Intn(3),
			OutC: 1 + rng.Intn(4),
			Act:  nn.NoAct,
		}
		if rng.Intn(2) == 0 {
			l.Act = nn.LeakyReLU
		}
		if rng.Intn(3) == 0 {
			l.BatchNorm = true
		}
		inC := 1 + rng.Intn(3)
		inH := l.KH + rng.Intn(10)
		inW := l.KW + rng.Intn(10)
		in := RandomInput(nn.Shape{C: inC, H: inH, W: inW}, int64(trial))
		wts := genConv(int64(trial), "oracle", &l, inC)
		got := convForward(in, stripGeom(&l, in.C, in.W, 0, inH, 0, (inH+2*l.PH-l.KH)/l.SH+1), &l, wts, 1)
		want := naiveConv(in, &l, wts)
		// float32 vs float64 accumulation: allow tiny tolerance.
		if d := MaxAbsDiff(got, want); d > 1e-4 {
			t.Fatalf("trial %d (k=%dx%d s=%d,%d p=%d,%d): diff %g",
				trial, l.KH, l.KW, l.SH, l.SW, l.PH, l.PW, d)
		}
	}
}

// naivePool is the oracle for poolForward.
func naivePool(in Tensor, l *nn.Layer) Tensor {
	outH := (in.H+2*l.PH-l.KH)/l.SH + 1
	outW := (in.W+2*l.PW-l.KW)/l.SW + 1
	out := New(in.C, outH, outW)
	isMax := l.Kind == nn.MaxPool
	for c := 0; c < in.C; c++ {
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				best := math.Inf(-1)
				sum, count := 0.0, 0
				for kh := 0; kh < l.KH; kh++ {
					ih := oh*l.SH - l.PH + kh
					if ih < 0 || ih >= in.H {
						continue
					}
					for kw := 0; kw < l.KW; kw++ {
						iw := ow*l.SW - l.PW + kw
						if iw < 0 || iw >= in.W {
							continue
						}
						v := float64(in.At(c, ih, iw))
						if v > best {
							best = v
						}
						sum += v
						count++
					}
				}
				if isMax {
					out.Set(c, oh, ow, float32(best))
				} else if count > 0 {
					out.Set(c, oh, ow, float32(sum/float64(count)))
				}
			}
		}
	}
	return out
}

func TestPoolMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		kind := nn.MaxPool
		if trial%2 == 0 {
			kind = nn.AvgPool
		}
		l := nn.Layer{
			Name: "p", Kind: kind,
			KH: 2 + rng.Intn(2), KW: 2 + rng.Intn(2),
			SH: 1 + rng.Intn(2), SW: 1 + rng.Intn(2),
			PH: rng.Intn(2), PW: rng.Intn(2),
			Act: nn.NoAct,
		}
		inH := l.KH + rng.Intn(8)
		inW := l.KW + rng.Intn(8)
		in := RandomInput(nn.Shape{C: 1 + rng.Intn(3), H: inH, W: inW}, int64(trial))
		got := poolForward(in, stripGeom(&l, in.C, in.W, 0, inH, 0, (inH+2*l.PH-l.KH)/l.SH+1), &l, 1)
		want := naivePool(in, &l)
		if d := MaxAbsDiff(got, want); d > 1e-5 {
			t.Fatalf("trial %d (%v): diff %g", trial, kind, d)
		}
	}
}

func TestStride2PartitionedExact(t *testing.T) {
	// Strided convolutions shift tile offsets non-trivially; pin the
	// partitioned-vs-whole equality specifically for stride-2 stacks.
	layers := []nn.Layer{
		{Name: "s1", Kind: nn.Conv, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1, OutC: 6, Act: nn.ReLU},
		{Name: "s2", Kind: nn.Conv, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1, OutC: 8, Act: nn.ReLU},
		{Name: "s3", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 8, Act: nn.ReLU},
	}
	m := &nn.Model{Name: "strided", Input: nn.Shape{C: 2, H: 37, W: 37}, Layers: layers}
	e := mustExec(t, m)
	in := RandomInput(m.Input, 9)
	whole, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for p := 2; p <= 5; p++ {
		got := runPartitioned(t, e, 0, 3, in, partition.Equal(m.Output().H, p))
		if !Equal(whole, got) {
			t.Fatalf("p=%d: stride-2 partitioned differs by %g", p, MaxAbsDiff(whole, got))
		}
	}
}

func TestInceptionBlockPartitionedExact(t *testing.T) {
	// A real InceptionV3 block (concat of four paths, non-square kernels
	// via its 5x5 branch) executed tiled vs whole.
	m := nn.InceptionV3()
	// Run only the first inception block over a synthetic stem output.
	const blockIdx = 7 // mixed_5b
	if m.Layers[blockIdx].Kind != nn.Block {
		t.Fatalf("layer %d is %v, want block", blockIdx, m.Layers[blockIdx].Kind)
	}
	e := mustExec(t, m)
	inShape := m.InShape(blockIdx)
	in := RandomInput(inShape, 13)
	outH := m.OutShape(blockIdx).H
	whole, err := e.RunSegment(blockIdx, blockIdx+1, in, partition.Full(outH))
	if err != nil {
		t.Fatal(err)
	}
	got := runPartitioned(t, e, blockIdx, blockIdx+1, in, partition.Equal(outH, 4))
	if !Equal(whole, got) {
		t.Fatalf("inception block tiled differs by %g", MaxAbsDiff(whole, got))
	}
}

func TestInceptionBBlockNonSquareKernels(t *testing.T) {
	// Mixed_6b carries the 1x7/7x1 factorized convolutions the paper calls
	// out; partitioned execution must stay exact through them.
	m := nn.InceptionV3()
	const blockIdx = 11 // mixed_6b
	e := mustExec(t, m)
	inShape := m.InShape(blockIdx)
	if inShape.H != 17 {
		t.Fatalf("mixed_6b input height %d, want 17", inShape.H)
	}
	in := RandomInput(inShape, 17)
	outH := m.OutShape(blockIdx).H
	whole, err := e.RunSegment(blockIdx, blockIdx+1, in, partition.Full(outH))
	if err != nil {
		t.Fatal(err)
	}
	got := runPartitioned(t, e, blockIdx, blockIdx+1, in, partition.Equal(outH, 3))
	if !Equal(whole, got) {
		t.Fatalf("mixed_6b tiled differs by %g", MaxAbsDiff(whole, got))
	}
}

func TestResNetSegmentPartitionedExact(t *testing.T) {
	// Two consecutive residual blocks (incl. a strided projection block)
	// as one tiled segment.
	m := nn.ResNet34()
	e := mustExec(t, m)
	const from, to = 4, 6 // res2_3 and res3_1 (stride-2 projection)
	inShape := m.InShape(from)
	in := RandomInput(inShape, 19)
	outH := m.OutShape(to - 1).H
	whole, err := e.RunSegment(from, to, in, partition.Full(outH))
	if err != nil {
		t.Fatal(err)
	}
	got := runPartitioned(t, e, from, to, in, partition.Equal(outH, 3))
	if !Equal(whole, got) {
		t.Fatalf("resnet segment tiled differs by %g", MaxAbsDiff(whole, got))
	}
}

func TestWeightDeterminismPerKey(t *testing.T) {
	l := nn.Conv3x3("c", 4, nn.ReLU)
	a := genConv(7, "k1", &l, 3)
	b := genConv(7, "k1", &l, 3)
	for i := range a.w {
		if a.w[i] != b.w[i] {
			t.Fatal("same key, different weights")
		}
	}
	c := genConv(7, "k2", &l, 3)
	same := true
	for i := range a.w {
		if a.w[i] != c.w[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different keys, identical weights")
	}
	d := genConv(8, "k1", &l, 3)
	same = true
	for i := range a.w {
		if a.w[i] != d.w[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds, identical weights")
	}
}

func TestWeightScaleKeepsActivationsBounded(t *testing.T) {
	// A deep stack must not overflow float32: LeCun-uniform weights keep
	// magnitudes sane through 12 layers.
	m := nn.ToyChain("deep", 12, 0, 16, 24)
	e := mustExec(t, m)
	out, err := e.Run(RandomInput(m.Input, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("activations blew up")
		}
		if v > 1e6 || v < -1e6 {
			t.Fatalf("activation magnitude %v unreasonable", v)
		}
	}
}

// naiveGroupedConv is the oracle for grouped/depthwise convolutions.
func naiveGroupedConv(in Tensor, l *nn.Layer, wts *convWeights) Tensor {
	outH := (in.H+2*l.PH-l.KH)/l.SH + 1
	outW := (in.W+2*l.PW-l.KW)/l.SW + 1
	out := New(l.OutC, outH, outW)
	groups := l.Groups
	if groups < 1 {
		groups = 1
	}
	icg := in.C / groups
	ocg := l.OutC / groups
	for oc := 0; oc < l.OutC; oc++ {
		icBase := (oc / ocg) * icg
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				acc := float64(wts.bias[oc])
				for g := 0; g < icg; g++ {
					ic := icBase + g
					for kh := 0; kh < l.KH; kh++ {
						ih := oh*l.SH - l.PH + kh
						if ih < 0 || ih >= in.H {
							continue
						}
						for kw := 0; kw < l.KW; kw++ {
							iw := ow*l.SW - l.PW + kw
							if iw < 0 || iw >= in.W {
								continue
							}
							w := wts.w[((oc*icg+g)*l.KH+kh)*l.KW+kw]
							acc += float64(w) * float64(in.At(ic, ih, iw))
						}
					}
				}
				out.Set(oc, oh, ow, float32(acc))
			}
		}
	}
	applyActivation(out.Data, l.Act)
	return out
}

func TestGroupedConvMatchesOracle(t *testing.T) {
	cases := []struct {
		inC, outC, groups int
	}{
		{8, 8, 8}, // depthwise
		{8, 16, 4},
		{6, 6, 2},
	}
	for ci, tc := range cases {
		l := nn.Layer{
			Name: "g", Kind: nn.Conv,
			KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1,
			OutC: tc.outC, Groups: tc.groups, Act: nn.NoAct,
		}
		in := RandomInput(nn.Shape{C: tc.inC, H: 9, W: 9}, int64(ci))
		wts := genConv(int64(ci), "grp", &l, tc.inC)
		got := convForward(in, stripGeom(&l, in.C, in.W, 0, 9, 0, 9), &l, wts, 1)
		want := naiveGroupedConv(in, &l, wts)
		if d := MaxAbsDiff(got, want); d > 1e-5 {
			t.Fatalf("case %d: diff %g", ci, d)
		}
	}
}

func TestMobileNetSegmentPartitionedExact(t *testing.T) {
	// A depthwise-separable stretch of MobileNetV1, tiled vs whole.
	m := nn.MobileNetV1()
	e := mustExec(t, m)
	const from, to = 3, 7 // sep2_dw .. sep3_pw (includes a stride-2 dw)
	in := RandomInput(m.InShape(from), 15)
	outH := m.OutShape(to - 1).H
	whole, err := e.RunSegment(from, to, in, partition.Full(outH))
	if err != nil {
		t.Fatal(err)
	}
	got := runPartitioned(t, e, from, to, in, partition.Equal(outH, 3))
	if !Equal(whole, got) {
		t.Fatalf("mobilenet segment tiled differs by %g", MaxAbsDiff(whole, got))
	}
}
