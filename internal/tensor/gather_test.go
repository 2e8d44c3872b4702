package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"pico/internal/nn"
	"pico/internal/partition"
)

// TestFpwGatherMatchesReference holds the float GEMM walker over gathered taps
// — and with it the padded-tap contract — to convForwardRef bit for bit
// (Equal compares Float32bits: NaN payloads and zero signs count) under every
// tile variant: kernels 3x3 at stride 1 and 2, Inception's 1x7 and 7x1,
// ResNet's 7x7/2 stem, 5x5, 11x11/4 and 1x11, and a 3x3 padded by 3 so border
// windows read nothing but padding; input channels 1, 3, 8, 64 and 129;
// output channels off the 4-channel block (a ragged block), one case in three
// with a sparse block (a zero weight: packed == nil); groups 1 and 2 and
// depthwise, which reaches the walker on partial-width tiles; maps smaller
// than the kernel; NaN, +-Inf and -0 activations; batch norm on and off under
// every activation; and checkConvTiles' whole map, strip starting inside its
// tile and grid cells at every worker count. NaN and Inf never share a case:
// a k x k window would meet an input NaN and the default NaN of Inf - Inf in
// one add, whose surviving payload scalar Go leaves to the compiler
// (DESIGN.md §6).
func TestFpwGatherMatchesReference(t *testing.T) {
	kernels := []struct {
		name                   string
		kh, kw, sh, sw, ph, pw int
	}{
		{"3x3", 3, 3, 1, 1, 1, 1}, {"3x3s2", 3, 3, 2, 2, 1, 1}, {"1x7", 1, 7, 1, 1, 0, 3}, {"7x1", 7, 1, 1, 1, 3, 0},
		{"7x7s2", 7, 7, 2, 2, 3, 3}, {"5x5", 5, 5, 1, 1, 2, 2}, {"11x11s4", 11, 11, 4, 4, 2, 2}, {"1x11", 1, 11, 1, 1, 0, 5},
		{"3x3p3", 3, 3, 1, 1, 3, 3},
	}
	negZero := float32(math.Copysign(0, -1))
	special := [2][]float32{{float32(math.NaN()), negZero}, {float32(math.Inf(1)), float32(math.Inf(-1)), negZero}}
	acts := []nn.Activation{nn.NoAct, nn.ReLU, nn.LeakyReLU}
	ci := 0
	for _, k := range kernels {
		for _, inC := range []int{1, 3, 8, 64, 129} {
			ci++
			outC, groups := []int{5, 6, 9, 13}[ci%4], 1
			switch {
			case ci%4 == 1 && inC%2 == 0:
				groups, outC = 2, outC+outC%2
			case ci%4 == 3:
				groups, outC = inC, inC
			}
			icg := inC / groups
			if icg*k.kh*k.kw > 2000 {
				continue // keep the reference and the portable tile affordable
			}
			l := nn.Layer{Name: "c", Kind: nn.Conv, KH: k.kh, KW: k.kw, SH: k.sh, SW: k.sw, PH: k.ph, PW: k.pw,
				OutC: outC, Groups: groups, Act: acts[ci%3], BatchNorm: ci/2%2 == 0}
			// Every fifth map is smaller than the kernel (yet has an output).
			h, w := k.kh+2+ci%5, k.kw+1+ci%7
			if ci%5 == 0 {
				h, w = max(k.kh-2*k.ph, 1)+ci%2, max(k.kw-2*k.pw, 1)+ci%3
			}
			cw := genConvParams(int64(700+ci), "gather", &l, inC)
			if ci%3 == 0 && outC/groups >= fpwMR {
				cw.w[icg*k.kh*k.kw/2] = 0 // the group's first block: sparse
			}
			cw.pack(&l, icg)
			in := RandomInput(nn.Shape{C: inC, H: h, W: w}, int64(800+ci))
			rng := rand.New(rand.NewSource(int64(ci)))
			sp := special[ci%2]
			for j := 0; j < 1+len(in.Data)/40; j++ {
				in.Data[rng.Intn(len(in.Data))] = sp[rng.Intn(len(sp))]
			}
			out := partition.FullRect((h+2*l.PH-l.KH)/l.SH+1, outWidth(&l, w))
			full, _ := convRectGeom(&l, inC, h, w, out)
			ref := MapOf(convForwardRef(in, full, &l, cw, 1))
			tag := fmt.Sprintf("%s %d->%d g%d on %dx%d act=%v bn=%v", k.name, inC, outC, groups, h, w, l.Act, l.BatchNorm)
			eachFpwVariant(t, func(t *testing.T, vn string) {
				checkConvTiles(t, vn+" "+tag, MapOf(in), &l, func(tile FMap, g geom, par int) FMap {
					return MapOf(convForwardGEMM(tile.Tensor(), g, &l, cw, par))
				}, ref, workerCounts)
			})
		}
	}
}

// vggLikeModel is a VGG-style chain with Inception's asymmetric kernels and
// ragged channel counts: grid tiles of its output back-propagate to
// partial-width tiles of every gathered shape.
func vggLikeModel(c, h, w int) *nn.Model {
	return &nn.Model{Name: "vgglike", Input: nn.Shape{C: c, H: h, W: w}, Layers: []nn.Layer{
		{Name: "c1", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 2 * c, Act: nn.ReLU},
		{Name: "c2", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 2*c + 1, Act: nn.ReLU, BatchNorm: true},
		{Name: "p", Kind: nn.MaxPool, KH: 2, KW: 2, SH: 2, SW: 2},
		{Name: "c3", Kind: nn.Conv, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1, OutC: 2*c + 3, Act: nn.LeakyReLU},
		{Name: "c4", Kind: nn.Conv, KH: 1, KW: 7, SH: 1, SW: 1, PW: 3, OutC: c + 1, Act: nn.ReLU, BatchNorm: true},
		{Name: "c5", Kind: nn.Conv, KH: 7, KW: 1, SH: 1, SW: 1, PH: 3, OutC: c, Act: nn.NoAct},
	}}
}

// TestFpwGatherGridMatchesRun: random grid splits of a VGG-like chain stitch
// byte-identical to Run under every tile variant.
func TestFpwGatherGridMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 5; trial++ {
		m := vggLikeModel(2+rng.Intn(5), 24+rng.Intn(20), 24+rng.Intn(30))
		e := mustExec(t, m)
		in := RandomInput(m.Input, int64(trial))
		whole, err := e.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		out := m.Output()
		rows, cols := 1+rng.Intn(3), 2+rng.Intn(2)
		eachFpwVariant(t, func(t *testing.T, vn string) {
			got := runGridPartitioned(t, e, 0, m.NumLayers(), in, partition.GridPartition(out.H, out.W, rows, cols))
			if !Equal(whole, got) {
				t.Fatalf("%s trial %d (%dx%d grid on %v): grid stitch differs from Run by %g", vn, trial, rows, cols, m.Input, MaxAbsDiff(whole, got))
			}
		})
	}
}

// TestPadExactGuard: weights that break the padded-tap contract — a -0 bias,
// a +-Inf or NaN weight — make the walker differ from the reference over a
// padded window (so the guard is load-bearing), and convForward, seeing
// padExact false, returns the reference's bits.
func TestPadExactGuard(t *testing.T) {
	// Padding 3 around a 3x3 kernel: the map's corner windows read only padding.
	l := nn.Layer{Name: "g", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 3, PW: 3, OutC: fpwMR}
	const inC, h, w = 3, 6, 5
	in := RandomInput(nn.Shape{C: inC, H: h, W: w}, 3)
	g := stripGeom(&l, inC, w, 0, h, 0, h+4)
	for _, tc := range []struct {
		name  string
		spoil func(cw *convWeights)
	}{
		{"-0 bias", func(cw *convWeights) {
			cw.bias[0] = float32(math.Copysign(0, -1))
			for i := range cw.w[:inC*9] {
				cw.w[i] = float32(math.Abs(float64(cw.w[i]))) // -0 + w*0 = +0 in the walker
			}
		}},
		{"+Inf weight", func(cw *convWeights) { cw.w[0] = float32(math.Inf(1)) }},
		{"-Inf weight", func(cw *convWeights) { cw.w[5] = float32(math.Inf(-1)) }},
		{"NaN weight", func(cw *convWeights) { cw.w[2] = float32(math.NaN()) }},
	} {
		cw := genConvParams(5, "guard", &l, inC)
		tc.spoil(cw)
		cw.pack(&l, inC)
		if cw.padExact || cw.packed[0] == nil {
			t.Fatalf("%s: padExact %v, packed block %v", tc.name, cw.padExact, cw.packed[0] != nil)
		}
		ref := convForwardRef(in, g, &l, cw, 1)
		eachFpwVariant(t, func(t *testing.T, vn string) {
			if Equal(convForwardGEMM(in, g, &l, cw, 1), ref) {
				t.Fatalf("%s %s: the walker matches the reference; the case does not exercise the guard", vn, tc.name)
			}
			for _, par := range workerCounts {
				if got := convForward(in, g, &l, cw, par); !Equal(got, ref) {
					t.Fatalf("%s %s par=%d: convForward differs from the reference", vn, tc.name, par)
				}
			}
		})
	}
}

// TestGeneratedWeightsPadExact walks every convolution of every nn model —
// block paths included, under the executor's weight keys — and checks that
// its generated parameters hold the padded-tap contract, which pack records
// as padExact: production never takes the reference kernel.
func TestGeneratedWeightsPadExact(t *testing.T) {
	models := []*nn.Model{nn.VGG16(), nn.YOLOv2(), nn.ResNet34(), nn.InceptionV3(), nn.MobileNetV1(),
		nn.Fig13Toy(), nn.TinyGraph(), nn.TinySeparable(), nn.ToyChain("tiny", 4, 2, 8, 32), nn.ToyChain("toy", 8, 3, 16, 64)}
	for _, m := range models {
		var walk func(layers []nn.Layer, in nn.Shape, key func(i int) string)
		walk = func(layers []nn.Layer, in nn.Shape, key func(i int) string) {
			for i := range layers {
				l := &layers[i]
				switch l.Kind {
				case nn.Conv:
					if cw := genConvParams(1, key(i), l, in.C); !padTapsExact(cw.w, cw.bias) {
						t.Fatalf("%s layer %s (%s): generated weights break the padded-tap contract", m.Name, key(i), l.Name)
					}
				case nn.Block:
					for pi, path := range l.Paths {
						walk(path, in, func(li int) string { return key(i) + "/" + strconv.Itoa(pi) + "/" + strconv.Itoa(li) })
					}
				}
				out, err := l.OutShape(in)
				if err != nil {
					t.Fatal(err)
				}
				in = out
			}
		}
		walk(m.Layers, m.Input, strconv.Itoa)
	}
}
