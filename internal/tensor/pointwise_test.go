package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pico/internal/nn"
	"pico/internal/partition"
)

// eachFpwVariant runs fn once per float pointwise tile variant the host
// supports (the portable tile included) with that variant forced through the
// walker. Callers must not be t.Parallel: fpwActive is process-wide.
func eachFpwVariant(t *testing.T, fn func(t *testing.T, name string)) {
	t.Helper()
	defer func(v *fpwVariant) { fpwActive = v }(fpwActive)
	for _, v := range fpwVariants {
		fpwActive = v
		fn(t, v.name)
	}
}

// checkFpwTile drives one variant's tile directly — the tiles of a
// tile-major panel of k tap rows holding cols columns into fpwMR rows
// dstStride apart, for the block at channel oc0 — against a scalar
// evaluation of its contract, batch norm on and off under every activation,
// and checks it writes nothing outside its fpwMR x tiles*nr cells (the last
// tile's columns past cols may be left as they were). With special set, panel columns draw
// some taps from NaN and -0 (even columns) or +-Inf and -0 (odd ones), so no
// chain meets two distinct NaNs (see TestFpwVariantsMatchReference).
func checkFpwTile(t *testing.T, v *fpwVariant, rng *rand.Rand, k, cols, dstStride int, special bool) {
	t.Helper()
	randF := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = (rng.Float32()*2 - 1) * 8
		}
		return s
	}
	negZero := float32(math.Copysign(0, -1))
	specials := [2][]float32{{float32(math.NaN()), negZero}, {float32(math.Inf(1)), float32(math.Inf(-1)), negZero}}
	tiles := (cols + fpwNR - 1) / fpwNR
	src, w := randF(tiles*k*fpwNR), randF(k*fpwMR)
	if special {
		for i := 0; i < 1+len(src)/16; i++ {
			p := rng.Intn(len(src))
			sp := specials[p%fpwNR%2]
			src[p] = sp[rng.Intn(len(sp))]
		}
	}
	oc0 := rng.Intn(2) * fpwMR
	for _, bn := range []bool{false, true} {
		p := &fparams{bias: randF(2 * fpwMR)}
		p.bias[oc0] = negZero
		if bn {
			p.bnScale, p.bnShift = randF(2*fpwMR), randF(2*fpwMR)
		}
		for _, act := range []nn.Activation{nn.NoAct, nn.ReLU, nn.LeakyReLU} {
			got := randF((fpwMR-1)*dstStride + tiles*fpwNR)
			want := append([]float32(nil), got...)
			before := append([]float32(nil), got...)
			v.tile(got, dstStride, src, w, p, oc0, k, cols, act)
			for b := 0; b < fpwMR; b++ {
				for j := 0; j < tiles*fpwNR; j++ {
					acc := p.bias[oc0+b]
					for g := 0; g < k; g++ {
						acc = fma32(w[g*fpwMR+b], src[(j/fpwNR*k+g)*fpwNR+j%fpwNR], acc)
					}
					if bn {
						acc = float32(acc*p.bnScale[oc0+b]) + p.bnShift[oc0+b]
					}
					if acc < 0 && act == nn.ReLU {
						acc = 0
					} else if acc < 0 && act == nn.LeakyReLU {
						acc *= 0.1
					}
					want[b*dstStride+j] = acc
				}
			}
			for i := range want {
				if i%dstStride >= cols && i%dstStride < tiles*fpwNR && (got[i] == before[i] || got[i] != got[i]) {
					continue // past cols in the last tile: left, or computed (NaN compares unequal; its bits are unchecked)
				}
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s tile k=%d cols=%d dstStride=%d oc0=%d bn=%v act=%v: dst[%d]=%g want %g",
						v.name, k, cols, dstStride, oc0, bn, act, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFpwVariantsMatchReference is the float pointwise walker's table: every
// tile variant against the reference kernel bit for bit — flattened widths on both
// sides of one tile, of two, and of one column block; reductions from one
// channel to more than a panel bound's worth; a ragged last channel block and
// a sparse one (a zero weight: packed == nil, the per-channel sweep whose
// zero-tap skip the packed tile must not be handed); NaN, +-Inf and -0
// activations and a -0 bias; batch norm on and off under every activation;
// every worker count (column-block and channel-slice splits).
func TestFpwVariantsMatchReference(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	special := [2][]float32{{float32(math.NaN()), negZero}, {float32(math.Inf(1)), float32(math.Inf(-1)), negZero}}
	acts := []nn.Activation{nn.NoAct, nn.ReLU, nn.LeakyReLU}
	ci := 0
	for _, n := range []int{1, 15, 16, 17, 31, 32, 33, 49, 63, 64, 65, 196, 3136} {
		for _, inC := range []int{1, 3, 32, 513} {
			ci++
			if n > 1000 && inC > 32 {
				continue // keep the reference loop affordable
			}
			h, w := 1, n
			switch n {
			case 49, 196, 3136:
				w = int(math.Sqrt(float64(n)))
				h = w
			}
			outC := []int{9, 11, 14, 15, 17, 19, 23}[ci%7] // never a multiple of fpwMR
			l := nn.Layer{Name: "pw", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: outC, Act: acts[ci%3], BatchNorm: ci%2 == 0}
			cw := genConvParams(int64(500+ci), "fpw", &l, inC)
			cw.bias[0] = negZero
			sparse := outC > 2*fpwMR
			if sparse {
				cw.w[fpwMR*inC+inC/2] = 0 // second block: sparse, first stays dense, third ragged
			}
			cw.pack(&l, inC)
			if cw.packed[0] == nil || (sparse && cw.packed[1] != nil) || outC%fpwMR == 0 {
				t.Fatalf("inC=%d outC=%d: block plan is not dense/sparse/ragged as the case intends", inC, outC)
			}
			in := RandomInput(nn.Shape{C: inC, H: h, W: w}, int64(600+ci))
			// Even pixels draw from NaN and -0, odd ones from +-Inf and -0, so
			// no reduction meets two distinct NaNs (the input's and Inf-Inf's
			// default one): x86 then keeps the first operand's, and which
			// operand of a scalar add comes first is the compiler's choice.
			rng := rand.New(rand.NewSource(int64(ci)))
			for k := 0; k < 1+len(in.Data)/50; k++ {
				p := rng.Intn(n)
				in.Data[rng.Intn(inC)*n+p] = special[p%2][rng.Intn(len(special[p%2]))]
			}
			g := stripGeom(&l, inC, w, 0, h, 0, h)
			ref := convForwardRef(in, g, &l, cw, 1)
			eachFpwVariant(t, func(t *testing.T, vn string) {
				for _, par := range workerCounts {
					got := convForward(in, g, &l, cw, par)
					if !Equal(got, ref) { // Equal compares bit patterns: NaN payloads and zero signs count
						t.Fatalf("%s n=%d inC=%d outC=%d act=%v bn=%v par=%d: differs from the reference kernel",
							vn, n, inC, outC, l.Act, l.BatchNorm, par)
					}
					Recycle(got)
				}
			})
		}
	}
}

// TestFpwTileMatchesScalar A/Bs every variant's raw tile against a direct
// scalar evaluation of its contract.
func TestFpwTileMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for _, v := range fpwVariants {
		for trial := 0; trial < 50; trial++ {
			cols := 1 + rng.Intn(3*fpwNR)
			checkFpwTile(t, v, rng, 1+rng.Intn(40), cols, (cols+fpwNR-1)/fpwNR*fpwNR+rng.Intn(9), trial%2 == 1)
		}
	}
}

// TestGeneratedConvBlocksPacked: under the generated weights the benchmark
// runs (seed 1), every conv block of MobileNetV1 and of the two ToyChains
// whose group holds at least fpwMR channels is packed, so no benchmarked
// layer falls into the driver's plain-Go sparse sweep unseen (a weight
// drawn exactly zero would put its block there).
func TestGeneratedConvBlocksPacked(t *testing.T) {
	for _, m := range []*nn.Model{nn.MobileNetV1(), nn.ToyChain("tiny", 4, 2, 8, 32), nn.ToyChain("toy", 8, 3, 16, 64)} {
		e, err := NewExecutor(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		blocks := 0
		walkWeightLayers(t, m, func(key string, l *nn.Layer, in nn.Shape, _ int) {
			if l.Kind != nn.Conv || l.OutC/max(l.Groups, 1) < fpwMR {
				return
			}
			for i, panel := range e.convW(key, l, in.C, 0, 0).packed {
				blocks++
				if panel == nil {
					t.Errorf("%s layer %s: block %d is not packed", m.Name, key, i)
				}
			}
		})
		if blocks == 0 {
			t.Fatalf("%s: no block checked", m.Name)
		}
	}
}

// pointwiseHeavyModel is dw -> pw -> pw with ragged channel counts: grid
// tiles of its output back-propagate to partial-width pointwise tiles.
func pointwiseHeavyModel(c, h, w int) *nn.Model {
	return &nn.Model{Name: "pwheavy", Input: nn.Shape{C: c, H: h, W: w}, Layers: []nn.Layer{
		{Name: "dw", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: c, Groups: c, Act: nn.ReLU, BatchNorm: true},
		{Name: "pw1", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: 2*c + 3, Act: nn.ReLU, BatchNorm: true},
		{Name: "pw2", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: c + 1, Act: nn.LeakyReLU},
	}}
}

// TestFpwGridMatchesRun: partial-width pointwise tiles take the GEMM walker
// (their gather copies row segments), so random grid splits of a
// pointwise-heavy model must stitch byte-identical to Run under every
// variant.
func TestFpwGridMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		m := pointwiseHeavyModel(5+rng.Intn(8), 20+rng.Intn(30), 20+rng.Intn(50))
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

// TestFpwTileAboveNeededRows: a pointwise call whose tile starts above (and
// left of) the region it must produce — ihBase > 0 — reads the right cells.
func TestFpwTileAboveNeededRows(t *testing.T) {
	l := nn.Layer{Name: "pw", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: 9, Act: nn.ReLU, BatchNorm: true}
	const inC, h, w = 7, 23, 37
	cw := genConv(9, "fpwoff", &l, inC)
	full := RandomInput(nn.Shape{C: inC, H: h, W: w}, 10)
	whole := convForwardRef(full, stripGeom(&l, inC, w, 0, h, 0, h), &l, cw, 1)
	for _, tc := range []struct{ tile, out partition.Rect }{
		{partition.Rect{Rows: partition.Range{Lo: 3, Hi: 20}, Cols: partition.Full(w)}, partition.Rect{Rows: partition.Range{Lo: 5, Hi: 19}, Cols: partition.Full(w)}},
		{partition.Rect{Rows: partition.Range{Lo: 2, Hi: 23}, Cols: partition.Range{Lo: 4, Hi: 33}}, partition.Rect{Rows: partition.Range{Lo: 6, Hi: 22}, Cols: partition.Range{Lo: 9, Hi: 30}}},
	} {
		tile := MapOf(full).SliceRect(tc.tile).Tensor()
		g := geom{rowLo: tc.tile.Rows.Lo, colLo: tc.tile.Cols.Lo, in: nn.Shape{C: inC, H: h, W: w}, out: tc.out}
		want := MapOf(whole).SliceRect(tc.out).Tensor()
		eachFpwVariant(t, func(t *testing.T, vn string) {
			for _, par := range workerCounts {
				if !Equal(convForward(tile, g, &l, cw, par), want) {
					t.Fatalf("%s par=%d: tile %v -> %v differs from the whole map's region", vn, par, tc.tile, tc.out)
				}
			}
		})
	}
}

// BenchmarkFpwVariants times the float GEMM walker alone under every tile
// variant the host supports, at par=1: on MobileNetV1's ten distinct
// pointwise shapes and the 3-row strip of the 14x14 layer a 3-device pipeline
// stage runs, whose panel is a copy of the channel planes; on gathered shapes
// — MobileNetV1's stem, a VGG-style 3x3 at both strides, Inception's 1x7 and
// the two ToyChain layers tiny_overhead runs; and as mnv1-pointwise, all 13
// of MobileNetV1's pointwise layers in order (14x14x512-512 five times) per
// op. Rows of one variant depend on which variant ran before it in the same
// process, so compare a variant across commits with `make bench-fpw`, which
// runs each alone at -cpu 1:
//
//	go test -run NONE -bench FpwVariants ./internal/tensor
func BenchmarkFpwVariants(b *testing.B) {
	type shape struct {
		name string
		in   nn.Shape
		l    nn.Layer
	}
	var shapes []shape
	for _, s := range [][4]int{{112, 112, 32, 64}, {56, 56, 64, 128}, {56, 56, 128, 128}, {28, 28, 128, 256}, {28, 28, 256, 256},
		{14, 14, 256, 512}, {14, 14, 512, 512}, {7, 7, 512, 1024}, {7, 7, 1024, 1024}, {3, 14, 512, 512}} {
		shapes = append(shapes, shape{fmt.Sprintf("%dx%dx%d-%d", s[0], s[1], s[2], s[3]), nn.Shape{C: s[2], H: s[0], W: s[1]},
			nn.Layer{Name: "c", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: s[3], Act: nn.ReLU, BatchNorm: true}})
	}
	conv := func(name string, c, hw, kh, kw, st, ph, pw, outC int) shape {
		return shape{name, nn.Shape{C: c, H: hw, W: hw},
			nn.Layer{Name: "c", Kind: nn.Conv, KH: kh, KW: kw, SH: st, SW: st, PH: ph, PW: pw, OutC: outC, Act: nn.ReLU, BatchNorm: true}}
	}
	shapes = append(shapes,
		conv("stem224x3-32-s2", 3, 224, 3, 3, 2, 1, 1, 32),
		conv("conv3x3s2", 64, 56, 3, 3, 2, 1, 1, 128),
		conv("conv1x7", 64, 17, 1, 7, 1, 0, 3, 64),
		conv("conv3x3-56x64-128", 64, 56, 3, 3, 1, 1, 1, 128),
		conv("toy32x32x1-8", 1, 32, 3, 3, 1, 1, 1, 8),
		conv("toy32x32x8-8", 8, 32, 3, 3, 1, 1, 1, 8))
	type call struct {
		in Tensor
		g  geom
		l  *nn.Layer
		cw *convWeights
	}
	prep := func(sh *shape) (call, float64) {
		out, err := sh.l.OutShape(sh.in)
		if err != nil {
			b.Fatal(err)
		}
		c := call{RandomInput(sh.in, 2), stripGeom(&sh.l, sh.in.C, sh.in.W, 0, sh.in.H, 0, out.H), &sh.l, genConv(1, "bfpw", &sh.l, sh.in.C)}
		return c, float64(out.Elems() * sh.in.C * sh.l.KH * sh.l.KW)
	}
	run := func(name string, calls []call, macs float64) {
		for _, v := range fpwVariants {
			b.Run(name+"/"+v.name, func(b *testing.B) {
				defer func(v *fpwVariant) { fpwActive = v }(fpwActive)
				fpwActive = v
				for i := 0; i < b.N; i++ {
					for _, c := range calls {
						Recycle(convForward(c.in, c.g, c.l, c.cw, 1))
					}
				}
				b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
	var mnv1 []call
	var mnv1MACs float64
	mnv1Reps := []int{1, 1, 1, 1, 1, 1, 5, 1, 1} // per shape of the first nine: 14x14x512-512 five times
	for i := range shapes {
		c, macs := prep(&shapes[i])
		run(shapes[i].name, []call{c}, macs)
		for r := 0; i < len(mnv1Reps) && r < mnv1Reps[i]; r++ {
			mnv1, mnv1MACs = append(mnv1, c), mnv1MACs+macs
		}
	}
	run("mnv1-pointwise", mnv1, mnv1MACs)
}
