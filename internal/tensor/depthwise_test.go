package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pico/internal/nn"
)

// eachDwVariant runs fn once per depthwise variant the host supports (the
// portable one included) with that variant forced through the walkers.
// Callers must not be t.Parallel: dwActive is process-wide.
func eachDwVariant(t *testing.T, fn func(t *testing.T, name string)) {
	t.Helper()
	defer func(v *dwVariant) { dwActive = v }(dwActive)
	for _, v := range dwVariants {
		dwActive = v
		fn(t, v.name)
	}
}

// TestDepthwisePlaneWalkerMatchesReference is the property test of the
// depthwise plane walker: over a table of planes with no interior row (1 to 3
// rows) and widths on both sides of one vector step (1, 2, 7, 14, 15, 17) at
// both strides, then random channel counts, map extents in [1,20], stride 1/2
// and pad 0/1 — every activation, batch norm on and off — the walker must
// equal the reference loops byte for byte: on the whole map and on both
// strips of every two-way row split (each strip fed exactly its halo rows, so
// strips cut through the rows a tile takes in one call), serial and parallel,
// float32 and int8. Every few trials a tap is zeroed so the float path also
// covers the kernels whose zero tap the reference skips and the fused tiles
// must decline.
// The whole sweep runs under every depthwise variant the host runs.
func TestDepthwisePlaneWalkerMatchesReference(t *testing.T) {
	eachDwVariant(t, testDepthwisePlaneWalker)
}

func testDepthwisePlaneWalker(t *testing.T, vn string) {
	rng := rand.New(rand.NewSource(14))
	acts := []nn.Activation{nn.NoAct, nn.ReLU, nn.LeakyReLU}
	type dwCase struct{ c, h, w, sh, sw, ph, pw int }
	var cases []dwCase
	for _, h := range []int{1, 2, 3} {
		for _, w := range []int{1, 2, 7, 14, 15, 17} {
			for s := 1; s <= 2; s++ {
				cases = append(cases, dwCase{3, h, w, s, s, 1, 1})
			}
		}
	}
	for len(cases) < 186 {
		cases = append(cases, dwCase{2 + rng.Intn(8), 1 + rng.Intn(20), 1 + rng.Intn(20),
			1 + rng.Intn(2), 1 + rng.Intn(2), rng.Intn(2), rng.Intn(2)})
	}
	for trial, tc := range cases {
		c, h, w := tc.c, tc.h, tc.w
		l := nn.Layer{
			Name: "dw", Kind: nn.Conv, KH: 3, KW: 3,
			SH: tc.sh, SW: tc.sw, PH: tc.ph, PW: tc.pw,
			OutC: c, Groups: c,
			Act: acts[trial%3], BatchNorm: trial%2 == 0,
		}
		if h+2*l.PH < 3 || w+2*l.PW < 3 {
			continue
		}
		outH := (h+2*l.PH-3)/l.SH + 1
		wts := genConv(int64(trial), "dw", &l, c)
		if trial%5 == 0 {
			wts.w[rng.Intn(len(wts.w))] = 0
			wts.pack(&l, 1)
		}
		in := RandomInput(nn.Shape{C: c, H: h, W: w}, int64(1000+trial))
		ref := convForwardRef(in, stripGeom(&l, in.C, in.W, 0, h, 0, outH), &l, wts, 1)
		qw := genQConv(wts, &l, 1, 0.03, 0.07)
		qin := randomQInput(c, h, w, int64(2000+trial))
		qref := qconvForwardRef(qin, stripGeom(&l, qin.C, qin.W, 0, h, 0, outH), &l, qw, 1)

		// windows: the whole map, then both sides of every split point.
		windows := [][2]int{{0, outH}}
		for s := 1; s < outH; s++ {
			windows = append(windows, [2]int{0, s}, [2]int{s, outH})
		}
		for _, par := range []int{1, 3} {
			for _, win := range windows {
				lo, hi := win[0], win[1]
				inLo, inHi := convInputRows(&l, lo, hi, h)
				if inHi <= inLo {
					continue // receptive field entirely in the padding
				}
				tile := in.SliceRows(inLo, inHi)
				got := convForward(tile, stripGeom(&l, tile.C, tile.W, inLo, h, lo, hi), &l, wts, par)
				if !Equal(got, ref.SliceRows(lo, hi)) {
					t.Fatalf("%s trial %d float c=%d %dx%d s=%d,%d p=%d,%d par=%d rows [%d,%d): walker != reference",
						vn, trial, c, h, w, l.SH, l.SW, l.PH, l.PW, par, lo, hi)
				}
				qtile := qin.SliceRows(inLo, inHi)
				qgot := qconvForward(qtile, stripGeom(&l, qtile.C, qtile.W, inLo, h, lo, hi), &l, qw, par)
				if !EqualQ(qgot, qref.SliceRows(lo, hi)) {
					t.Fatalf("%s trial %d int8 c=%d %dx%d s=%d,%d p=%d,%d par=%d rows [%d,%d): walker != reference",
						vn, trial, c, h, w, l.SH, l.SW, l.PH, l.PW, par, lo, hi)
				}
			}
		}
	}
}

// TestDepthwiseGeneralShapes covers the depthwise shapes without a fused tile
// (kernels other than 3x3, stride 3, pad 2), which run the walker's
// per-column loop end to end, under every depthwise variant.
func TestDepthwiseGeneralShapes(t *testing.T) {
	eachDwVariant(t, func(t *testing.T, vn string) { testDepthwiseGeneralShapes(t) })
}

func testDepthwiseGeneralShapes(t *testing.T) {
	shapes := []struct{ kh, kw, sh, sw, ph, pw int }{
		{5, 5, 1, 1, 2, 2}, {1, 3, 1, 1, 0, 1}, {3, 1, 2, 1, 1, 0},
		{3, 3, 3, 3, 1, 1}, {3, 3, 1, 1, 2, 2}, {3, 3, 2, 2, 2, 2}, {2, 2, 2, 2, 0, 0},
	}
	for i, s := range shapes {
		l := nn.Layer{
			Name: "dw", Kind: nn.Conv, KH: s.kh, KW: s.kw, SH: s.sh, SW: s.sw, PH: s.ph, PW: s.pw,
			OutC: 4, Groups: 4, Act: nn.LeakyReLU, BatchNorm: true,
		}
		const h, w = 11, 13
		outH := (h+2*l.PH-l.KH)/l.SH + 1
		wts := genConv(int64(i), "dwg", &l, 4)
		in := RandomInput(nn.Shape{C: 4, H: h, W: w}, int64(50+i))
		qw := genQConv(wts, &l, 1, 0.03, 0.07)
		qin := randomQInput(4, h, w, int64(60+i))
		for _, par := range []int{1, 3} {
			if got, ref := convForward(in, stripGeom(&l, in.C, in.W, 0, h, 0, outH), &l, wts, par), convForwardRef(in, stripGeom(&l, in.C, in.W, 0, h, 0, outH), &l, wts, 1); !Equal(got, ref) {
				t.Fatalf("shape %+v par=%d: float walker != reference", s, par)
			}
			if got, ref := qconvForward(qin, stripGeom(&l, qin.C, qin.W, 0, h, 0, outH), &l, qw, par), qconvForwardRef(qin, stripGeom(&l, qin.C, qin.W, 0, h, 0, outH), &l, qw, 1); !EqualQ(got, ref) {
				t.Fatalf("shape %+v par=%d: int8 walker != reference", s, par)
			}
		}
	}
}

// checkDWWalker runs one depthwise layer through both plane walkers under
// the active variant — on the whole map and on a strip through its middle
// rows fed exactly its halo rows, at par 1 and 3 — against the reference
// loops, bit for bit. It calls the walkers directly, so weights the
// dispatcher would route to the reference (a -0 bias) still reach the tiles.
func checkDWWalker(t *testing.T, vn string, l *nn.Layer, in Tensor, wts *convWeights, qin QTensor, qw *qconvWeights) {
	t.Helper()
	h := in.H
	outH := (h+2*l.PH-l.KH)/l.SH + 1
	ref := convForwardRef(in, stripGeom(l, in.C, in.W, 0, h, 0, outH), l, wts, 1)
	qref := qconvForwardRef(qin, stripGeom(l, qin.C, qin.W, 0, h, 0, outH), l, qw, 1)
	windows := [][2]int{{0, outH}}
	if outH >= 3 {
		windows = append(windows, [2]int{1, outH - 1})
	}
	for _, par := range []int{1, 3} {
		for _, win := range windows {
			lo, hi := win[0], win[1]
			inLo, inHi := convInputRows(l, lo, hi, h)
			tile, qtile := in.SliceRows(inLo, inHi), qin.SliceRows(inLo, inHi)
			if got := convForwardDepthwise(tile, stripGeom(l, tile.C, tile.W, inLo, h, lo, hi), l, wts, par); !Equal(got, ref.SliceRows(lo, hi)) {
				t.Fatalf("%s float c=%d %dx%d s=%d p=%d act=%v par=%d rows [%d,%d): walker != reference",
					vn, in.C, h, in.W, l.SH, l.PH, l.Act, par, lo, hi)
			}
			if got := qconvForwardDepthwise(qtile, stripGeom(l, qtile.C, qtile.W, inLo, h, lo, hi), l, qw, par); !EqualQ(got, qref.SliceRows(lo, hi)) {
				t.Fatalf("%s int8 c=%d %dx%d s=%d p=%d act=%v par=%d rows [%d,%d): walker != reference",
					vn, qin.C, h, qin.W, l.SH, l.PH, l.Act, par, lo, hi)
			}
		}
	}
}

// dwLayer is a 3x3 depthwise layer over c channels at stride s (both axes)
// and padding p, with its float and int8 parameters.
func dwLayer(seed int64, c, s, p int, act nn.Activation, bn bool) (nn.Layer, *convWeights, *qconvWeights) {
	l := nn.Layer{Name: "dw", Kind: nn.Conv, KH: 3, KW: 3, SH: s, SW: s, PH: p, PW: p,
		OutC: c, Groups: c, Act: act, BatchNorm: bn}
	wts := genConv(seed, "dwr", &l, c)
	return l, wts, genQConv(wts, &l, 1, 0.03, 0.07)
}

// TestDepthwiseRunsMatchReference drives the edges of the run tiles through
// both walkers under every depthwise variant: widths 1 to 112 on both sides
// of a 16- and a 32-column step at both strides and paddings 0 and 1, in runs
// of 1, 2 and 5 channel planes; 13 planes at par 3, split into chunks across
// runs that float zero-tap channels interrupt; float NaN, ±Inf and -0 inputs,
// a -0 bias, zero taps and infinite taps at the edges; int8 requantize
// scales that put every odd accumulator on a rounding tie (1/2) and saturate
// both rails (1). NaN inputs never share a layer with ±Inf values: where two
// different NaNs meet in a chain (an input's, and the default NaN of Inf*0 or
// Inf-Inf), fma32 keeps the product's and VFMADD231PS the accumulator's.
func TestDepthwiseRunsMatchReference(t *testing.T) {
	eachDwVariant(t, func(t *testing.T, vn string) {
		acts := []nn.Activation{nn.NoAct, nn.ReLU, nn.LeakyReLU}
		trial := 0
		for _, w := range []int{1, 2, 7, 14, 15, 16, 17, 31, 32, 33, 112} {
			for s := 1; s <= 2; s++ {
				for i, c := range []int{1, 2, 5} {
					h := []int{1, 5, 9}[i]
					if w == 112 {
						h = 4
					}
					p := 1 - trial%5/4 // mostly MobileNetV1's padding 1
					if w+2*p < 3 || h+2*p < 3 {
						continue
					}
					l, wts, qw := dwLayer(int64(trial), c, s, p, acts[trial%3], trial%2 == 0)
					checkDWWalker(t, vn, &l, RandomInput(nn.Shape{C: c, H: h, W: w}, int64(trial)), wts, randomQInput(c, h, w, int64(trial)), qw)
					trial++
				}
			}
		}

		// Runs across chunks: 13 planes of 20x20 make par 3 split the layer
		// into [0,5), [5,10), [10,13); zero taps in channels 3 and 7 cut the
		// float runs inside the first two chunks.
		for s := 1; s <= 2; s++ {
			l, wts, qw := dwLayer(int64(40+s), 13, s, 1, nn.ReLU, true)
			wts.w[3*9+4], wts.w[7*9] = 0, 0
			checkDWWalker(t, vn, &l, RandomInput(nn.Shape{C: 13, H: 20, W: 20}, 7), wts, randomQInput(13, 20, 20, 8), qw)
		}

		// Special float values and int8 ties and saturation.
		rng := rand.New(rand.NewSource(3))
		for s := 1; s <= 2; s++ {
			for _, w := range []int{7, 14, 33} {
				for i, act := range acts {
					l, wts, qw := dwLayer(int64(50+s+w), 6, s, 1, act, i != 1)
					specials := []float32{float32(math.NaN()), float32(math.Copysign(0, -1)), 0}
					if i == 1 {
						// ±Inf inputs and infinite edge taps: a padding tap
						// added as Inf*0 instead of skipped turns a column NaN.
						specials[0] = float32(math.Inf(1 - 2*w%2))
						wts.w[3*9], wts.w[5*9+5] = float32(math.Inf(1)), float32(math.Inf(-1))
					}
					in := RandomInput(nn.Shape{C: 6, H: 9, W: w}, int64(w))
					for k := 0; k < len(in.Data)/8; k++ {
						in.Data[rng.Intn(len(in.Data))] = specials[rng.Intn(len(specials))]
					}
					wts.bias[1] = float32(math.Copysign(0, -1))
					wts.w[4*9+1] = 0
					for oc := range qw.effScale[:6] {
						qw.effScale[oc], qw.effBias[oc] = []float32{0.5, 1}[oc%2], 0
					}
					checkDWWalker(t, vn, &l, in, wts, randomQInput(6, 9, w, int64(w+1)), qw)
				}
			}
		}
	})
}

// dwTileCase is one span geometry for driving a dwTile directly: cols output
// columns whose first/last column overhangs the map when left/right is set.
type dwTileCase struct {
	cols, sw    int
	left, right bool
}

// geometry returns the span's x0 and the map width that realises the case.
func (c dwTileCase) geometry(slack int) (x0, inW int) {
	if c.left {
		x0 = -1
	}
	inW = x0 + (c.cols-1)*c.sw + 3 // last column's tap 2 is the map's last column
	if c.right {
		inW--
	} else {
		inW += slack
	}
	return x0, inW
}

// dwTileCases enumerates every width in [1,9] plus n, both strides and every
// edge combination that leaves an interior column.
func dwTileCases(n int) []dwTileCase {
	var cases []dwTileCase
	for _, cols := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, n} {
		for sw := 1; sw <= 2; sw++ {
			for e := 0; e < 4; e++ {
				c := dwTileCase{cols: cols, sw: sw, left: e&1 != 0, right: e&2 != 0}
				if interior := cols - e&1 - e>>1; interior >= 1 {
					cases = append(cases, c)
				}
			}
		}
	}
	return cases
}

// checkDWTiles drives a typed dwTile directly — c carries it with the seed and
// epilogue operands — over every span case of width 1-9 and n, on planes of 1
// to 6 rows under row padding 0-2 and both row strides (so output rows miss
// kernel rows above, below and on both sides at once), against the contract
// spelled out: dw3x3Row over the kernel rows in the map, then fin. The tensor
// ends `slack` elements after the plane (0: the vector tile's read-ahead does
// not fit the last rows, so the portable form runs there; 40: the vector tile
// runs) and starts `off` elements before it (0: a left-overhanging first row
// cannot read the byte before it and is portable too). Sentinels around and
// between the output rows catch a tail store writing past the span.
func checkDWTiles[E elem, A accum](t *testing.T, n, extra int, c dwChan[E, A], rnd func() E, fin func(dst []E, acc []A), eq func(a, b E) bool) {
	t.Helper()
	fill := func(k int) []E {
		s := make([]E, k)
		for i := range s {
			s[i] = rnd()
		}
		return s
	}
	for _, tc := range dwTileCases(n) {
		for _, hp := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 1, 2}, {3, 0, 1}, {3, 1, 2}, {3, 2, 1}, {5, 1, 1}, {5, 2, 2}, {6, 0, 2}} {
			h, ph, sh := hp[0], hp[1], hp[2]
			for _, slack := range []int{0, 40} {
				for off := 0; off < 2; off++ {
					x0, inW := tc.geometry(extra)
					g := dwGeom{kh: 3, kw: 3, sh: sh, sw: tc.sw, ph: ph, inH: h, inW: inW, inHGlobal: h,
						ih0: -ph, outRows: (h+2*ph-3)/sh + 1, outW: tc.cols + extra, tileHi: tc.cols, x0: x0}
					if tc.left {
						g.left = 1
					}
					if tc.right {
						g.right = 1
					}
					g.n, g.x = tc.cols-g.left-g.right, x0+g.left*tc.sw
					in := fill(off + h*inW + slack)
					const guard = 17
					got := fill(guard + (g.outRows-1)*g.outW + tc.cols + guard)
					want := append([]E(nil), got...)
					c.g, c.w, c.acc = &g, fill(9), nil
					c.tile(&c, got[guard:], in, off)
					acc := make([]A, tc.cols)
					for r := 0; r < g.outRows; r++ {
						kLo, nrows, o := g.krows(r)
						dw3x3Row(acc, in[off+o:], x0, inW, nrows, c.w[3*kLo:], c.seed, tc.sw)
						fin(want[guard+r*g.outW:][:tc.cols], acc)
					}
					for i := range want {
						if !eq(got[i], want[i]) {
							t.Fatalf("%+v %dx%d ph=%d sh=%d slack=%d off=%d outW=%d: dst[%d]=%v want %v",
								tc, h, inW, ph, sh, slack, off, g.outW, i-guard, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// BenchmarkDepthwisePlanes times the depthwise walkers alone (no input
// quantization) at par=1 under every depthwise variant the host runs, in both
// precisions: one row per distinct MobileNetV1 depthwise shape, then
// mnv1-13, one pass over all 13 of its depthwise layers in model order (the
// 14x14x512 stride-1 shape five times):
//
//	go test -run NONE -bench DepthwisePlanes -cpu 1 ./internal/tensor
func BenchmarkDepthwisePlanes(b *testing.B) {
	type dwLayerBench struct {
		name    string
		l       nn.Layer
		wts     *convWeights
		qw      *qconvWeights
		in      Tensor
		qin     QTensor
		g       geom
		macs    float64
		repeats bool // an earlier layer has the same shape
	}
	m := nn.MobileNetV1()
	var layers []dwLayerBench
	seen := map[string]bool{}
	for i, l := range m.Layers {
		in := m.InShape(i)
		if l.Kind != nn.Conv || !depthwise(&l, in.C) {
			continue
		}
		name := fmt.Sprintf("%dx%d-s%d", in.H, in.C, l.SH)
		wts := genConv(1, "bdw", &l, in.C)
		outH, outW := (in.H+2*l.PH-l.KH)/l.SH+1, outWidth(&l, in.W)
		layers = append(layers, dwLayerBench{name: name, l: l, wts: wts, qw: genQConv(wts, &l, 1, 0.03, 0.07),
			in: RandomInput(in, 2), qin: randomQInput(in.C, in.H, in.W, 2), g: stripGeom(&l, in.C, in.W, 0, in.H, 0, outH),
			macs: float64(outH * outW * l.KH * l.KW * in.C), repeats: seen[name]})
		seen[name] = true
	}
	run := func(b *testing.B, ls []dwLayerBench, dt DType) {
		var macs float64
		for _, l := range ls {
			macs += l.macs
		}
		for i := 0; i < b.N; i++ {
			for j := range ls {
				l := &ls[j]
				if dt == Int8 {
					RecycleQ(qconvForward(l.qin, l.g, &l.l, l.qw, 1))
				} else {
					Recycle(convForward(l.in, l.g, &l.l, l.wts, 1))
				}
			}
		}
		b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
	}
	for _, v := range dwVariants {
		for _, dt := range []DType{Float32, Int8} {
			for j := range layers {
				if !layers[j].repeats {
					b.Run(fmt.Sprintf("%s/%v/%s", layers[j].name, dt, v.name), func(b *testing.B) {
						defer func(a *dwVariant) { dwActive = a }(dwActive)
						dwActive = v
						run(b, layers[j:j+1], dt)
					})
				}
			}
			b.Run(fmt.Sprintf("mnv1-%d/%v/%s", len(layers), dt, v.name), func(b *testing.B) {
				defer func(a *dwVariant) { dwActive = a }(dwActive)
				dwActive = v
				run(b, layers, dt)
			})
		}
	}
}
