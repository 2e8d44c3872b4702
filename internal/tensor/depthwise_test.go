package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"pico/internal/nn"
)

// TestDepthwisePlaneWalkerMatchesReference is the property test of the
// depthwise plane walker: over a table of planes with no interior row (1 to 3
// rows) and widths on both sides of one vector step (1, 2, 7, 14, 15, 17) at
// both strides, then random channel counts, map extents in [1,20], stride 1/2
// and pad 0/1 — every activation, batch norm on and off — the walker must
// equal the reference loops byte for byte: on the whole map and on both
// strips of every two-way row split (each strip fed exactly its halo rows, so
// strips cut through the rows a tile takes in one call), serial and parallel,
// float32 and int8. Every few trials a tap is zeroed so the float path also
// covers the kernels whose zero tap the reference skips and the fused tile
// must decline.
// The whole sweep runs twice: with the host's vector tiles and with them
// switched off, which is the portable tile every other host runs.
func TestDepthwisePlaneWalkerMatchesReference(t *testing.T) {
	defer func(v bool) { simdDW3x3 = v }(simdDW3x3)
	for _, vector := range []bool{simdDW3x3, false} {
		simdDW3x3 = vector
		testDepthwisePlaneWalker(t)
	}
}

func testDepthwisePlaneWalker(t *testing.T) {
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
					t.Fatalf("vector=%v trial %d float c=%d %dx%d s=%d,%d p=%d,%d par=%d rows [%d,%d): walker != reference",
						simdDW3x3, trial, c, h, w, l.SH, l.SW, l.PH, l.PW, par, lo, hi)
				}
				qtile := qin.SliceRows(inLo, inHi)
				qgot := qconvForward(qtile, stripGeom(&l, qtile.C, qtile.W, inLo, h, lo, hi), &l, qw, par)
				if !EqualQ(qgot, qref.SliceRows(lo, hi)) {
					t.Fatalf("vector=%v trial %d int8 c=%d %dx%d s=%d,%d p=%d,%d par=%d rows [%d,%d): walker != reference",
						simdDW3x3, trial, c, h, w, l.SH, l.SW, l.PH, l.PW, par, lo, hi)
				}
			}
		}
	}
}

// TestDepthwiseGeneralShapes covers the depthwise shapes without a fused tile
// (kernels other than 3x3, stride 3, pad 2), which run the walker's
// per-column loop end to end.
func TestDepthwiseGeneralShapes(t *testing.T) {
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

// BenchmarkDepthwisePlanes times the depthwise walker alone (no input
// quantization) on MobileNetV1's depthwise shapes in both precisions at
// par=1:
//
//	go test -run NONE -bench DepthwisePlanes ./internal/tensor
func BenchmarkDepthwisePlanes(b *testing.B) {
	for _, sh := range [][3]int{{112, 32, 1}, {112, 64, 2}, {56, 128, 1}, {56, 128, 2}, {28, 256, 1}, {28, 256, 2}, {14, 512, 1}, {14, 512, 2}, {7, 1024, 1}} {
		hw, c, s := sh[0], sh[1], sh[2]
		l := nn.Layer{Name: "dw", Kind: nn.Conv, KH: 3, KW: 3, SH: s, SW: s, PH: 1, PW: 1, OutC: c, Groups: c, Act: nn.ReLU, BatchNorm: true}
		wts := genConv(1, "bdw", &l, c)
		qw := genQConv(wts, &l, 1, 0.03, 0.07)
		in, qin := RandomInput(nn.Shape{C: c, H: hw, W: hw}, 2), randomQInput(c, hw, hw, 2)
		outHW := outWidth(&l, hw)
		g := stripGeom(&l, c, hw, 0, hw, 0, outHW)
		gmacs := func(b *testing.B) {
			b.ReportMetric(float64(outHW*outHW*9*c)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		}
		b.Run(fmt.Sprintf("%dx%d-s%d/float", hw, c, s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Recycle(convForward(in, g, &l, wts, 1))
			}
			gmacs(b)
		})
		b.Run(fmt.Sprintf("%dx%d-s%d/int8", hw, c, s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RecycleQ(qconvForward(qin, g, &l, qw, 1))
			}
			gmacs(b)
		})
	}
}
