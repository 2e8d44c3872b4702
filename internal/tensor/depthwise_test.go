package tensor

import (
	"math/rand"
	"testing"

	"pico/internal/nn"
)

// TestDepthwisePlaneWalkerMatchesReference is the property test of the
// depthwise plane walker: over random channel counts, map extents in [1,20],
// stride 1/2, pad 0/1, every activation and batch norm on and off, the walker
// must equal the reference loops byte for byte — on the whole map and on both
// strips of every two-way row split (each strip fed exactly its halo rows),
// serial and parallel, float32 and int8. Every few trials a tap is zeroed so
// the float path also covers the kernels the reference compacts and the
// fused tile must decline. The whole sweep runs twice: with the host's vector
// tiles and with them switched off, which is the composition of per-row
// sweeps arm64 and scalar hosts run.
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
	for trial := 0; trial < 150; trial++ {
		c := 2 + rng.Intn(8)
		h, w := 1+rng.Intn(20), 1+rng.Intn(20)
		l := nn.Layer{
			Name: "dw", Kind: nn.Conv, KH: 3, KW: 3,
			SH: 1 + rng.Intn(2), SW: 1 + rng.Intn(2),
			PH: rng.Intn(2), PW: rng.Intn(2),
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
			wts.compact(&l, 1)
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
	cols, sw, nrows int
	left, right     bool
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

// dwTileCases enumerates every width in [1,9] plus n, both strides, 1..3 rows
// and every edge combination that leaves an interior column.
func dwTileCases(n int) []dwTileCase {
	var cases []dwTileCase
	for _, cols := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, n} {
		for sw := 1; sw <= 2; sw++ {
			for nrows := 1; nrows <= 3; nrows++ {
				for e := 0; e < 4; e++ {
					c := dwTileCase{cols: cols, sw: sw, nrows: nrows, left: e&1 != 0, right: e&2 != 0}
					if interior := cols - e&1 - e>>1; interior >= 1 {
						cases = append(cases, c)
					}
				}
			}
		}
	}
	return cases
}
