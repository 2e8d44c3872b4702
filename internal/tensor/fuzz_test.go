package tensor

import (
	"testing"

	"pico/internal/nn"
)

// FuzzConvGeometry cross-checks convForward's dispatch against the
// reference loops over fuzzer-chosen kernel geometry (kh/kw/sh/sw/ph/pw),
// grouping (including depthwise), channel counts, and activation — the
// outputs must be byte-identical at both serial and parallel settings.
// Run with `go test -fuzz=FuzzConvGeometry ./internal/tensor` to explore
// beyond the seed corpus.
func FuzzConvGeometry(f *testing.F) {
	// Seeds cover each dispatch path: gathered GEMM, pointwise,
	// depthwise, grouped, strided, and the asymmetric 1x7/7x1 kernels.
	f.Add(uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(5), uint8(9), uint8(1))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), uint8(7), uint8(10), uint8(2))
	f.Add(uint8(3), uint8(3), uint8(2), uint8(2), uint8(1), uint8(1), uint8(6), uint8(6), uint8(6), uint8(1))
	f.Add(uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), uint8(2), uint8(8), uint8(8), uint8(0))
	f.Add(uint8(1), uint8(7), uint8(1), uint8(1), uint8(0), uint8(3), uint8(1), uint8(4), uint8(8), uint8(1))
	f.Add(uint8(7), uint8(1), uint8(2), uint8(1), uint8(3), uint8(0), uint8(1), uint8(4), uint8(8), uint8(2))
	f.Fuzz(func(t *testing.T, kh, kw, sh, sw, ph, pw, groups, inC, outC, act uint8) {
		l, in, wts, ok := fuzzConv(kh, kw, sh, sw, ph, pw, groups, inC, outC, act)
		if !ok {
			t.Skip("degenerate geometry")
		}
		h := in.H
		outH := (h+2*l.PH-l.KH)/l.SH + 1
		ref := convForwardRef(in, stripGeom(&l, in.C, in.W, 0, h, 0, outH), &l, wts, 1)
		for _, par := range []int{1, 4} {
			got := convForward(in, stripGeom(&l, in.C, in.W, 0, h, 0, outH), &l, wts, par)
			if !Equal(got, ref) {
				t.Fatalf("k=%dx%d s=%d,%d p=%d,%d groups=%d ic=%d oc=%d par=%d: convForward != reference (max diff %g)",
					l.KH, l.KW, l.SH, l.SW, l.PH, l.PW, max(l.Groups, 1), in.C, l.OutC, par, MaxAbsDiff(got, ref))
			}
			// One off-origin tile per setting exercises the global-row
			// offset plumbing under fuzzed geometry.
			if outH >= 2 {
				lo, hi := outH/3, outH/3+1+(outH-outH/3-1)/2
				inLo, inHi := convInputRows(&l, lo, hi, h)
				if inHi <= inLo {
					// The window's receptive field is entirely zero
					// padding; a tile cannot represent zero input rows
					// (and the planner never produces such a window).
					continue
				}
				tile := in.SliceRows(inLo, inHi)
				gotTile := convForward(tile, stripGeom(&l, tile.C, tile.W, inLo, h, lo, hi), &l, wts, par)
				if !Equal(gotTile, ref.SliceRows(lo, hi)) {
					t.Fatalf("tile [%d,%d) par=%d: convForward != reference", lo, hi, par)
				}
			}
		}
	})
}

// fuzzConv is the conv case FuzzConvGeometry and FuzzFKernelTile read from
// the ten-byte tuple every kernel fuzz target shares: kernel geometry,
// grouping (including depthwise), channel counts and activation, over a small
// map with at least one output element; ok is false when there is none.
func fuzzConv(kh, kw, sh, sw, ph, pw, groups, inC, outC, act uint8) (l nn.Layer, in Tensor, wts *convWeights, ok bool) {
	l = nn.Layer{
		Name: "fz", Kind: nn.Conv,
		KH: 1 + int(kh)%7, KW: 1 + int(kw)%7,
		SH: 1 + int(sh)%3, SW: 1 + int(sw)%3,
		PH: int(ph) % 4, PW: int(pw) % 4,
		Act: nn.Activation(1 + int(act)%3),
	}
	g := 1 + int(groups)%8
	ic := 1 + int(inC)%16
	oc := 1 + int(outC)%16
	// Snap channels onto the group count so the geometry is valid.
	if ic%g != 0 || oc%g != 0 {
		ic, oc = ic*g, oc*g
	}
	l.OutC = oc
	if g > 1 {
		l.Groups = g
	}
	if kh%2 == 0 {
		l.BatchNorm = true
	}
	// Keep maps small but always at least one valid output element.
	h := l.KH + int(kh+sh)%9
	w := l.KW + int(kw+sw)%9
	if (h+2*l.PH-l.KH)/l.SH+1 < 1 || (w+2*l.PW-l.KW)/l.SW+1 < 1 {
		return l, Tensor{}, nil, false
	}
	in = RandomInput(nn.Shape{C: ic, H: h, W: w}, int64(kh)<<8|int64(kw))
	return l, in, genConv(int64(sh)<<8|int64(sw), "fuzz", &l, ic), true
}
