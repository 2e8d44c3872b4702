package tensor

import (
	"math/rand"
	"testing"

	"pico/internal/nn"
	"pico/internal/partition"
)

// FuzzQKernelTile drives every int8 vector tile wrapper against an inline
// scalar reference over fuzzer-chosen sizes, strides and full-range int8
// data. The parameter tuple matches FuzzConvGeometry so the two targets
// share crasher corpora (a conv-geometry edge case is usually also a
// kernel-bounds edge case). Run with
// `go test -fuzz=FuzzQKernelTile ./internal/tensor` to explore beyond the
// seeds.
func FuzzQKernelTile(f *testing.F) {
	// Seeds straddle each wrapper's vector/scalar split (8- and 16-column
	// thresholds) plus pure-tail sizes.
	f.Add(uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(5), uint8(9), uint8(1))
	f.Add(uint8(16), uint8(0), uint8(1), uint8(2), uint8(0), uint8(0), uint8(1), uint8(7), uint8(10), uint8(2))
	f.Add(uint8(15), uint8(7), uint8(2), uint8(1), uint8(3), uint8(1), uint8(6), uint8(6), uint8(6), uint8(0))
	f.Add(uint8(64), uint8(31), uint8(1), uint8(1), uint8(2), uint8(3), uint8(2), uint8(8), uint8(8), uint8(1))
	f.Add(uint8(7), uint8(1), uint8(2), uint8(2), uint8(3), uint8(0), uint8(1), uint8(4), uint8(8), uint8(2))
	f.Fuzz(func(t *testing.T, p0, p1, p2, p3, p4, p5, p6, p7, p8, p9 uint8) {
		n := 1 + int(p0)%96
		rng := rand.New(rand.NewSource(int64(p2)<<40 | int64(p3)<<32 | int64(p4)<<24 |
			int64(p5)<<16 | int64(p6)<<8 | int64(p7)))
		randI8 := func(k int) []int8 {
			s := make([]int8, k)
			for i := range s {
				s[i] = int8(rng.Intn(256) - 128)
			}
			return s
		}
		randI32 := func(k, lim int32) []int32 {
			s := make([]int32, k)
			for i := range s {
				s[i] = rng.Int31n(2*lim+1) - lim
			}
			return s
		}

		// The int8 depthwise tiles of every variant: the per-plane tile with
		// its in-register epilogue (see checkDWTiles) against requantRowRef,
		// under every activation — a scale of 1/2 lands every odd
		// accumulator on a rounding tie, a scale of 1 saturates both rails —
		// then both plane walkers, the run tiles where the variant has them,
		// on a fuzzer-chosen layer under those scales (checkDWWalker).
		eachDwVariant(t, func(t *testing.T, vn string) {
			for i, scale := range []float32{0.5, 1, float32(p8)/7190 + 1e-6} {
				c := dwChan[int8, int32]{scale: scale, bias: float32(int(p9)-128) / 3, act: nn.Activation(1 + (int(p9)+i)%3), tile: dwActive.tileQ,
					store: func(c *dwChan[int8, int32], dst []int8, acc []int32) { requantRow(dst, acc, c.scale, c.bias, c.act) }}
				if i < 2 {
					c.bias = 0
				}
				fin := func(dst []int8, acc []int32) { requantRowRef(dst, acc, c.scale, c.bias, c.act) }
				checkDWTiles(t, n, int(p1)%3, c, func() int8 { return int8(rng.Intn(256) - 128) }, fin, func(a, b int8) bool { return a == b })

				ch, h, s, pd := 1+int(p3)%5, 1+int(p4)%9, 1+int(p5)%2, 1-int(p6)%4/3
				if n+2*pd >= 3 && h+2*pd >= 3 {
					l, wts, qw := dwLayer(int64(p7), ch, s, pd, c.act, p8%2 == 0)
					for oc := range qw.effScale[:ch] {
						qw.effScale[oc], qw.effBias[oc] = scale, c.bias
					}
					checkDWWalker(t, vn, &l, RandomInput(nn.Shape{C: ch, H: h, W: n}, int64(p2)), wts, randomQInput(ch, h, n, int64(p3)), qw)
				}
			}
		})

		// maxPairRow: 2x2 stride-2 max-pool row pair.
		{
			a, b := randI8(2*n), randI8(2*n)
			got := make([]int8, n)
			maxPairRow(got, a, b, n)
			for i := 0; i < n; i++ {
				want := a[2*i]
				for _, v := range []int8{a[2*i+1], b[2*i], b[2*i+1]} {
					if v > want {
						want = v
					}
				}
				if got[i] != want {
					t.Fatalf("maxPairRow n=%d: dst[%d]=%d want %d", n, i, got[i], want)
				}
			}
		}

		// dotI8 in wrapping int32.
		{
			a, b := randI8(n), randI8(n)
			var want int32
			for i := range a {
				want += int32(a[i]) * int32(b[i])
			}
			if got := dotI8(a, b); got != want {
				t.Fatalf("dotI8 n=%d: %d want %d", n, got, want)
			}
		}

		// requantRow against the scalar reference for every activation,
		// including accumulators that clamp at both rails.
		{
			acc := randI32(int32(n), 1<<28)
			scale := float32(p8)/719 + 1e-6
			bias := float32(int(p9)-128) / 3
			for _, act := range []nn.Activation{nn.NoAct, nn.ReLU, nn.LeakyReLU} {
				got := make([]int8, n)
				want := make([]int8, n)
				requantRow(got, acc, scale, bias, act)
				requantRowRef(want, acc, scale, bias, act)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("requantRow act=%v scale=%g bias=%g: dst[%d]=%d want %d (acc %d)",
							act, scale, bias, i, got[i], want[i], acc[i])
					}
				}
			}
		}

		// QuantizeTensor (vector row quantizer) against scalar quantClamp.
		{
			ft := New(1, 1, n)
			for i := range ft.Data {
				ft.Data[i] = (rng.Float32() - 0.5) * 300
			}
			scale := float32(p7)/97 + 1e-3
			q := QuantizeTensor(ft, scale)
			inv := 1 / scale
			for i, v := range ft.Data {
				if want := quantClamp(v * inv); q.Data[i] != want {
					t.Fatalf("QuantizeTensor scale=%g: [%d]=%d want %d (src %g)", scale, i, q.Data[i], want, v)
				}
			}
		}
	})
}

// FuzzQuantPointwise drives the pointwise walker under every tile variant of
// this host against the reference kernel over fuzzer-chosen channel counts,
// map extents, strip windows, activation and parallelism, and every variant's
// pack and tile steps directly against their scalar contract. The parameter
// tuple matches FuzzConvGeometry's, so corpora are interchangeable. Run with
// `go test -fuzz=FuzzQuantPointwise ./internal/tensor`.
func FuzzQuantPointwise(f *testing.F) {
	// Seeds: odd and single channels, flattened widths below one tile (n <
	// 16), exactly one, one past, ragged channel blocks, and a strip that
	// starts inside its tile.
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(2), uint8(6), uint8(0), uint8(1), uint8(0), uint8(2), uint8(1), uint8(2), uint8(8), uint8(1))
	f.Add(uint8(1), uint8(14), uint8(1), uint8(0), uint8(3), uint8(1), uint8(2), uint8(30), uint8(6), uint8(2))
	f.Add(uint8(3), uint8(3), uint8(0), uint8(0), uint8(1), uint8(0), uint8(3), uint8(31), uint8(7), uint8(0))
	f.Add(uint8(0), uint8(16), uint8(0), uint8(0), uint8(0), uint8(3), uint8(4), uint8(4), uint8(15), uint8(1))
	f.Add(uint8(6), uint8(6), uint8(2), uint8(3), uint8(2), uint8(1), uint8(5), uint8(16), uint8(19), uint8(2))
	f.Fuzz(func(t *testing.T, ph, pw, plo, prows, ppar, pstride, pseed, pinC, poutC, pact uint8) {
		h, w := 1+int(ph)%9, 1+int(pw)%40
		inC, outC := 1+int(pinC)%40, 1+int(poutC)%24
		act := nn.Activation(1 + int(pact)%3)
		l := nn.Layer{Name: "fz", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: outC, Act: act, BatchNorm: pseed%2 == 0}
		qw := genQConv(genConv(int64(pseed), "fzpw", &l, inC), &l, inC, 0.03, 0.07)
		in := randomQInput(inC, h, w, int64(pseed)+1)
		lo := int(plo) % h
		hi := lo + 1 + int(prows)%(h-lo)
		ref := qconvForwardRef(in, stripGeom(&l, inC, w, 0, h, 0, h), &l, qw, 1)
		par := 1 + int(ppar)%4
		rng := rand.New(rand.NewSource(int64(pseed)<<8 | int64(pstride)))
		eachQpwVariant(t, true, func(t *testing.T, vn string) {
			if got := qconvForward(in, stripGeom(&l, inC, w, 0, h, 0, h), &l, qw, par); !EqualQ(got, ref) {
				t.Fatalf("%s inC=%d outC=%d %dx%d par=%d: differs from reference", vn, inC, outC, h, w, par)
			}
			// The strip's rows inside a tile that starts one row above it.
			inLo := max(lo-1, 0)
			tile := in.SliceRows(inLo, h)
			got := qconvForward(tile, stripGeom(&l, inC, w, inLo, h, lo, hi), &l, qw, par)
			if !EqualQ(got, ref.SliceRows(lo, hi)) {
				t.Fatalf("%s inC=%d outC=%d %dx%d par=%d: strip [%d,%d) differs from reference", vn, inC, outC, h, w, par, lo, hi)
			}
			tiles := 1 + int(prows)%3
			checkQpwTile(t, qpwActive, rng, inC, outC, tiles, tiles*qpwActive.nr+int(pstride)%70, act, nil, nil)
		})
	})
}

// FuzzQuantConv drives the GEMM walker's gather under every tile variant of
// this host against the reference kernel over fuzzer-chosen kernel extents,
// strides, padding, channel counts, grouping, map extents, activation and
// parallelism, on the whole map and the tilings of checkQuantConvTiles. The
// parameter tuple matches FuzzConvGeometry's, so corpora are interchangeable.
// Run with `go test -fuzz=FuzzQuantConv ./internal/tensor`.
func FuzzQuantConv(f *testing.F) {
	// Seeds: MobileNetV1's stem (3x3 stride 2 pad 1, 3 -> 32 channels: 27
	// taps, an odd trailing pair), a depthwise layer (groups == channels,
	// which reaches the walker on the partial-width tiles), a grouped 5x5,
	// a strided 1x1 and a 1x7 with padding wider than the map's margin.
	f.Add(uint8(14), uint8(14), uint8(2), uint8(2), uint8(1), uint8(1), uint8(1), uint8(2), uint8(31), uint8(1))
	f.Add(uint8(9), uint8(12), uint8(2), uint8(2), uint8(0), uint8(1), uint8(2), uint8(7), uint8(0), uint8(130))
	f.Add(uint8(7), uint8(9), uint8(4), uint8(4), uint8(0), uint8(2), uint8(3), uint8(5), uint8(7), uint8(66))
	f.Add(uint8(10), uint8(11), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0), uint8(30), uint8(8), uint8(2))
	f.Add(uint8(3), uint8(5), uint8(0), uint8(6), uint8(0), uint8(3), uint8(3), uint8(3), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, ph, pw, pkh, pkw, pstride, ppad, ppar, pinC, poutC, pact uint8) {
		h, w := 1+int(ph)%16, 1+int(pw)%24
		kh, kw := 1+int(pkh)%7, 1+int(pkw)%7
		stride, pad := 1+int(pstride)%3, int(ppad)%4
		inC, outC := 1+int(pinC)%40, 1+int(poutC)%24
		groups := 1
		switch int(pact) >> 6 {
		case 1:
			if inC%2 == 0 {
				groups, outC = 2, outC+outC%2
			}
		case 2:
			groups, outC = inC, inC
		}
		l := nn.Layer{Name: "fz", Kind: nn.Conv, KH: kh, KW: kw, SH: stride, SW: stride, PH: min(pad, kh-1), PW: min(pad, kw-1),
			OutC: outC, Groups: groups, Act: nn.Activation(1 + int(pact)%3), BatchNorm: ppar%2 == 0}
		if h+2*l.PH < kh || w+2*l.PW < kw {
			return
		}
		qw := genQConv(genConv(int64(pinC)<<8|int64(poutC), "fzconv", &l, inC), &l, inC/groups, 0.03, 0.07)
		in := randomQInput(inC, h, w, int64(pkh)<<8|int64(pkw))
		full, _ := convRectGeom(&l, inC, h, w, partition.FullRect((h+2*l.PH-kh)/stride+1, outWidth(&l, w)))
		ref := qconvForwardRef(in, full, &l, qw, 1)
		eachQpwVariant(t, true, func(t *testing.T, vn string) {
			checkQuantConvTiles(t, vn, in, &l, qw, ref, []int{1 + int(ppar)%4})
		})
	})
}

// requantRowRef is the scalar reference epilogue the vector form is
// property-tested against.
func requantRowRef(dst []int8, acc []int32, scale, bias float32, act nn.Activation) {
	switch act {
	case nn.ReLU:
		for i, a := range acc {
			v := float32(a)*scale + bias
			if v < 0 {
				v = 0
			}
			dst[i] = quantClamp(v)
		}
	case nn.LeakyReLU:
		for i, a := range acc {
			v := float32(a)*scale + bias
			if v < 0 {
				v = 0.1 * v
			}
			dst[i] = quantClamp(v)
		}
	default:
		for i, a := range acc {
			dst[i] = quantClamp(float32(a)*scale + bias)
		}
	}
}
