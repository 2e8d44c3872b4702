package tensor

import (
	"math"
	"math/rand"
	"testing"

	"pico/internal/nn"
)

// FuzzFKernelTile drives every float32 vector tile wrapper against an inline
// scalar reference over fuzzer-chosen sizes, strides and random data,
// comparing exact bits. The scalar references chain operations in exactly
// the order the kernels document (one fma32 per tap, epilogues rounded
// separately), so any vector reordering — or a tap rounded twice, or an
// epilogue fused — shows up as a bit mismatch. The parameter tuple matches
// FuzzConvGeometry and FuzzQKernelTile so the three targets share crasher
// corpora. Run with
// `go test -fuzz=FuzzFKernelTile ./internal/tensor` to explore beyond the
// seeds.
func FuzzFKernelTile(f *testing.F) {
	// Seeds straddle each wrapper's vector/scalar split (8- and 16-column
	// thresholds) plus pure-tail sizes.
	f.Add(uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(5), uint8(9), uint8(1))
	f.Add(uint8(16), uint8(0), uint8(1), uint8(2), uint8(0), uint8(0), uint8(1), uint8(7), uint8(10), uint8(2))
	f.Add(uint8(15), uint8(7), uint8(2), uint8(1), uint8(3), uint8(1), uint8(6), uint8(6), uint8(6), uint8(0))
	f.Add(uint8(64), uint8(31), uint8(1), uint8(1), uint8(2), uint8(3), uint8(2), uint8(8), uint8(8), uint8(1))
	f.Add(uint8(7), uint8(1), uint8(2), uint8(2), uint8(3), uint8(0), uint8(1), uint8(4), uint8(8), uint8(2))
	f.Fuzz(func(t *testing.T, p0, p1, p2, p3, p4, p5, p6, p7, p8, p9 uint8) {
		n := 1 + int(p0)%96
		pad := int(p1) % 9
		rng := rand.New(rand.NewSource(int64(p2)<<40 | int64(p3)<<32 | int64(p4)<<24 |
			int64(p5)<<16 | int64(p6)<<8 | int64(p7)))
		randF := func(k int) []float32 {
			s := make([]float32, k)
			for i := range s {
				s[i] = (rng.Float32()*2 - 1) * 8
			}
			return s
		}
		bitsEq := func(a, b float32) bool {
			return math.Float32bits(a) == math.Float32bits(b)
		}

		// The convolution GEMM walker under every tile variant, on the conv
		// geometry FuzzConvGeometry reads from the same tuple — gathered taps,
		// padding zeros, groups and depthwise included — against the
		// reference kernel, whole map at two worker counts.
		if l, in, wts, ok := fuzzConv(p0, p1, p2, p3, p4, p5, p6, p7, p8, p9); ok {
			outH := (in.H+2*l.PH-l.KH)/l.SH + 1
			g := stripGeom(&l, in.C, in.W, 0, in.H, 0, outH)
			ref := convForwardRef(in, g, &l, wts, 1)
			eachFpwVariant(t, func(t *testing.T, vn string) {
				for _, par := range []int{1, 3} {
					if got := convForwardGEMM(in, g, &l, wts, par); !Equal(got, ref) {
						t.Fatalf("%s %dx%d/%d,%d pad %d,%d groups %d inC %d outC %d par %d: walker differs from the reference by %g",
							vn, l.KH, l.KW, l.SH, l.SW, l.PH, l.PW, l.Groups, in.C, l.OutC, par, MaxAbsDiff(got, ref))
					}
				}
			})
		}

		// The depthwise tiles of every variant: the per-plane tile directly
		// (see checkDWTiles), then both plane walkers — the run tiles where
		// the variant has them — on a fuzzer-chosen layer (checkDWWalker),
		// with -0 and either NaN or ±Inf inputs. Not both: where an input NaN
		// meets the default NaN of Inf-Inf, fma32 and VFMADD231PS keep
		// different ones.
		{
			special, other := float32(math.NaN()), float32(0)
			if p9%2 == 1 {
				special, other = float32(math.Inf(1)), float32(math.Inf(-1))
			}
			rnd := func() float32 {
				switch rng.Intn(40) {
				case 0:
					return special
				case 1:
					return float32(math.Copysign(0, -1))
				case 2:
					return other
				}
				return rng.Float32()*2 - 1
			}
			c, h, s, pd := 1+int(p3)%5, 1+int(p4)%9, 1+int(p5)%2, 1-int(p6)%4/3
			eachDwVariant(t, func(t *testing.T, vn string) {
				tc := dwChan[float32, float32]{seed: randF(1)[0], tile: dwActive.tileF,
					store: func(_ *dwChan[float32, float32], dst, acc []float32) { copy(dst, acc) }}
				checkDWTiles(t, n, int(p1)%3, tc, rnd, func(dst, acc []float32) { copy(dst, acc) }, bitsEq)
				if n+2*pd >= 3 && h+2*pd >= 3 {
					l, wts, qw := dwLayer(int64(p7), c, s, pd, nn.Activation(1+int(p9)%3), p8%2 == 0)
					in := RandomInput(nn.Shape{C: c, H: h, W: n}, int64(p2))
					for i := range in.Data {
						if rng.Intn(10) == 0 {
							in.Data[i] = rnd()
						}
					}
					checkDWWalker(t, vn, &l, in, wts, randomQInput(c, h, n, int64(p3)), qw)
				}
			})
		}

		// maxPairRowF: 2x2 stride-2 max-pool row pair, with NaN and
		// signed-zero lanes sprinkled in so the `if v > acc` semantics
		// (candidate NaNs and +0/-0 ties keep the accumulator) are covered.
		{
			a, b := randF(2*n), randF(2*n)
			if p9%3 == 0 {
				nan := float32(math.NaN())
				negZero := float32(math.Copysign(0, -1))
				for k := 0; k < 1+n/4; k++ {
					a[rng.Intn(2*n)] = nan
					b[rng.Intn(2*n)] = negZero
					a[rng.Intn(2*n)] = 0
				}
			}
			got := make([]float32, n)
			maxPairRowF(got, a, b, n)
			for i := 0; i < n; i++ {
				v := negInf
				if a[2*i] > v {
					v = a[2*i]
				}
				if a[2*i+1] > v {
					v = a[2*i+1]
				}
				if b[2*i] > v {
					v = b[2*i]
				}
				if b[2*i+1] > v {
					v = b[2*i+1]
				}
				if !bitsEq(got[i], v) {
					t.Fatalf("maxPairRowF n=%d: dst[%d]=%g want %g (a %g %g b %g %g)",
						n, i, got[i], v, a[2*i], a[2*i+1], b[2*i], b[2*i+1])
				}
			}
		}

		// gapSum8F: 8-channel sum reduction, each channel in ascending order.
		{
			chanStride := n + pad
			src := randF(7*chanStride + n)
			var got [8]float32
			gapSum8F(&got, src, chanStride, n)
			for c := 0; c < 8; c++ {
				var acc float32
				for _, v := range src[c*chanStride : c*chanStride+n] {
					acc += v
				}
				if !bitsEq(got[c], acc) {
					t.Fatalf("gapSum8F n=%d stride=%d: dst[%d]=%g want %g", n, chanStride, c, got[c], acc)
				}
			}
		}

		// finishChannel: the batch-norm + activation epilogue over every act x
		// bn combination, with NaN and -0 lanes so the compare+mask select
		// semantics are pinned.
		for _, act := range []nn.Activation{nn.NoAct, nn.ReLU, nn.LeakyReLU} {
			for _, bn := range []bool{false, true} {
				scale, shift := randF(1)[0], randF(1)[0]
				got := randF(n)
				if p9%3 == 1 {
					got[rng.Intn(n)] = float32(math.Copysign(0, -1))
					got[rng.Intn(n)] = float32(math.NaN())
				}
				want := append([]float32(nil), got...)
				p := &fparams{}
				if bn {
					p.bnScale, p.bnShift = []float32{scale}, []float32{shift}
				}
				p.finishChannel(got, 0, act)
				if bn {
					for i := range want {
						want[i] = float32(want[i]*scale) + shift
					}
				}
				switch act {
				case nn.ReLU:
					for i, v := range want {
						if v < 0 {
							want[i] = 0
						}
					}
				case nn.LeakyReLU:
					for i, v := range want {
						if v < 0 {
							want[i] = 0.1 * v
						}
					}
				}
				for i := range want {
					if !bitsEq(got[i], want[i]) {
						t.Fatalf("finishChannel act=%d bn=%v n=%d: dst[%d]=%g want %g", act, bn, n, i, got[i], want[i])
					}
				}
			}
		}

		// The pointwise register tiles: every variant the host runs (the ZMM
		// and YMM tiles, the portable one) against its scalar contract.
		for _, v := range fpwVariants {
			cols := 1 + (n+pad)%(3*fpwNR)
			checkFpwTile(t, v, rng, 1+int(p8)%7, cols, (cols+fpwNR-1)/fpwNR*fpwNR+int(p9)%5, p9%2 == 1)
		}

		// ffcPanel16 (16 features from a transposed weight panel) has no
		// scalar tail of its own; drive the raw asm where the host has it.
		if simd {
			{
				panel := randF(n * 16)
				src := randF(n)
				bias := randF(16)
				var got [16]float32
				ffcPanel16(&got[0], &panel[0], &src[0], &bias[0], n)
				for l := 0; l < 16; l++ {
					acc := bias[l]
					for i := 0; i < n; i++ {
						acc = fma32(panel[i*16+l], src[i], acc)
					}
					if !bitsEq(got[l], acc) {
						t.Fatalf("ffcPanel16 n=%d: dst[%d]=%g want %g", n, l, got[l], acc)
					}
				}
			}
		}
	})
}
