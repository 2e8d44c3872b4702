package tensor

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// fmaOracle is a*b + c computed exactly in math/big and rounded once to
// float32 (ties to even, subnormals and overflow to ±Inf included). Operands
// must be finite.
func fmaOracle(a, b, c float32) float32 {
	x := new(big.Float).SetPrec(1200).SetFloat64(float64(a))
	x.Mul(x, new(big.Float).SetFloat64(float64(b)))
	x.Add(x, new(big.Float).SetFloat64(float64(c)))
	if x.Sign() == 0 {
		// big.Float keeps no signed zero through arithmetic: IEEE gives -0
		// only when both the product and c are -0.
		p := float64(a) * float64(b)
		if math.Signbit(p) && math.Signbit(float64(c)) {
			return float32(math.Copysign(0, -1))
		}
		return 0
	}
	f, _ := x.Float32()
	return f
}

func checkFma32(t *testing.T, a, b, c float32) {
	t.Helper()
	got, want := fma32(a, b, c), fmaOracle(a, b, c)
	if math.Float32bits(got) != math.Float32bits(want) {
		t.Fatalf("fma32(%g, %g, %g) = %g (%08x), want %g (%08x)", a, b, c, got, math.Float32bits(got), want, math.Float32bits(want))
	}
}

// TestFma32DoubleRounding is the case the naive float32(math.FMA(...))
// gets wrong: a*b = 1+2^-11+2^-24 lies exactly halfway between two float32s,
// and only c = 2^-60 — lost when the sum first rounds to float64 — decides
// that it rounds up.
func TestFma32DoubleRounding(t *testing.T) {
	a := float32(1 + 0x1p-12)
	want := float32(1 + 0x1p-11 + 0x1p-23)
	if got := fma32(a, a, 0x1p-60); got != want {
		t.Fatalf("fma32 = %.10g, want %.10g", got, want)
	}
	if naive := float32(math.FMA(float64(a), float64(a), 0x1p-60)); naive == want {
		t.Fatal("the naive double-rounded form is right here: the case tests nothing")
	}
	checkFma32(t, a, a, 0x1p-60)
	checkFma32(t, a, a, -0x1p-60)
	checkFma32(t, -a, a, 0x1p-60)
}

// TestFma32Edges covers subnormal results (and ties between subnormals),
// signed-zero sums, overflow, and the non-finite operands math/big cannot
// take, against the IEEE rules directly.
func TestFma32Edges(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	tiny := float32(math.SmallestNonzeroFloat32)
	minNormal := float32(0x1p-126)
	for _, tc := range [][3]float32{
		{tiny, 0.5, 0},                         // halfway below the smallest subnormal: ties to even, +0
		{tiny, 0.5, tiny},                      // 1.5 subnormal ulps: ties to even, 2 ulps
		{tiny, 1.5, 0},                         // 1.5 ulps from the product alone
		{3 * tiny, 0.5, 0},                     // 1.5 ulps, even is 2
		{minNormal, 0.75, 0},                   // subnormal result from normal operands
		{minNormal, 1 - 0x1p-24, 0},            // rounds up to the smallest normal
		{0x1p-75, 0x1p-75, 0},                  // product far below the subnormals
		{0x1p-75, 0x1p-75, negZero},            // ... with -0: rounds to +0 (exact sum positive)
		{-0x1p-75, 0x1p-75, 0},                 // ... rounds to -0
		{0, 1, 0},                              // +0 + +0
		{negZero, 1, negZero},                  // -0 + -0 = -0
		{negZero, 1, 0},                        // -0 + +0 = +0
		{0, -1, 0},                             // -0 product + +0 = +0
		{2, 3, -6},                             // exact cancellation: +0
		{-2, 3, 6},                             // exact cancellation: +0
		{math.MaxFloat32, 2, 0},                // overflow to +Inf
		{math.MaxFloat32, -2, 0},               // overflow to -Inf
		{math.MaxFloat32, 2, -math.MaxFloat32}, // no overflow: the exact sum fits
		{0x1p64, 0x1p64, math.MaxFloat32},      // the product alone overflows float32
		{math.MaxFloat32, 1, 0x1p103},          // halfway to the next binade: ties to Inf
		{math.MaxFloat32, 1, 0x1p102},          // below halfway: MaxFloat32
	} {
		checkFma32(t, tc[0], tc[1], tc[2])
	}

	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, tc := range []struct {
		a, b, c, want float32
	}{
		{inf, 2, 1, inf},
		{inf, -2, 1, -inf},
		{2, 3, -inf, -inf},
		{inf, 1, -inf, nan},
		{0, inf, 1, nan},
		{nan, 1, 1, nan},
		{1, nan, 1, nan},
		{1, 1, nan, nan},
		{math.MaxFloat32, 2, -inf, -inf},
	} {
		got := fma32(tc.a, tc.b, tc.c)
		if tc.want != tc.want {
			if got == got {
				t.Errorf("fma32(%g, %g, %g) = %g, want NaN", tc.a, tc.b, tc.c, got)
			}
		} else if got != tc.want {
			t.Errorf("fma32(%g, %g, %g) = %g, want %g", tc.a, tc.b, tc.c, got, tc.want)
		}
	}
}

// TestFma32Random checks a million seeded triples against the oracle: raw
// finite bit patterns (every exponent, subnormals included), products with a
// cancelling addend, Gaussian operands, and near ties: a product within a
// few float64 ulps of half a float32 ulp of the addend c = ±2^E — among
// normals and, with E below -126, among subnormals — where the float64 sum
// often lands exactly on the tie and only the bits it dropped decide.
func TestFma32Random(t *testing.T) {
	n := 1000000
	if testing.Short() {
		n = 100000
	}
	rng := rand.New(rand.NewSource(32))
	finite := func() float32 {
		for {
			if f := math.Float32frombits(rng.Uint32()); !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) {
				return f
			}
		}
	}
	sign := func() float64 { return float64(1 - 2*rng.Intn(2)) }
	nearTie := func(e int) (a, b, c float32) {
		// A*B is 2^47 plus or minus less than A: its lead bit goes to the
		// tie position of c's float32 ulp (2^-150 for a subnormal result).
		ma := 1<<23 + 1 + rng.Intn(1<<23-1)
		mb := (1<<47 + ma - 1) / ma
		if rng.Intn(2) == 0 {
			mb--
		}
		tie := max(e-24, -150)
		ea := -rng.Intn(40) - 10
		a = float32(math.Ldexp(sign()*float64(ma), ea))
		b = float32(math.Ldexp(sign()*float64(mb), tie-47-ea))
		return a, b, float32(math.Ldexp(sign(), e))
	}
	for i := 0; i < n; i++ {
		var a, b, c float32
		switch i % 5 {
		case 0:
			a, b, c = finite(), finite(), finite()
		case 1:
			a, b = float32(rng.NormFloat64()), float32(rng.NormFloat64())
			c = -float32(float64(a)*float64(b)) * (1 + float32(rng.Intn(5)-2)*0x1p-23)
		case 2:
			a, b, c = float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())
		case 3:
			a, b, c = nearTie(rng.Intn(200) - 90)
		case 4:
			a, b, c = nearTie(-149 + rng.Intn(23))
		}
		checkFma32(t, a, b, c)
	}
}
