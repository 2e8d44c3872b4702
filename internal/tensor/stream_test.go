package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestWeightStreamIsTheSource: the stream continues math/rand's source bit
// for bit, over several laps of its 607-value ring and for seeds of both
// signs, and unit is rand.Rand.Float32 on it.
func TestWeightStreamIsTheSource(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1 << 40, math.MinInt64} {
		src := rand.NewSource(seed).(rand.Source64)
		s := newWeightStream(rand.NewSource(seed).(rand.Source64))
		for n := 0; n < 5000; n++ {
			if want, got := src.Uint64(), s.next(); got != want {
				t.Fatalf("seed %d, draw %d: %#x, the source draws %#x", seed, n, got, want)
			}
		}
		r := rand.New(rand.NewSource(seed))
		s = newWeightStream(rand.NewSource(seed).(rand.Source64))
		for n := 0; n < 5000; n++ {
			if want, got := r.Float32(), s.unit(); got != want {
				t.Fatalf("seed %d, draw %d: unit %g, Float32 %g", seed, n, got, want)
			}
		}
	}
}
