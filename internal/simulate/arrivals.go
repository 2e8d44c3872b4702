package simulate

import (
	"fmt"
	"math/rand"
)

// PoissonArrivals generates task arrival times over [0, duration) with
// exponential inter-arrival gaps at the given rate (tasks per second) — the
// paper's online arrival scheme.
func PoissonArrivals(rate, duration float64, seed int64) []float64 {
	if rate <= 0 || duration <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	var arrivals []float64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= duration {
			return arrivals
		}
		arrivals = append(arrivals, t)
	}
}

// VariableRatePoisson generates a non-homogeneous Poisson process by
// thinning: rateAt(t) must never exceed maxRate. Used by the smart-home
// example's day-cycle workload.
func VariableRatePoisson(rateAt func(t float64) float64, maxRate, duration float64, seed int64) ([]float64, error) {
	if maxRate <= 0 || duration <= 0 {
		return nil, fmt.Errorf("simulate: non-positive maxRate or duration")
	}
	rng := rand.New(rand.NewSource(seed))
	var arrivals []float64
	t := 0.0
	for {
		t += rng.ExpFloat64() / maxRate
		if t >= duration {
			return arrivals, nil
		}
		r := rateAt(t)
		if r < 0 || r > maxRate*(1+1e-9) {
			return nil, fmt.Errorf("simulate: rateAt(%.3f) = %.3f outside [0, maxRate=%.3f]", t, r, maxRate)
		}
		if rng.Float64() < r/maxRate {
			arrivals = append(arrivals, t)
		}
	}
}
