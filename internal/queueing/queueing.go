// Package queueing implements the analytical machinery of the paper's
// adaptive parallel scheme switching (§IV-C): the M/D/1 average-latency
// estimate of Theorem 2, the EWMA workload estimator of Eq. (15), and the
// switcher that picks the scheme with the lowest estimated latency (APICO).
package queueing

import (
	"fmt"
	"math"
)

// Theorem2Latency returns the paper's Theorem 2 estimate of the average
// inference latency when tasks arrive Poisson at rate lambda and the scheme
// has pipeline period p and traversal latency t:
//
//	p(2 − pλ) / (2(1 − pλ)) + t
//
// The first term is the M/D/1 sojourn of the bottleneck stage (queue wait
// plus one period of service); the paper adds the full traversal t on top.
// The estimate is +Inf when the system is unstable (pλ ≥ 1).
func Theorem2Latency(lambda, p, t float64) float64 {
	if p <= 0 {
		return t
	}
	rho := p * lambda
	if rho >= 1 {
		return math.Inf(1)
	}
	return p*(2-rho)/(2*(1-rho)) + t
}

// MD1Sojourn returns the textbook M/D/1 mean sojourn time (queue wait plus
// service) for deterministic service time p under Poisson-λ arrivals:
//
//	p + λp² / (2(1 − λp))
//
// Algebraically this equals the first term of Theorem 2; it is exposed
// separately for testing and for callers who want wait and service split.
func MD1Sojourn(lambda, p float64) float64 {
	if p <= 0 {
		return 0
	}
	rho := lambda * p
	if rho >= 1 {
		return math.Inf(1)
	}
	return p + lambda*p*p/(2*(1-rho))
}

// MD1Wait returns only the mean queueing delay of an M/D/1 server.
func MD1Wait(lambda, p float64) float64 {
	if p <= 0 {
		return 0
	}
	rho := lambda * p
	if rho >= 1 {
		return math.Inf(1)
	}
	return lambda * p * p / (2 * (1 - rho))
}

// Estimator is the moving-average workload estimator of Eq. (15):
// λ_t = β·λ̂ + (1−β)·λ_{t−1}, where λ̂ is the rate measured over the last
// window.
type Estimator struct {
	// Beta is the EWMA weight of the freshest measurement (0 < Beta <= 1).
	Beta float64
	// WindowSeconds is the measurement window for λ̂.
	WindowSeconds float64

	rate        float64
	windowStart float64
	windowCount int
	started     bool
}

// NewEstimator builds an estimator; the paper leaves β a hyper-parameter,
// 0.5 with a 10-second window is the framework default.
func NewEstimator(beta, windowSeconds float64) (*Estimator, error) {
	if beta <= 0 || beta > 1 {
		return nil, fmt.Errorf("queueing: beta %v outside (0,1]", beta)
	}
	if windowSeconds <= 0 {
		return nil, fmt.Errorf("queueing: non-positive window %v", windowSeconds)
	}
	return &Estimator{Beta: beta, WindowSeconds: windowSeconds}, nil
}

// Observe records a task arrival at time t (seconds, non-decreasing). When a
// window closes, the measured rate folds into the EWMA. Quiet periods
// spanning multiple windows fold in zero-rate measurements, so the estimate
// decays when the workload stops — computed in closed form, so an arrival
// after a long idle gap costs O(1), not one loop iteration per elapsed
// window: k empty windows shrink the rate by exactly (1−β)^k.
func (e *Estimator) Observe(t float64) {
	if !e.started {
		e.started = true
		e.windowStart = t
		e.windowCount = 1
		return
	}
	if elapsed := t - e.windowStart; elapsed >= e.WindowSeconds {
		k := math.Floor(elapsed / e.WindowSeconds)
		// The first closing window folds in whatever it counted...
		measured := float64(e.windowCount) / e.WindowSeconds
		e.rate = e.Beta*measured + (1-e.Beta)*e.rate
		// ...and the k−1 after it were empty: each is a zero-rate fold
		// rate = (1−β)·rate, collapsed into one power.
		if k > 1 {
			e.rate *= math.Pow(1-e.Beta, k-1)
		}
		e.windowStart += k * e.WindowSeconds
		e.windowCount = 0
	}
	e.windowCount++
}

// Rate returns the current workload estimate λ_t in tasks per second.
func (e *Estimator) Rate() float64 { return e.rate }

// Candidate is one scheme the switcher can select.
type Candidate struct {
	// Name identifies the scheme.
	Name string
	// Period is the scheme's pipeline period p (equals Latency for
	// one-stage schemes).
	Period float64
	// Latency is the scheme's traversal latency t.
	Latency float64
}

// EstimatedLatency returns the Theorem 2 latency of the candidate at rate λ.
func (c Candidate) EstimatedLatency(lambda float64) float64 {
	return Theorem2Latency(lambda, c.Period, c.Latency)
}

// Switcher picks, for an estimated rate, the candidate with the smallest
// Theorem 2 latency. Hysteresis dampens flapping: the incumbent is kept
// unless the challenger improves the estimate by the given relative margin.
type Switcher struct {
	// Candidates are the available schemes.
	Candidates []Candidate
	// Hysteresis is the minimum relative improvement (e.g. 0.05 for 5%)
	// required to leave the incumbent scheme.
	Hysteresis float64

	current int
}

// DefaultHysteresis is the framework's switching margin: a challenger must
// undercut the incumbent's estimate by 5% to displace it.
const DefaultHysteresis = 0.05

// NewSwitcher builds a switcher starting on candidate 0.
func NewSwitcher(cands []Candidate, hysteresis float64) (*Switcher, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("queueing: no candidates")
	}
	for i, c := range cands {
		if c.Period <= 0 || c.Latency <= 0 {
			return nil, fmt.Errorf("queueing: candidate %d (%s) has non-positive period/latency", i, c.Name)
		}
		if c.Latency < c.Period-1e-12 {
			return nil, fmt.Errorf("queueing: candidate %d (%s) has latency %v < period %v", i, c.Name, c.Latency, c.Period)
		}
	}
	if hysteresis < 0 {
		return nil, fmt.Errorf("queueing: negative hysteresis %v", hysteresis)
	}
	return &Switcher{Candidates: cands, Hysteresis: hysteresis}, nil
}

// Choose returns the index of the scheme to run at the estimated rate.
func (s *Switcher) Choose(rate float64) int {
	best := s.current
	bestLat := s.Candidates[s.current].EstimatedLatency(rate)
	for i, c := range s.Candidates {
		if i == s.current {
			continue
		}
		lat := c.EstimatedLatency(rate)
		if betterBy(lat, bestLat, s.Hysteresis) {
			best = i
			bestLat = lat
		}
	}
	s.current = best
	return best
}

// Current returns the incumbent candidate index.
func (s *Switcher) Current() int { return s.current }

// betterBy reports whether challenger beats incumbent by the relative
// margin; an infinite incumbent is beaten by any finite challenger.
func betterBy(challenger, incumbent, margin float64) bool {
	if math.IsInf(incumbent, 1) {
		return !math.IsInf(challenger, 1)
	}
	return challenger < incumbent*(1-margin)
}
