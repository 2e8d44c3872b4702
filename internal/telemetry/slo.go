package telemetry

import (
	"fmt"
	"sync"
	"time"
)

// MinSamples is the window population below which a series is too thin to
// judge: the watcher skips it, and the runtime's measured re-balance keeps a
// device's profile speed instead of trusting its exec series.
const MinSamples = 8

// A started watcher checks every checkInterval, over the registry's window,
// and keeps a key quiet for cooldown after it fires while the control action
// (a re-balance) takes effect.
const (
	checkInterval = 5 * time.Second
	cooldown      = 30 * time.Second
)

// Policy is what the SLO watcher enforces. Zero-valued bounds disable the
// corresponding check.
type Policy struct {
	// P99Bound sheds a breach when a kind-"e2e" series' windowed p99
	// exceeds it (seconds). 0 disables the latency check.
	P99Bound float64
	// SkewFactor fires when, within one (model, stage) group of
	// kind-"exec" series, the slowest device's p99 exceeds the fastest's by
	// more than this factor — a straggler the planner's static profile did
	// not predict. 0 disables; values <= 1 are meaningless and rejected by
	// the watcher constructor.
	SkewFactor float64
}

// BreachKind classifies what the watcher observed.
type BreachKind string

const (
	// BreachP99 is an end-to-end p99 over the policy bound.
	BreachP99 BreachKind = "p99-over-bound"
	// BreachSkew is per-device exec-time skew past the policy factor.
	BreachSkew BreachKind = "device-skew"
)

// Breach is one SLO violation observation.
type Breach struct {
	// Kind classifies the breach.
	Kind BreachKind
	// Key is the offending series: the e2e series for BreachP99, the
	// slowest device's exec series for BreachSkew.
	Key Key
	// Observed and Bound are the measured value and the threshold it
	// crossed (p99 seconds for BreachP99; p99 ratio and factor for
	// BreachSkew).
	Observed, Bound float64
	// Detail is a human-readable elaboration.
	Detail string
}

func (b Breach) String() string {
	return fmt.Sprintf("%s %s: %.4g > %.4g — %s", b.Key, b.Kind, b.Observed, b.Bound, b.Detail)
}

// Watcher periodically evaluates a Policy against a Registry and reports
// breaches to a callback — the control half of the SLO loop. The action
// half (what a breach triggers) lives with the caller: picoserve feeds
// breaches to the pipeline's measured re-balancer, the same machinery the
// fault path drives when a device dies.
type Watcher struct {
	reg      *Registry
	pol      Policy
	onBreach func(Breach)

	mu       sync.Mutex
	lastFire map[Key]time.Time

	stop chan struct{}
	done chan struct{}
}

// NewWatcher validates the policy and builds a watcher. onBreach may be nil
// (Check's return value is then the only output).
func NewWatcher(reg *Registry, pol Policy, onBreach func(Breach)) (*Watcher, error) {
	if reg == nil {
		return nil, fmt.Errorf("telemetry: watcher needs a registry")
	}
	if pol.SkewFactor != 0 && pol.SkewFactor <= 1 {
		return nil, fmt.Errorf("telemetry: skew factor %v must exceed 1", pol.SkewFactor)
	}
	if pol.P99Bound < 0 {
		return nil, fmt.Errorf("telemetry: negative p99 bound %v", pol.P99Bound)
	}
	return &Watcher{
		reg:      reg,
		pol:      pol,
		onBreach: onBreach,
		lastFire: make(map[Key]time.Time),
	}, nil
}

// Check evaluates the policy once against the registry's current windows
// and returns the breaches (after cooldown suppression), invoking the
// callback for each. Deterministic given the registry contents, so tests
// and operators can tick the watcher by hand.
func (w *Watcher) Check(now time.Time) []Breach {
	var breaches []Breach
	stats := w.reg.Snapshot()

	if w.pol.P99Bound > 0 {
		for _, st := range stats {
			if st.Key.Kind != KindE2E || st.WindowCount < MinSamples {
				continue
			}
			if st.P99 > w.pol.P99Bound {
				breaches = append(breaches, Breach{
					Kind: BreachP99, Key: st.Key,
					Observed: st.P99, Bound: w.pol.P99Bound,
					Detail: fmt.Sprintf("windowed p99 %.4gs over bound %.4gs (%d samples)",
						st.P99, w.pol.P99Bound, st.WindowCount),
				})
			}
		}
	}

	if w.pol.SkewFactor > 1 {
		type group struct{ fast, slow SeriesStats }
		groups := make(map[Key]*group) // key with Device cleared
		for _, st := range stats {
			if st.Key.Kind != KindExec || st.WindowCount < MinSamples || st.P99 <= 0 {
				continue
			}
			gk := st.Key
			gk.Device = -1
			g := groups[gk]
			if g == nil {
				groups[gk] = &group{fast: st, slow: st}
				continue
			}
			if st.P99 < g.fast.P99 {
				g.fast = st
			}
			if st.P99 > g.slow.P99 {
				g.slow = st
			}
		}
		for _, g := range groups {
			if g.fast.Key == g.slow.Key {
				continue
			}
			ratio := g.slow.P99 / g.fast.P99
			if ratio > w.pol.SkewFactor {
				breaches = append(breaches, Breach{
					Kind: BreachSkew, Key: g.slow.Key,
					Observed: ratio, Bound: w.pol.SkewFactor,
					Detail: fmt.Sprintf("device %d exec p99 %.4gs is %.2fx device %d's %.4gs",
						g.slow.Key.Device, g.slow.P99, ratio, g.fast.Key.Device, g.fast.P99),
				})
			}
		}
	}

	// Cooldown: a key that fired recently stays quiet while the control
	// action lands.
	w.mu.Lock()
	kept := breaches[:0]
	for _, b := range breaches {
		if last, ok := w.lastFire[b.Key]; ok && now.Sub(last) < cooldown {
			continue
		}
		w.lastFire[b.Key] = now
		kept = append(kept, b)
	}
	w.mu.Unlock()

	if w.onBreach != nil {
		for _, b := range kept {
			w.onBreach(b)
		}
	}
	return kept
}

// Start runs Check every checkInterval until Stop. A watcher can be started at
// most once.
func (w *Watcher) Start() {
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		t := time.NewTicker(checkInterval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case now := <-t.C:
				w.Check(now)
			}
		}
	}()
}

// Stop halts a started watcher and waits for its loop to exit. Safe to call
// when never started.
func (w *Watcher) Stop() {
	if w.stop == nil {
		return
	}
	close(w.stop)
	<-w.done
}
