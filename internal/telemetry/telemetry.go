// Package telemetry is the streaming-percentile SLO engine: per series, a
// fixed ring of the last 256 samples filled under a mutex (each runtime
// series has one writer — a stage's gather loop, which on the last stage
// also records e2e — and the gateway's request series takes one sample per
// request), folded on read into the samples of the registry's window, over
// which p50/p95/p99 are computed by quickselect on demand.
//
// The write path is a lock, one store and two adds — cheap enough to sit on
// the per-task and per-tile hot paths. Copying, eviction and selection happen
// on the read path (a /metrics scrape, an end-of-run report, an SLO watcher
// tick), under a second per-series mutex that writers never take; a fold
// holds the writers' lock only to copy the pending samples out.
//
// Series are keyed (model, stage, device, kind):
//
//	kind "e2e"   — whole-task latency (stage = -1, device = -1)
//	kind "stage" — one pipeline stage's round trip (device = -1)
//	kind "exec"  — one device's worker-reported tile compute time
//	kind "kernel.<layer kind>" — one device's kernel seconds of that layer
//	               kind (conv, pointwise, depthwise, pool, fc) per tile
//
// The Watcher closes the loop: a p99 over its bound or a per-device exec
// skew past its factor is reported as a Breach, which the serving layer
// feeds to the pipeline's measured re-balancer — the same machinery the
// fault path uses when a device dies.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind labels for the standard series the runtime and gateway record.
const (
	// KindE2E is whole-task latency, submission to completion.
	KindE2E = "e2e"
	// KindStage is one pipeline stage's per-task round trip (split through
	// stitch, including waits on the stage's workers).
	KindStage = "stage"
	// KindExec is one device's worker-reported tile compute time.
	KindExec = "exec"
	// KindKernel prefixes a layer kind's name ("kernel.conv", ...): one
	// device's kernel seconds of that kind per tile, as the worker reports
	// them. The watcher's checks ignore these series.
	KindKernel = "kernel."
	// KindRequest is one gateway request's whole latency, enqueue through
	// result delivery (micro-batch wait included), recorded by the serving
	// layer.
	KindRequest = "request"
)

// Key identifies one latency series. Stage and Device are -1 when the
// dimension does not apply (e.g. end-to-end latency has neither).
type Key struct {
	Model  string
	Stage  int
	Device int
	Kind   string
}

func (k Key) String() string {
	return fmt.Sprintf("%s/stage=%d/device=%d/%s", k.Model, k.Stage, k.Device, k.Kind)
}

// less orders keys for stable snapshot/exposition output.
func (k Key) less(o Key) bool {
	if k.Model != o.Model {
		return k.Model < o.Model
	}
	if k.Kind != o.Kind {
		return k.Kind < o.Kind
	}
	if k.Stage != o.Stage {
		return k.Stage < o.Stage
	}
	return k.Device < o.Device
}

// Options configure a Registry. The zero value gets defaults.
type Options struct {
	// Window is the sliding window every read aggregates over, and the
	// horizon a series keeps folded samples for (default 60s).
	Window time.Duration

	// now overrides the clock for tests.
	now func() time.Time
}

// ringSize is how many of its last samples a series' ring holds.
const ringSize = 256

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = time.Minute
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// Registry owns the series of one process (a gateway, a picorun
// coordinator). Series are created lazily on first use and never removed.
type Registry struct {
	opts Options

	mu     sync.RWMutex
	series map[Key]*Series
}

// New builds a registry.
func New(opts Options) *Registry {
	return &Registry{opts: opts.withDefaults(), series: make(map[Key]*Series)}
}

// Series returns the series for key, creating it on first use.
func (r *Registry) Series(key Key) *Series {
	r.mu.RLock()
	s := r.series[key]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.series[key]; s == nil {
		s = newSeries(key, r.opts)
		r.series[key] = s
	}
	return s
}

// Keys returns every live series key, sorted.
func (r *Registry) Keys() []Key {
	r.mu.RLock()
	keys := make([]Key, 0, len(r.series))
	for k := range r.series {
		keys = append(keys, k)
	}
	r.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys
}

// Snapshot folds every series and returns its sliding-window percentile
// stats, sorted by key. Empty-window series are included (WindowCount 0) so
// a scrape always shows every series ever recorded.
func (r *Registry) Snapshot() []SeriesStats {
	keys := r.Keys()
	out := make([]SeriesStats, 0, len(keys))
	for _, k := range keys {
		out = append(out, r.Series(k).Stats())
	}
	return out
}

// WriteMetrics renders the registry in the plaintext exposition format
// served by picoserve's GET /metrics:
//
//	pico_latency_seconds{model="toy",stage="0",device="1",kind="exec",quantile="0.99"} 0.0123
//	pico_latency_seconds_count{model="toy",stage="0",device="1",kind="exec"} 57
//
// stage="-1" / device="-1" mark dimensions that do not apply. Counts are
// lifetime totals; quantiles cover the sliding window.
func (r *Registry) WriteMetrics(w io.Writer) error {
	stats := r.Snapshot()
	if _, err := fmt.Fprintf(w, "# TYPE pico_latency_seconds summary\n"); err != nil {
		return err
	}
	for _, st := range stats {
		labels := fmt.Sprintf("model=%q,stage=%q,device=%q,kind=%q",
			st.Key.Model, fmt.Sprint(st.Key.Stage), fmt.Sprint(st.Key.Device), st.Key.Kind)
		for _, q := range [...]struct {
			name string
			v    float64
		}{{"0.5", st.P50}, {"0.95", st.P95}, {"0.99", st.P99}} {
			if _, err := fmt.Fprintf(w, "pico_latency_seconds{%s,quantile=%q} %g\n", labels, q.name, q.v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "pico_latency_seconds_count{%s} %d\n", labels, st.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "pico_latency_seconds_window{%s} %d\n", labels, st.WindowCount); err != nil {
			return err
		}
		if st.Dropped > 0 {
			if _, err := fmt.Fprintf(w, "pico_latency_samples_dropped{%s} %d\n", labels, st.Dropped); err != nil {
				return err
			}
		}
	}
	return nil
}

// SeriesStats is one series' sliding-window percentile snapshot.
type SeriesStats struct {
	Key Key
	// Count is the lifetime number of recorded samples.
	Count int64
	// Dropped counts samples lost to ring overwrite before a fold caught
	// them (the reader lagging a burst), never silently.
	Dropped int64
	// WindowCount is how many samples the sliding window held; the
	// percentiles below are meaningless when it is 0.
	WindowCount int
	// P50, P95, P99 are nearest-rank quantiles over the window, Max and
	// Mean the extremes, all in the recorded unit (seconds).
	P50, P95, P99, Max, Mean float64
}

// Table renders stats rows as an aligned text table (picorun's end-of-run
// percentile report). A row's percentiles cover its n window samples;
// dropped counts the samples the ring overwrote before a read.
func Table(stats []SeriesStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-16s %5s %6s %6s %7s %10s %10s %10s\n",
		"model", "kind", "stage", "device", "n", "dropped", "p50", "p95", "p99")
	for _, st := range stats {
		if st.WindowCount == 0 {
			continue
		}
		stage, device := fmt.Sprint(st.Key.Stage), fmt.Sprint(st.Key.Device)
		if st.Key.Stage < 0 {
			stage = "-"
		}
		if st.Key.Device < 0 {
			device = "-"
		}
		fmt.Fprintf(&b, "%-20s %-16s %5s %6s %6d %7d %10s %10s %10s\n",
			st.Key.Model, st.Key.Kind, stage, device, st.WindowCount, st.Dropped,
			fmtSeconds(st.P50), fmtSeconds(st.P95), fmtSeconds(st.P99))
	}
	return b.String()
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
