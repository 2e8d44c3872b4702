package telemetry

import (
	"slices"
	"sync"
	"time"
)

// sample is one recorded observation: its time in Unix nanoseconds and its
// value (seconds for the latency series).
type sample struct {
	at int64
	v  float64
}

// Series is one key's sample stream: a ring of the last ringSize samples
// written under mu, folded on the read path into the samples of the
// registry's window.
type Series struct {
	key  Key
	opts Options

	// mu guards the write side: the ring, the lifetime count (the ring's
	// cursor: sample i sits at ring[i%ringSize]) and the lifetime sum.
	mu    sync.Mutex
	ring  [ringSize]sample
	count int64
	sum   float64

	// readMu guards the read side, which writers never take: how many
	// samples have been folded, the kept ones, and those overwritten before
	// a fold copied them.
	readMu  sync.Mutex
	folded  int64
	kept    []sample
	dropped int64
}

func newSeries(key Key, opts Options) *Series {
	return &Series{key: key, opts: opts}
}

// Producer is the writer's handle on a series: the series itself.
type Producer = Series

// Producer returns the series' writer handle, the series itself.
func (s *Series) Producer() *Producer { return s }

// Record stores v (seconds) observed now.
func (s *Series) Record(v float64) { s.RecordAt(s.opts.now(), v) }

// RecordAt stores v (seconds) observed at the given time — use it when the
// hot path already has the timestamp, avoiding a second clock read.
func (s *Series) RecordAt(at time.Time, v float64) {
	s.mu.Lock()
	s.ring[s.count%ringSize] = sample{at: at.UnixNano(), v: v}
	s.count++
	s.sum += v
	s.mu.Unlock()
}

// Count returns the lifetime number of recorded samples (including any the
// fold path lost to ring overwrite).
func (s *Series) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Sum returns the lifetime sum of recorded values, ring overwrites included
// — with Count, the series' lifetime total and mean.
func (s *Series) Sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}

// foldLocked copies the samples recorded since the last fold out of the
// ring, counts those already overwritten as dropped, and evicts kept samples
// observed before now-Window. Callers hold s.readMu.
func (s *Series) foldLocked(now int64) {
	s.mu.Lock()
	from := max(s.folded, s.count-ringSize)
	for i := from; i < s.count; i++ {
		s.kept = append(s.kept, s.ring[i%ringSize])
	}
	s.dropped += from - s.folded
	s.folded = s.count
	s.mu.Unlock()
	cutoff := now - s.opts.Window.Nanoseconds()
	s.kept = slices.DeleteFunc(s.kept, func(x sample) bool { return x.at < cutoff })
}

// Stats folds the series and computes its sliding-window percentile
// snapshot: the quantiles of the samples observed at or after now-Window,
// with the count as of the fold.
func (s *Series) Stats() SeriesStats {
	s.readMu.Lock()
	s.foldLocked(s.opts.now().UnixNano())
	vals := make([]float64, len(s.kept))
	for i, x := range s.kept {
		vals[i] = x.v
	}
	st := SeriesStats{Key: s.key, Count: s.folded, Dropped: s.dropped, WindowCount: len(vals)}
	s.readMu.Unlock()
	if len(vals) == 0 {
		return st
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	st.Mean = sum / float64(len(vals))
	st.P50 = Quantile(vals, 0.50)
	st.P95 = Quantile(vals, 0.95)
	st.P99 = Quantile(vals, 0.99)
	st.Max = Quantile(vals, 1)
	return st
}
