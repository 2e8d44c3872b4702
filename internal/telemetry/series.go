package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Series is one key's sample stream: a lock-free ring absorbing writes,
// folded on the read path into a bounded log of immutable sorted ranges.
type Series struct {
	key  Key
	opts Options
	ring *ring

	// nextStripe assigns producer stripes round-robin.
	nextStripe atomic.Uint32

	// mu guards the reader-side state only; the write path never takes it.
	mu       sync.Mutex
	readFrom []uint64
	log      []Range
	dropped  int64
}

// maxLogRanges bounds the per-series range log; past it, the log is merged
// down to one range so query cost stays linear in retained samples.
const maxLogRanges = 16

func newSeries(key Key, opts Options) *Series {
	r := newRing(opts.Stripes, opts.RingSlots)
	return &Series{
		key:      key,
		opts:     opts,
		ring:     r,
		readFrom: make([]uint64, len(r.stripes)),
	}
}

// Key returns the series identity.
func (s *Series) Key() Key { return s.key }

// Producer is one writer's handle on a series, bound to a ring stripe so
// distinct producers (each pipeline stage driver, the gateway) record with
// no shared state at all. A Producer may be shared by multiple goroutines;
// they then contend only on the stripe's single atomic cursor.
type Producer struct {
	s      *Series
	stripe int
}

// Producer allocates a writer handle, assigning stripes round-robin.
func (s *Series) Producer() *Producer {
	return &Producer{s: s, stripe: int(s.nextStripe.Add(1) - 1)}
}

// Record stores v (seconds) observed now.
func (p *Producer) Record(v float64) {
	p.s.ring.record(p.stripe, p.s.opts.now().UnixNano(), v)
}

// RecordAt stores v (seconds) observed at the given time — use it when the
// hot path already has the timestamp, avoiding a second clock read.
func (p *Producer) RecordAt(at time.Time, v float64) {
	p.s.ring.record(p.stripe, at.UnixNano(), v)
}

// Record stores v (seconds) without a Producer handle, spreading writers
// across stripes by the clock's low bits. Prefer Producer on hot paths.
func (s *Series) Record(v float64) {
	at := s.opts.now().UnixNano()
	s.ring.record(int(at>>6), at, v)
}

// Count returns the lifetime number of recorded samples (including any the
// fold path lost to ring overwrite).
func (s *Series) Count() int64 { return s.ring.total() }

// Sum returns the lifetime sum of recorded values, ring overwrites included
// — with Count, the series' lifetime total and mean.
func (s *Series) Sum() float64 { return s.ring.sum() }

// fold drains the ring into the immutable range log, evicts ranges past
// retention and bounds the log length. Callers hold s.mu.
func (s *Series) foldLocked(now int64) {
	buf, dropped := s.ring.drain(s.readFrom, nil)
	s.dropped += dropped
	if len(buf) > 0 {
		s.log = append(s.log, NewRange(buf))
	}
	// Evict: partition each range at the retention horizon and keep the
	// newer side; a range wholly older vanishes.
	cutoff := now - s.opts.Retention.Nanoseconds()
	keep := s.log[:0]
	for _, r := range s.log {
		if r.MaxAt() < cutoff {
			continue
		}
		if r.MinAt() < cutoff {
			_, r = r.Partition(cutoff)
		}
		keep = append(keep, r)
	}
	s.log = keep
	for len(s.log) > maxLogRanges {
		merged := Merge(s.log[0], s.log[1])
		s.log = append([]Range{merged}, s.log[2:]...)
	}
}

// WindowValues folds the ring and returns the values observed in
// [now-window, now], in a fresh slice the caller may reorder (quickselect
// does).
func (s *Series) WindowValues(window time.Duration) []float64 {
	now := s.opts.now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.foldLocked(now)
	cutoff := now - window.Nanoseconds()
	var vals []float64
	for _, r := range s.log {
		_, newer := r.Partition(cutoff)
		vals = newer.AppendValues(vals)
	}
	return vals
}

// Stats folds the series and computes its sliding-window percentile
// snapshot over the registry's default window.
func (s *Series) Stats() SeriesStats {
	return s.StatsWindow(s.opts.Window)
}

// StatsWindow is Stats over an explicit window.
func (s *Series) StatsWindow(window time.Duration) SeriesStats {
	vals := s.WindowValues(window)
	st := SeriesStats{Key: s.key, Count: s.Count(), WindowCount: len(vals)}
	s.mu.Lock()
	st.Dropped = s.dropped
	s.mu.Unlock()
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
