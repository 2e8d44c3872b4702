package telemetry

import (
	"math"
	"sync/atomic"
)

// ring is a fixed-size lock-free sample buffer split into per-producer
// stripes. Each stripe has its own atomic cursor, so producers bound to
// different stripes never touch the same cache line on the write path;
// producers sharing a stripe contend only on one atomic add.
//
// Slots are seqlock-published: a writer claims a global index with the
// cursor, marks the slot odd while storing the sample, then publishes the
// slot's new version. A reader validates the version before and after
// copying the fields, so a torn read (two writers a full lap apart, or a
// write racing the read) is detected and counted, never returned. Readers
// are single-threaded per series (the fold path holds the series mutex) and
// lossless up to one full lap of lag; beyond that the overwritten samples
// are counted in dropped.
type ring struct {
	stripes []ringStripe
}

type ringStripe struct {
	cursor atomic.Uint64
	// sum holds the float64 bit pattern of the stripe's lifetime value sum,
	// updated by CAS.
	sum   atomic.Uint64
	slots []ringSlot
	mask  uint64
	// _pad keeps neighbouring stripes' cursors off one cache line.
	_pad [96]byte //nolint:unused
}

// ringSlot holds one sample. seq carries the slot's published version:
// (i+1)<<1 after sample i is fully stored, i<<1|1 while it is being written.
type ringSlot struct {
	seq  atomic.Uint64
	at   atomic.Int64
	bits atomic.Uint64
}

// Sample is one recorded observation.
type Sample struct {
	// At is the observation time in Unix nanoseconds.
	At int64
	// V is the observed value (seconds for the latency series).
	V float64
}

// newRing builds a ring of the given geometry; both counts are powers of
// two, so a stripe or slot index is a mask away.
func newRing(stripes, slots int) *ring {
	r := &ring{stripes: make([]ringStripe, stripes)}
	for i := range r.stripes {
		r.stripes[i].slots = make([]ringSlot, slots)
		r.stripes[i].mask = uint64(slots - 1)
	}
	return r
}

// record stores one sample on the given stripe. Lock-free and safe for any
// number of concurrent writers per stripe.
func (r *ring) record(stripe int, at int64, v float64) {
	st := &r.stripes[stripe&(len(r.stripes)-1)]
	i := st.cursor.Add(1) - 1
	s := &st.slots[i&st.mask]
	s.seq.Store(i<<1 | 1)
	s.at.Store(at)
	s.bits.Store(math.Float64bits(v))
	s.seq.Store((i + 1) << 1)
	for {
		old := st.sum.Load()
		if st.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// total returns the lifetime number of claimed samples.
func (r *ring) total() int64 {
	var n uint64
	for i := range r.stripes {
		n += r.stripes[i].cursor.Load()
	}
	return int64(n)
}

// sum returns the lifetime sum of recorded values.
func (r *ring) sum() float64 {
	var v float64
	for i := range r.stripes {
		v += math.Float64frombits(r.stripes[i].sum.Load())
	}
	return v
}

// drain collects, per stripe, every sample published since from[i], appends
// them to buf, and advances from. Samples overwritten before this call (the
// reader lagged more than one lap) are counted in dropped. A slot whose
// write is still in flight stops that stripe's scan — it will be picked up
// by the next drain — so a completed write is never skipped.
//
// drain is not itself concurrency-safe: callers serialize it per ring (the
// series fold mutex).
func (r *ring) drain(from []uint64, buf []Sample) ([]Sample, int64) {
	var dropped int64
	for si := range r.stripes {
		st := &r.stripes[si]
		cur := st.cursor.Load()
		lo := from[si]
		if size := uint64(len(st.slots)); cur > size && lo < cur-size {
			dropped += int64(cur - size - lo)
			lo = cur - size
		}
		next := cur
		for j := lo; j < cur; j++ {
			want := (j + 1) << 1
			s := &st.slots[j&st.mask]
			seq := s.seq.Load()
			if seq < want {
				// Claimed but not yet published; stop here and retry on
				// the next fold so the sample is not lost.
				next = j
				break
			}
			if seq > want {
				dropped++ // overwritten by a writer a lap ahead
				continue
			}
			at := s.at.Load()
			bits := s.bits.Load()
			if s.seq.Load() != want {
				dropped++ // overwritten mid-read
				continue
			}
			buf = append(buf, Sample{At: at, V: math.Float64frombits(bits)})
		}
		from[si] = next
	}
	return buf, dropped
}
