package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-ticked clock for deterministic window tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestQuantileAgainstSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	quantiles := []float64{0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(500)
		vals := make([]float64, n)
		for i := range vals {
			switch trial % 3 {
			case 0:
				vals[i] = rng.NormFloat64()
			case 1:
				vals[i] = float64(rng.Intn(5)) // heavy duplicates
			default:
				vals[i] = float64(i) // pre-sorted
			}
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for _, q := range quantiles {
			k := int((q*float64(n))+0.9999999) - 1
			if k < 0 {
				k = 0
			}
			want := sorted[k]
			scratch := append([]float64(nil), vals...)
			got := Quantile(scratch, q)
			if got != want {
				t.Fatalf("trial %d n=%d q=%v: quickselect %v, sort reference %v", trial, n, q, got, want)
			}
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if got := Quantile(nil, 0.99); got != 0 {
		t.Fatalf("empty slice: got %v, want 0", got)
	}
	if got := Quantile([]float64{7}, 0.5); got != 7 {
		t.Fatalf("single element: got %v, want 7", got)
	}
	if got := Quantile([]float64{3, 1, 2}, 1); got != 3 {
		t.Fatalf("q=1 max: got %v, want 3", got)
	}
}

func FuzzQuantile(f *testing.F) {
	f.Add(uint16(10), int64(1), uint8(50))
	f.Add(uint16(1), int64(99), uint8(99))
	f.Add(uint16(257), int64(-5), uint8(1))
	f.Fuzz(func(t *testing.T, n uint16, seed int64, qRaw uint8) {
		if n == 0 {
			return
		}
		q := (float64(qRaw%100) + 1) / 100
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, int(n)%1024+1)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 100
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		got := Quantile(vals, q)
		// Nearest-rank result must be an element of the slice, and must sit
		// at the expected sorted index.
		k := 0
		for k < len(sorted) && float64(k+1) < q*float64(len(sorted)) {
			k++
		}
		if got != sorted[k] {
			t.Fatalf("n=%d q=%v: got %v, want sorted[%d]=%v", len(vals), q, got, k, sorted[k])
		}
	})
}

func TestRangePartitionMerge(t *testing.T) {
	samples := []Sample{{At: 5, V: 50}, {At: 1, V: 10}, {At: 3, V: 30}, {At: 3, V: 31}, {At: 9, V: 90}}
	r := NewRange(samples)
	if r.Len() != 5 || r.MinAt() != 1 || r.MaxAt() != 9 {
		t.Fatalf("range bounds: len=%d min=%d max=%d", r.Len(), r.MinAt(), r.MaxAt())
	}
	for i := 1; i < r.Len(); i++ {
		if r.At(i-1).At > r.At(i).At {
			t.Fatalf("not sorted at %d", i)
		}
	}

	older, newer := r.Partition(3)
	if older.Len() != 1 || newer.Len() != 4 {
		t.Fatalf("partition at 3: older=%d newer=%d", older.Len(), newer.Len())
	}
	if newer.MinAt() != 3 {
		t.Fatalf("newer must start at pivot, got %d", newer.MinAt())
	}

	// Partition is zero-copy and merge restores the original contents.
	m := Merge(older, newer)
	if m.Len() != r.Len() {
		t.Fatalf("merge of partitions: len %d want %d", m.Len(), r.Len())
	}
	for i := 0; i < m.Len(); i++ {
		if m.At(i) != r.At(i) {
			t.Fatalf("merge mismatch at %d: %+v vs %+v", i, m.At(i), r.At(i))
		}
	}

	// Interleaved merge keeps global order.
	a := NewRange([]Sample{{At: 1, V: 1}, {At: 4, V: 4}, {At: 7, V: 7}})
	b := NewRange([]Sample{{At: 2, V: 2}, {At: 4, V: 40}, {At: 9, V: 9}})
	ab := Merge(a, b)
	if ab.Len() != 6 {
		t.Fatalf("interleaved merge len %d", ab.Len())
	}
	for i := 1; i < ab.Len(); i++ {
		if ab.At(i-1).At > ab.At(i).At {
			t.Fatalf("interleaved merge unsorted at %d", i)
		}
	}

	// Empty-side merges return the other side untouched.
	if got := Merge(Range{}, a); got.Len() != a.Len() {
		t.Fatalf("empty-left merge len %d", got.Len())
	}
	if got := Merge(a, Range{}); got.Len() != a.Len() {
		t.Fatalf("empty-right merge len %d", got.Len())
	}
}

func TestRingConcurrentWriters(t *testing.T) {
	const (
		writers    = 8
		perWriter  = 2000
		totalWant  = writers * perWriter
		slotsPower = 1 << 12 // big enough that nothing laps
	)
	r := newRing(4, slotsPower)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.record(w, int64(w*perWriter+i), float64(w))
			}
		}(w)
	}
	wg.Wait()

	from := make([]uint64, len(r.stripes))
	buf, dropped := r.drain(from, nil)
	if dropped != 0 {
		t.Fatalf("dropped %d samples with oversized ring", dropped)
	}
	if len(buf) != totalWant {
		t.Fatalf("drained %d samples, want %d", len(buf), totalWant)
	}
	if r.total() != int64(totalWant) {
		t.Fatalf("total %d, want %d", r.total(), totalWant)
	}
	// Every writer's distinct timestamps all arrived exactly once.
	seen := make(map[int64]bool, totalWant)
	for _, s := range buf {
		if seen[s.At] {
			t.Fatalf("duplicate sample at=%d", s.At)
		}
		seen[s.At] = true
	}
}

func TestRingDrainWhileWriting(t *testing.T) {
	// Readers folding concurrently with writers must never return a torn or
	// duplicated sample; overwritten ones are counted, not returned.
	r := newRing(2, 64)
	const n = 50_000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			r.record(i, int64(i), float64(i))
		}
	}()

	from := make([]uint64, len(r.stripes))
	var got int64
	var dropped int64
	seen := make(map[int64]bool, n)
	for {
		buf, d := r.drain(from, nil)
		dropped += d
		for _, s := range buf {
			if int64(s.V) != s.At {
				t.Fatalf("torn sample: at=%d v=%v", s.At, s.V)
			}
			if seen[s.At] {
				t.Fatalf("duplicate sample at=%d", s.At)
			}
			seen[s.At] = true
		}
		got += int64(len(buf))
		select {
		case <-done:
			buf, d = r.drain(from, nil)
			dropped += d
			for _, s := range buf {
				if int64(s.V) != s.At {
					t.Fatalf("torn sample in final drain: at=%d v=%v", s.At, s.V)
				}
			}
			got += int64(len(buf))
			if got+dropped != n {
				t.Fatalf("got %d + dropped %d != recorded %d", got, dropped, n)
			}
			return
		default:
		}
	}
}

func TestSeriesWindowAndRetention(t *testing.T) {
	clk := newFakeClock()
	reg := New(Options{Window: 10 * time.Second, now: clk.now})
	s := reg.Series(Key{Model: "toy", Stage: -1, Device: -1, Kind: KindE2E})
	p := s.Producer()

	// Ten old samples, advance past the window, ten new ones.
	for i := 0; i < 10; i++ {
		p.Record(1.0)
	}
	clk.advance(20 * time.Second)
	for i := 0; i < 10; i++ {
		p.Record(3.0)
	}

	st := s.Stats()
	if st.Count != 20 {
		t.Fatalf("lifetime count %d, want 20", st.Count)
	}
	if st.WindowCount != 10 {
		t.Fatalf("window count %d, want 10 (old samples must age out)", st.WindowCount)
	}
	if st.P50 != 3.0 || st.P99 != 3.0 {
		t.Fatalf("window quantiles p50=%v p99=%v, want 3.0", st.P50, st.P99)
	}

	retained := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.foldLocked(clk.now().UnixNano())
		n := 0
		for _, r := range s.log {
			n += r.Len()
		}
		return n
	}
	// Out of the window but within the five-minute retention every sample is
	// kept; past it the ranges are evicted entirely.
	clk.advance(4 * time.Minute)
	if n := retained(); n != 20 {
		t.Fatalf("retention kept %d of 20 samples inside its horizon", n)
	}
	clk.advance(2 * time.Minute)
	if n := retained(); n != 0 {
		t.Fatalf("retention kept %d samples past horizon", n)
	}
	// A window longer than the retention keeps its whole span.
	if got := New(Options{Window: time.Hour}).opts.retention(); got != time.Hour {
		t.Fatalf("an hour's window retains %v", got)
	}
}

func TestSeriesConcurrentProducersUnderStats(t *testing.T) {
	clk := newFakeClock()
	reg := New(Options{Window: time.Minute, now: clk.now})
	s := reg.Series(Key{Model: "m", Stage: 0, Device: 0, Kind: KindExec})

	const writers = 6
	const perWriter = 3000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := s.Producer()
			for i := 0; i < perWriter; i++ {
				p.Record(0.001)
				if i%512 == 0 {
					s.Stats() // fold concurrently with writes
				}
			}
		}()
	}
	wg.Wait()

	st := s.Stats()
	if st.Count != writers*perWriter {
		t.Fatalf("count %d, want %d", st.Count, writers*perWriter)
	}
	if got := st.WindowCount + int(st.Dropped); got != writers*perWriter {
		t.Fatalf("window %d + dropped %d = %d, want %d", st.WindowCount, st.Dropped, got, writers*perWriter)
	}
	if st.WindowCount > 0 && st.P99 != 0.001 {
		t.Fatalf("p99 %v, want 0.001", st.P99)
	}
	// Six writers over four stripes: shared stripes race on the sum's CAS,
	// and no sample is lost to it (nor to ring overwrite).
	if got, want := s.Sum(), writers*perWriter*0.001; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum %v, want %v", got, want)
	}
}

func TestWriteMetricsFormat(t *testing.T) {
	clk := newFakeClock()
	reg := New(Options{Window: time.Minute, now: clk.now})
	p := reg.Series(Key{Model: "toy", Stage: 1, Device: 2, Kind: KindStage}).Producer()
	for i := 0; i < 100; i++ {
		p.Record(float64(i+1) / 1000)
	}

	var b strings.Builder
	if err := reg.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE pico_latency_seconds summary",
		`pico_latency_seconds{model="toy",stage="1",device="2",kind="stage",quantile="0.5"} 0.05`,
		`pico_latency_seconds{model="toy",stage="1",device="2",kind="stage",quantile="0.99"} 0.099`,
		`pico_latency_seconds_count{model="toy",stage="1",device="2",kind="stage"} 100`,
		`pico_latency_seconds_window{model="toy",stage="1",device="2",kind="stage"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestWatcherP99AndCooldown(t *testing.T) {
	clk := newFakeClock()
	reg := New(Options{Window: time.Minute, now: clk.now})
	p := reg.Series(Key{Model: "toy", Stage: -1, Device: -1, Kind: KindE2E}).Producer()
	var fired []Breach
	w, err := NewWatcher(reg, Policy{P99Bound: 0.100},
		func(b Breach) { fired = append(fired, b) })
	if err != nil {
		t.Fatal(err)
	}

	// Below the MinSamples floor a series is too thin to judge.
	for i := 0; i < MinSamples-1; i++ {
		p.Record(0.250) // well over the bound
	}
	if got := w.Check(clk.now()); len(got) != 0 {
		t.Fatalf("%d samples judged: %+v", MinSamples-1, got)
	}
	for i := 0; i < 50; i++ {
		p.Record(0.250)
	}
	breaches := w.Check(clk.now())
	if len(breaches) != 1 || breaches[0].Kind != BreachP99 {
		t.Fatalf("breaches = %+v, want one p99 breach", breaches)
	}
	if breaches[0].Observed != 0.250 {
		t.Fatalf("observed %v, want 0.25", breaches[0].Observed)
	}
	if len(fired) != 1 {
		t.Fatalf("callback fired %d times, want 1", len(fired))
	}

	// Within cooldown the same key stays quiet.
	clk.advance(cooldown - time.Second)
	if got := w.Check(clk.now()); len(got) != 0 {
		t.Fatalf("cooldown violated: %+v", got)
	}
	// After cooldown it fires again while still in breach.
	clk.advance(2 * time.Minute)
	for i := 0; i < 50; i++ {
		p.Record(0.250)
	}
	if got := w.Check(clk.now()); len(got) != 1 {
		t.Fatalf("post-cooldown check: %+v, want one breach", got)
	}
}

func TestWatcherDeviceSkew(t *testing.T) {
	clk := newFakeClock()
	reg := New(Options{Window: time.Minute, now: clk.now})
	fast := reg.Series(Key{Model: "toy", Stage: 0, Device: 0, Kind: KindExec}).Producer()
	slow := reg.Series(Key{Model: "toy", Stage: 0, Device: 1, Kind: KindExec}).Producer()
	for i := 0; i < 40; i++ {
		fast.Record(0.010)
		slow.Record(0.080) // 8x skew
	}

	w, err := NewWatcher(reg, Policy{SkewFactor: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	breaches := w.Check(clk.now())
	if len(breaches) != 1 || breaches[0].Kind != BreachSkew {
		t.Fatalf("breaches = %+v, want one skew breach", breaches)
	}
	if breaches[0].Key.Device != 1 {
		t.Fatalf("skew breach should name the slow device, got %+v", breaches[0].Key)
	}
	if breaches[0].Observed < 7.9 || breaches[0].Observed > 8.1 {
		t.Fatalf("skew ratio %v, want ~8", breaches[0].Observed)
	}
}

func TestWatcherPolicyValidation(t *testing.T) {
	reg := New(Options{})
	if _, err := NewWatcher(nil, Policy{}, nil); err == nil {
		t.Fatal("nil registry accepted")
	}
	if _, err := NewWatcher(reg, Policy{SkewFactor: 0.5}, nil); err == nil {
		t.Fatal("skew factor <= 1 accepted")
	}
	if _, err := NewWatcher(reg, Policy{P99Bound: -1}, nil); err == nil {
		t.Fatal("negative p99 bound accepted")
	}
}
