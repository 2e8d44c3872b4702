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

// foldAll folds the series at the clock's now and returns a copy of every
// kept sample and the dropped count.
func foldAll(s *Series) ([]sample, int64) {
	s.readMu.Lock()
	defer s.readMu.Unlock()
	s.foldLocked(s.opts.now().UnixNano())
	return append([]sample(nil), s.kept...), s.dropped
}

func TestSeriesConcurrentWriters(t *testing.T) {
	const writers, perWriter = 8, 30
	clk := newFakeClock()
	s := New(Options{now: clk.now}).Series(Key{Model: "m", Stage: 0, Device: -1, Kind: KindStage})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Record(float64(w*perWriter + i))
			}
		}()
	}
	wg.Wait()

	kept, dropped := foldAll(s)
	if dropped != 0 || len(kept) != writers*perWriter {
		t.Fatalf("fold kept %d and dropped %d, want all %d", len(kept), dropped, writers*perWriter)
	}
	seen := map[float64]bool{}
	for _, x := range kept {
		if seen[x.v] {
			t.Fatalf("value %v folded twice", x.v)
		}
		seen[x.v] = true
	}
}

func TestSeriesFoldWhileWriting(t *testing.T) {
	// A reader folding while the writer laps the ring must never return a
	// duplicated sample or one whose value is not its time's; the samples it
	// misses are counted, not lost.
	const n = 50_000
	clk := newFakeClock()
	s := New(Options{now: clk.now}).Series(Key{Model: "m", Stage: -1, Device: -1, Kind: KindE2E})
	base := clk.now().UnixNano()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			s.RecordAt(time.Unix(0, base+int64(i)), float64(i))
		}
	}()

	// Each pass checks the samples its fold appended; the pass after the
	// writer finishes folds the last of them.
	seen := make(map[int64]bool, n)
	checked := 0
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		kept, dropped := foldAll(s)
		for _, x := range kept[checked:] {
			if int64(x.v) != x.at-base {
				t.Fatalf("sample at %d carries %v", x.at-base, x.v)
			}
			if seen[x.at] {
				t.Fatalf("sample at %d folded twice", x.at-base)
			}
			seen[x.at] = true
		}
		checked = len(kept)
		if finished && int64(len(kept))+dropped != n {
			t.Fatalf("kept %d + dropped %d != recorded %d", len(kept), dropped, n)
		}
	}
}

func TestSeriesLapCapacity(t *testing.T) {
	// Unread, a series holds its last 256 samples; the rest count as
	// dropped, and the lifetime count and sum still cover every one.
	clk := newFakeClock()
	s := New(Options{now: clk.now}).Series(Key{Model: "m", Stage: 0, Device: 0, Kind: KindExec})
	p := s.Producer()
	for i := 0; i < 600; i++ {
		p.Record(float64(i))
	}
	st := s.Stats()
	if st.Count != 600 || s.Sum() != 599*600/2 {
		t.Fatalf("count %d sum %v, want 600 and %v", st.Count, s.Sum(), 599*600/2)
	}
	if st.WindowCount != 256 || st.Dropped != 344 {
		t.Fatalf("window %d dropped %d, want 256 and 344", st.WindowCount, st.Dropped)
	}
}

func TestSeriesWritersNeverWaitOnReaders(t *testing.T) {
	s := New(Options{}).Series(Key{Model: "m", Stage: -1, Device: -1, Kind: KindE2E})
	s.readMu.Lock()
	defer s.readMu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10_000; i++ {
			s.Record(1e-3)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("10000 records did not finish in 5 s with the read lock held")
	}
}

func TestTableShowsDropped(t *testing.T) {
	clk := newFakeClock()
	reg := New(Options{now: clk.now})
	s := reg.Series(Key{Model: "toy", Stage: -1, Device: -1, Kind: KindE2E})
	for i := 0; i < 300; i++ {
		s.Record(1e-3)
	}
	lines := strings.Split(strings.TrimSpace(Table(reg.Snapshot())), "\n")
	if len(lines) != 2 {
		t.Fatalf("table:\n%s", strings.Join(lines, "\n"))
	}
	head, row := strings.Fields(lines[0]), strings.Fields(lines[1])
	if len(head) != len(row) || head[4] != "n" || row[4] != "256" || head[5] != "dropped" || row[5] != "44" {
		t.Fatalf("want n 256 and dropped 44:\n%s", strings.Join(lines, "\n"))
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
		kept, _ := foldAll(s)
		return len(kept)
	}
	// Out of the window but within the five-minute retention every sample is
	// kept; past it they are evicted.
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
	// Six writers race on the one sum, and no sample is lost to it (nor to
	// ring overwrite).
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
