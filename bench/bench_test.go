package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// manifest is the part of BENCHMARK.json the code must agree with.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func sameMetrics(t *testing.T, kind string, want []manifestMetric, got []metric) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(want), len(got))
	}
	for i, w := range want {
		if g := (manifestMetric{got[i].name, got[i].unit, got[i].better, got[i].bound}); g != w {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", kind, i, w, g)
		}
	}
}

// TestManifestMatchesCode pins the names, units, directions and bounds in
// BENCHMARK.json to the tables the benchmark reports from.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, w.Name, workloads[i].name)
		}
	}
	sameMetrics(t, "end_to_end", m.EndToEnd, endToEnd)
	sameMetrics(t, "per_layer", m.PerLayer, perLayer)
}

// TestSmokeEveryWorkload runs every workload both ways at a fraction of the
// real scale, in-process, and checks that each run reports exactly the
// manifest's metric names, each once and finite (result.finish enforces the
// exactly-once and finite part; a run that breaks it returns an error).
func TestSmokeEveryWorkload(t *testing.T) {
	m := readManifest(t)
	out := t.TempDir()
	for _, w := range workloads {
		if raceEnabled && strings.HasPrefix(w.name, "mnv1_") {
			continue
		}
		for _, trace := range []bool{false, true} {
			want := m.EndToEnd
			if trace {
				want = m.PerLayer
			}
			cfg := &runConfig{w: w, seed: 1, seconds: 1, trace: trace, outDir: out, scale: 0.01}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d requests failed", w.name, trace, res.failed, res.attempted)
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, manifest lists %d", w.name, trace, len(res.metrics), len(want))
			}
			for _, mm := range want {
				if _, ok := res.metrics[mm.Name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, mm.Name)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(out, w.name+".trace.json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
		}
	}
}

// TestWrongBytesAndShedCountAsFailures drives the generator against a server
// that answers one request correctly, one with a single flipped byte and one
// with 429, and checks the byte-identity check and the failure accounting.
func TestWrongBytesAndShedCountAsFailures(t *testing.T) {
	p := &pool{}
	for i := 0; i < poolSize; i++ {
		p.inputs = append(p.inputs, []byte{byte(i)})
		p.want = append(p.want, []byte{1, 2, 3, byte(i)})
	}
	calls := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		switch calls {
		case 1:
			_, _ = w.Write(p.want[0])
		case 2:
			_, _ = w.Write([]byte{1, 2, 3 ^ 0x80, 0})
		default:
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
		}
	}))
	defer srv.Close()

	tg := &target{url: srv.URL, pool: p}
	client := newClient(1)
	defer client.CloseIdleConnections()
	var load loadResult
	start := time.Now()
	for i := 0; i < 3; i++ {
		load.replies = append(load.replies, tg.one(client, 0, 0, start, time.Since(start)))
	}
	if r := load.replies; !r[0].correct || r[1].correct || r[2].correct {
		t.Fatalf("correct flags = %v %v %v, want true false false", r[0].correct, r[1].correct, r[2].correct)
	}
	sum := load.summarize(time.Second)
	if sum.sent != 3 || sum.good != 1 || len(sum.latMs) != 1 {
		t.Errorf("summary = %+v, want sent 3, good 1, one latency sample", sum)
	}
	if got, want := sum.failShare(), 2.0/3; got != want {
		t.Errorf("fail share = %v, want %v", got, want)
	}
	// A correct but late response misses goodput too.
	if late := load.summarize(0); late.good != 0 || late.failShare() != 1 {
		t.Errorf("with a zero latency limit: good %d, fail share %v; want 0 and 1", late.good, late.failShare())
	}
}

// TestScheduleSeedRotatesOneTrace pins the arrival schedules: every seed gets
// exactly rate x seconds arrivals inside the window; Poisson seeds differ only
// in where the one fixed trace starts, so the gaps they offer are the same
// set; paced arrivals are evenly spaced.
func TestScheduleSeedRotatesOneTrace(t *testing.T) {
	const rate, dur = 30.0, 25 * time.Second
	gapsOf := func(seed int64) []float64 {
		arr, err := schedule(rate, false, dur, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(arr) != 750 || arr[0] < 0 || arr[len(arr)-1] >= dur {
			t.Fatalf("seed %d: %d arrivals in [%v, %v], want 750 inside the window", seed, len(arr), arr[0], arr[len(arr)-1])
		}
		gaps := []float64{arr[0].Seconds(), (dur - arr[len(arr)-1]).Seconds()}
		for i := 1; i < len(arr); i++ {
			if arr[i] < arr[i-1] {
				t.Fatalf("seed %d: arrivals not sorted at %d", seed, i)
			}
			gaps = append(gaps, (arr[i] - arr[i-1]).Seconds())
		}
		sort.Float64s(gaps)
		return gaps
	}
	a, b := gapsOf(1), gapsOf(8)
	first, _ := schedule(rate, false, dur, 1)
	other, _ := schedule(rate, false, dur, 8)
	if first[0] == other[0] {
		t.Errorf("seeds 1 and 8 start the trace at the same place")
	}
	for i := range a {
		if d := a[i] - b[i]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("sorted gap %d differs between seeds: %v vs %v", i, a[i], b[i])
		}
	}
	paced, err := schedule(12, true, dur, 5)
	if err != nil || len(paced) != 300 || paced[0] != 0 {
		t.Fatalf("paced: %d arrivals from %v, err %v", len(paced), paced[0], err)
	}
	for i := 1; i < len(paced); i++ {
		if g := paced[i] - paced[i-1]; g < 83*time.Millisecond || g > 84*time.Millisecond {
			t.Fatalf("paced gap %d is %v", i, g)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}
