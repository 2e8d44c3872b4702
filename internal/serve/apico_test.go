package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/runtime"
	"pico/internal/schemes"
	"pico/internal/tensor"
)

// TestGatewayAPICOSwapsAtTheCrossover is APICO end to end (§IV-C): a
// plan=apico session on four emulated-speed heterogeneous workers serves a
// light load on the one-stage plan (two fused segments, each on all four
// workers), swaps to the PICO pipeline exactly once
// when the offered rate crosses the Theorem-2 crossover (hysteresis keeps it
// there), answers every request with the bytes of a local run on both sides
// of the swap, and journals the swap with the λ and the two latency
// estimates that caused it.
//
// The profile below prices the fused plan at period = latency = 24.7 ms and
// the pipeline at period 19.5 ms, latency 28.7 ms: Theorem 2 puts the
// pipeline ahead by the 5 % margin from about 8.5 req/s up to its saturation
// at 51, and never puts the fused plan ahead by that much, so the one swap
// is the only one whatever the estimate does afterwards.
func TestGatewayAPICOSwapsAtTheCrossover(t *testing.T) {
	speeds := []float64{4e8, 4e8, 4e8, 2e8}
	m := nn.ToyChain("apico", 6, 2, 16, 64)
	profile := &cluster.Cluster{BandwidthBps: 1e7}
	for i, s := range speeds {
		profile.Devices = append(profile.Devices, cluster.Device{ID: fmt.Sprintf("w-%d", i), Capacity: s, Alpha: 1})
	}
	f := startGatewaySpeeds(t, 600e6, speeds, func(c *Config) {
		c.Cluster = profile
		c.Models = map[string]*nn.Model{"toy": m}
		c.LatencyBound = 300
	})
	// A half-second window with β = 0.5 follows the offered rate within a
	// second without jumping on one burst.
	f.setEstimator(0.5, 0.5)
	ref, err := tensor.NewExecutor(m, 99)
	if err != nil {
		t.Fatal(err)
	}

	// Inputs and expected bytes are prepared up front, so the client side of
	// the load is a POST and nothing else.
	const light, heavy = 6, 48
	inputs, wants := make([][]byte, light+heavy), make([][]byte, light+heavy)
	for i := range inputs {
		in := tensor.RandomInput(m.Input, int64(i))
		want, err := ref.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		inputs[i], wants[i] = encode(in), encode(want)
	}
	var wg sync.WaitGroup
	send := func(i int) {
		defer wg.Done()
		status, body, _ := f.post(t, "?plan=apico", inputs[i])
		for status == http.StatusTooManyRequests {
			// A starved host can bunch a second of arrivals into one estimator
			// window; a shed client backs off and retries, as Retry-After asks.
			time.Sleep(100 * time.Millisecond)
			status, body, _ = f.post(t, "?plan=apico", inputs[i])
		}
		if status != http.StatusOK {
			t.Errorf("request %d: status %d: %s", i, status, body)
		} else if !bytes.Equal(body, wants[i]) {
			t.Errorf("request %d: response bytes differ from a local run", i)
		}
	}
	type sessionView struct {
		Key      SessionKey `json:"key"`
		LivePlan string     `json:"live_plan"`
		Stages   int        `json:"stages"`
		Period   float64    `json:"period_seconds"`
		Swaps    int64      `json:"swaps"`
		Health   struct {
			FaultEvents []runtime.FaultEvent `json:"fault_events"`
		} `json:"health"`
	}
	healthz := func() sessionView {
		t.Helper()
		resp, err := http.Get(f.base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct {
			Sessions []sessionView `json:"sessions"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		if len(h.Sessions) != 1 || h.Sessions[0].Key.Plan != PlanAPICO {
			t.Fatalf("healthz sessions %+v, want the one apico session", h.Sessions)
		}
		return h.Sessions[0]
	}

	// Light load, under 4 req/s: well under the crossover.
	for i := 0; i < light; i++ {
		wg.Add(1)
		send(i)
		time.Sleep(250 * time.Millisecond)
	}
	fusedPlan, err := schemes.Plan(PlanFused, m, profile, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	low := healthz()
	if low.LivePlan != PlanFused || low.Swaps != 0 || low.Period != fusedPlan.LatencySeconds ||
		low.Stages != len(fusedPlan.Stages) || low.Stages < 2 {
		t.Fatalf("under light load the session runs %q (%d stages, period %g, %d swaps), want the one-stage plan's %d shared-device stages at %g",
			low.LivePlan, low.Stages, low.Period, low.Swaps, len(fusedPlan.Stages), fusedPlan.LatencySeconds)
	}

	// 16 req/s, open loop on an absolute schedule (a late send is followed by
	// a burst, so a loaded host changes the jitter, not the rate): well past
	// the crossover, under a third of the pipeline's capacity.
	start := time.Now()
	for i := 0; i < heavy; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * 62500 * time.Microsecond)))
		wg.Add(1)
		go send(light + i)
	}
	wg.Wait()
	high := healthz()
	if high.LivePlan != PlanPICO || high.Stages < 2 || high.Swaps != 1 {
		t.Fatalf("under heavy load the session runs %q (%d stages, %d swaps), want one swap to the pipeline",
			high.LivePlan, high.Stages, high.Swaps)
	}
	if high.Period >= low.Period {
		t.Fatalf("live period %g after the swap, %g before: not the pipeline's", high.Period, low.Period)
	}
	var swaps []runtime.FaultEvent
	for _, ev := range high.Health.FaultEvents {
		if ev.Kind == runtime.FaultPlanSwapped {
			swaps = append(swaps, ev)
		}
	}
	if len(swaps) != 1 {
		t.Fatalf("journal holds %d plan-swapped events, want 1: %v", len(swaps), high.Health.FaultEvents)
	}
	var lambda, fused, pico float64
	if _, err := fmt.Sscanf(swaps[0].Detail, "lambda=%g/s fused=%gs -> pico=%gs", &lambda, &fused, &pico); err != nil {
		t.Fatalf("swap detail %q does not parse: %v", swaps[0].Detail, err)
	}
	if lambda < 8 || lambda > 51 || pico >= fused*0.95 {
		t.Fatalf("swap journaled λ=%g fused=%g pico=%g: not a Theorem-2 win past the crossover", lambda, fused, pico)
	}

	st := f.g.GatewayStats()
	if st.Admitted != light+heavy || st.Admitted != st.Completed+st.Failed+st.Canceled || st.Queued != 0 {
		t.Fatalf("ledger after drain: %+v", st)
	}
	if len(st.Sessions) != 1 || st.Sessions[0].Plan != PlanPICO || st.Sessions[0].Swaps != 1 {
		t.Fatalf("/stats sessions %+v, want the live pipeline plan and one swap", st.Sessions)
	}

	status, body, _ := f.post(t, "?plan=bogus", encode(tensor.RandomInput(m.Input, 1)))
	if status != http.StatusBadRequest {
		t.Fatalf("plan=bogus: status %d, want 400", status)
	}
	for _, kind := range []string{PlanPICO, PlanFused, PlanAPICO} {
		if !strings.Contains(string(body), kind) {
			t.Fatalf("plan=bogus answer %q does not name %q", body, kind)
		}
	}
}

// TestGatewayFusedPlanSpreadsAheadOfTheTail: plan=fused on a model that ends
// the way classifiers do (global average pool, fully connected — nothing a
// strip can be cut from) is still a cluster-wide plan: the splittable prefix
// is fused across the workers and only the tail runs on one device. Responses
// equal a local run byte for byte in both precisions, and /stats reports the
// period the shared devices can deliver, the serial group's summed stages.
func TestGatewayFusedPlanSpreadsAheadOfTheTail(t *testing.T) {
	m := &nn.Model{Name: "gap-toy", Input: nn.Shape{C: 1, H: 32, W: 32}, Layers: []nn.Layer{
		nn.Conv3x3("conv1", 8, nn.ReLU),
		nn.Conv3x3("conv2", 8, nn.ReLU),
		nn.MaxPool2x2("pool1"),
		nn.Conv3x3("conv3", 8, nn.ReLU),
		{Name: "gap", Kind: nn.GlobalAvgPool, Act: nn.NoAct},
		nn.FC("fc", 10, nn.NoAct),
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	f := startGateway(t, 4, 600e6, nil, func(c *Config) {
		c.Models = map[string]*nn.Model{"gap": m}
		// A link on which spreading a toy over four devices pays.
		c.Cluster.BandwidthBps *= 100
		c.LatencyBound = 300
	})
	for _, quant := range []bool{false, true} {
		query, refOpts := "?plan=fused", []tensor.ExecutorOption(nil)
		if quant {
			query, refOpts = query+"&quant=1", append(refOpts, tensor.WithQuantized())
		}
		ref, err := tensor.NewExecutor(m, 99, refOpts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			in := tensor.RandomInput(m.Input, int64(i))
			var want tensor.Tensor
			if quant {
				q, err := ref.RunQ(in)
				if err != nil {
					t.Fatal(err)
				}
				want = q.Dequantize()
			} else if want, err = ref.Run(in); err != nil {
				t.Fatal(err)
			}
			status, body, _ := f.post(t, query, encode(in))
			if status != http.StatusOK {
				t.Fatalf("%s request %d: status %d: %s", query, i, status, body)
			}
			if !bytes.Equal(body, encode(want)) {
				t.Fatalf("%s request %d: response bytes differ from a local run", query, i)
			}
		}
	}
	sessions := f.g.pool.snapshot()
	stats := map[SessionKey]SessionStats{}
	for _, ss := range f.g.GatewayStats().Sessions {
		stats[ss.Key] = ss
	}
	if len(sessions) != 2 || len(stats) != 2 {
		t.Fatalf("%d sessions, %d in /stats, want the float and the int8 one", len(sessions), len(stats))
	}
	for _, s := range sessions {
		plan := s.pipe.Plan()
		last := plan.Stages[len(plan.Stages)-1]
		if plan.Quantized != s.key.Quant || plan.Stages[0].Workers() < 2 || last.Workers() != 1 {
			t.Fatalf("%s runs\n%swant a multi-device fused prefix ahead of a one-device tail, priced in the session's precision", s.key, plan.Describe())
		}
		var group float64
		for j := range plan.Stages {
			group += plan.Stages[j].Seconds()
		}
		if got := stats[s.key].PeriodSeconds; got != plan.PeriodSeconds || got != group {
			t.Fatalf("/stats reports %s at period %g; its live plan has period %g, its stages sum to %g",
				s.key, got, plan.PeriodSeconds, group)
		}
	}
}
