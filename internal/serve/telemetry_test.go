package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pico/internal/runtime"
	"pico/internal/telemetry"
	"pico/internal/tensor"
)

// TestAdmissionHardCapUnderBurst pins the reserve-before-decide fix: N
// simultaneous arrivals may never drive admitted-in-flight past MaxQueue.
// Before the fix each arrival judged a stale queue Load taken before any of
// the burst incremented it, so a simultaneous burst overshot the cap.
func TestAdmissionHardCapUnderBurst(t *testing.T) {
	const emulatedHz = 2e6 // each task takes emulated hundreds of ms
	const maxQueue = 4
	f := startGateway(t, 2, emulatedHz,
		[]runtime.WorkerOption{runtime.WithEmulatedSpeed(emulatedHz)},
		func(c *Config) {
			c.MaxQueue = maxQueue
			// Only the hard queue cap sheds: the latency bound is far out
			// of reach.
			c.LatencyBound = 1e9
		})
	in := tensor.RandomInput(f.model.Input, 5)
	payload := encode(in)

	// Warm the session (plan + dial) so the burst races only admission.
	if status, body, _ := f.post(t, "", payload); status != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", status, body)
	}

	// Sample the admitted-in-flight ledger while the burst runs. Reading
	// admitted before the settled counters keeps the estimate conservative
	// (a completion between the reads only shrinks it), so an overshoot
	// report is never a sampling artifact.
	stop := make(chan struct{})
	overshoot := make(chan int64, 1)
	go func() {
		var worst int64
		for {
			select {
			case <-stop:
				overshoot <- worst
				return
			default:
			}
			admitted := f.g.admitted.Load()
			inFlight := admitted - f.g.completed.Load() - f.g.failed.Load() - f.g.canceled.Load()
			if inFlight > worst {
				worst = inFlight
			}
		}
	}()

	const clients = 64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(f.base+"/infer", "application/octet-stream", bytes.NewReader(payload))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(stop)
	if worst := <-overshoot; worst > maxQueue {
		t.Fatalf("admitted-in-flight reached %d, hard cap is %d", worst, maxQueue)
	}
	st := f.g.GatewayStats()
	if st.Shed == 0 {
		t.Fatalf("a %d-wide burst against MaxQueue=%d never shed: %+v", clients, maxQueue, st)
	}
	if st.Admitted != st.Completed+st.Failed+st.Canceled {
		t.Fatalf("ledger: admitted %d != completed %d + failed %d + canceled %d",
			st.Admitted, st.Completed, st.Failed, st.Canceled)
	}
}

// TestCanceledMidFlightCountsSeparately cancels a request after admission
// and checks it lands in the canceled counter — not failed — keeping
// admitted == completed + failed + canceled.
func TestCanceledMidFlightCountsSeparately(t *testing.T) {
	const emulatedHz = 2e6 // slow enough to cancel mid-flight reliably
	f := startGateway(t, 2, emulatedHz,
		[]runtime.WorkerOption{runtime.WithEmulatedSpeed(emulatedHz)},
		func(c *Config) {
			c.MaxQueue = 16
			c.LatencyBound = 1e9
		})
	in := tensor.RandomInput(f.model.Input, 5)
	payload := encode(in)
	if status, body, _ := f.post(t, "", payload); status != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", status, body)
	}
	base := f.g.GatewayStats()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.base+"/infer", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	// Wait until the request is admitted, then yank the client.
	for deadline := time.Now().Add(30 * time.Second); f.g.admitted.Load() == base.Admitted; {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("canceled request returned a response")
	}

	// The handler observes the cancellation promptly; the pipeline task it
	// abandoned still drains in the background.
	var st Stats
	for deadline := time.Now().Add(30 * time.Second); ; {
		st = f.g.GatewayStats()
		if st.Canceled == base.Canceled+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled counter never moved: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if st.Failed != base.Failed {
		t.Fatalf("client cancellation counted as failure: %+v", st)
	}
	if st.Admitted != st.Completed+st.Failed+st.Canceled {
		t.Fatalf("ledger: admitted %d != completed %d + failed %d + canceled %d",
			st.Admitted, st.Completed, st.Failed, st.Canceled)
	}
}

// TestMetricsEndpoint scrapes GET /metrics after live traffic and checks
// the exposition carries the latency summary series (e2e, request, stage,
// exec quantiles) and the gateway counters.
func TestMetricsEndpoint(t *testing.T) {
	f := startGateway(t, 2, 600e6, nil, func(c *Config) {
		c.MaxQueue = 64
		c.LatencyBound = 300
	})
	in := tensor.RandomInput(f.model.Input, 11)
	payload := encode(in)
	for i := 0; i < 8; i++ {
		if status, body, _ := f.post(t, "", payload); status != http.StatusOK {
			t.Fatalf("infer %d: status %d: %s", i, status, body)
		}
	}

	resp, err := http.Get(f.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE pico_latency_seconds summary",
		`kind="e2e",quantile="0.5"`,
		`kind="e2e",quantile="0.99"`,
		`kind="request",quantile="0.99"`,
		`kind="stage",quantile="0.95"`,
		`kind="exec",quantile="0.99"`,
		`model="toy/pico"`,
		`pico_gateway_requests_total{outcome="completed"} 8`,
		`pico_gateway_requests_total{outcome="admitted"} 8`,
		"pico_gateway_queued 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", out)
	}
}

// TestSLOBreachTriggersRebalance closes the telemetry loop deterministically:
// the cluster is profiled homogeneous so the planner splits strips evenly,
// but one worker is emulated 8x slower. Measured exec-time skew breaches the
// watcher policy, and the triggered re-balance must shift rows off the
// straggler — the FaultRebalanced journal records the new layout.
func TestSLOBreachTriggersRebalance(t *testing.T) {
	const fastHz, slowHz = 4e7, 5e6
	speeds := []float64{fastHz, fastHz, slowHz}
	f := newGateway(t, localCluster(t, len(speeds), speeds), fastHz, func(c *Config) {
		c.MaxQueue = 64
		c.LatencyBound = 1e9
		c.SLOSkewFactor = 3
	})
	// Served through Handler(), never Serve, so the watcher's ticker never
	// starts: the test ticks it by hand via CheckSLO.
	hs := httptest.NewServer(f.g.Handler())
	t.Cleanup(hs.Close)
	f.base = hs.URL
	in := tensor.RandomInput(f.model.Input, 17)
	payload := encode(in)
	// Enough traffic that every device's exec series passes the watcher's
	// MinSamples floor.
	for i := 0; i < 12; i++ {
		if status, body, _ := f.post(t, "", payload); status != http.StatusOK {
			t.Fatalf("infer %d: status %d: %s", i, status, body)
		}
	}

	breaches := f.g.CheckSLO(time.Now())
	if len(breaches) == 0 {
		t.Fatal("8x emulated skew produced no SLO breach")
	}
	skew := false
	for _, b := range breaches {
		if b.Kind == telemetry.BreachSkew && b.Key.Device == 2 {
			skew = true
		}
	}
	if !skew {
		t.Fatalf("no skew breach naming the slow device: %+v", breaches)
	}
	st := f.g.GatewayStats()
	if st.SLOBreaches == 0 || st.SLORebalanced == 0 {
		t.Fatalf("breach did not trigger a re-balance: breaches=%d rebalanced=%d",
			st.SLOBreaches, st.SLORebalanced)
	}

	// The journal records the measured re-split.
	sessions := f.g.pool.snapshot()
	if len(sessions) != 1 {
		t.Fatalf("want one session, got %d", len(sessions))
	}
	events, _ := sessions[0].pipe.FaultEvents()
	found := false
	for _, ev := range events {
		if ev.Kind == runtime.FaultRebalanced && strings.Contains(ev.Detail, "slo:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no slo re-balance event in the fault journal: %+v", events)
	}

	// Within the cooldown the same breach stays quiet.
	if again := f.g.CheckSLO(time.Now()); len(again) != 0 {
		t.Fatalf("cooldown violated: %+v", again)
	}

	// Traffic keeps flowing on the re-balanced layout, byte-correct.
	ref, err := tensor.NewExecutor(f.model, 99)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	status, body, _ := f.post(t, "", payload)
	if status != http.StatusOK {
		t.Fatalf("post-rebalance infer: status %d: %s", status, body)
	}
	if !bytes.Equal(body, encode(want)) {
		t.Fatal("post-rebalance output differs from local reference")
	}
}
