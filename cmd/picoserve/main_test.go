package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pico/internal/nn"
	"pico/internal/serve"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// TestPicoserveSmoke boots the full binary path — in-process loopback
// workers, gateway, HTTP — fires a concurrent burst, checks every response
// byte-for-byte against a local reference run, and drains programmatically.
func TestPicoserveSmoke(t *testing.T) {
	ready := make(chan *serve.Gateway, 1)
	var stdout, stderr strings.Builder
	code := make(chan int, 1)
	go func() {
		code <- run([]string{
			"-addr", "127.0.0.1:0",
			"-local", "3",
			"-models", "toy",
			"-seed", "7",
		}, &stdout, &stderr, ready)
	}()
	var g *serve.Gateway
	select {
	case g = <-ready:
	case c := <-code:
		t.Fatalf("picoserve exited %d before ready: %s%s", c, stdout.String(), stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatal("picoserve never became ready")
	}
	base := "http://" + g.Addr()

	m, err := nn.ByName("toy")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tensor.NewExecutor(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomInput(m.Input, 3)
	refOut, err := ref.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	enc := func(tt tensor.Tensor) []byte {
		b := wire.EncodeTensor(tt)
		out := append([]byte(nil), b...)
		wire.PutBuffer(b)
		return out
	}
	payload, want := enc(in), enc(refOut)

	const clients = 16
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/infer?model=toy", "application/octet-stream", bytes.NewReader(payload))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d err %v: %s", i, resp.StatusCode, err, body)
				return
			}
			if !bytes.Equal(body, want) {
				t.Errorf("client %d: response differs from local Run", i)
			}
		}(i)
	}
	wg.Wait()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d, want 200", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("picoserve exited %d: %s%s", c, stdout.String(), stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("picoserve never exited after drain")
	}
	if !strings.Contains(stdout.String(), "drained") {
		t.Fatalf("missing drain notice in output: %s", stdout.String())
	}
}

// TestPicoserveMetricsSmoke boots the full binary path with the SLO watcher
// armed, serves a handful of requests, and scrapes GET /metrics: the
// plaintext exposition must carry windowed latency percentiles for every
// instrumented kind plus the gateway counters. This is the `make
// metrics-smoke` gate.
func TestPicoserveMetricsSmoke(t *testing.T) {
	ready := make(chan *serve.Gateway, 1)
	var stdout, stderr strings.Builder
	code := make(chan int, 1)
	go func() {
		code <- run([]string{
			"-addr", "127.0.0.1:0",
			"-local", "2",
			"-models", "toy",
			"-seed", "7",
			"-slo-p99", "30",
		}, &stdout, &stderr, ready)
	}()
	var g *serve.Gateway
	select {
	case g = <-ready:
	case c := <-code:
		t.Fatalf("picoserve exited %d before ready: %s%s", c, stdout.String(), stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatal("picoserve never became ready")
	}
	base := "http://" + g.Addr()

	m, err := nn.ByName("toy")
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomInput(m.Input, 3)
	b := wire.EncodeTensor(in)
	payload := append([]byte(nil), b...)
	wire.PutBuffer(b)
	const requests = 6
	for i := 0; i < requests; i++ {
		resp, err := http.Post(base+"/infer?model=toy", "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatalf("infer %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("infer %d: status %d", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d err %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q, want text/plain", ct)
	}
	text := string(body)
	for _, want := range []string{
		`kind="e2e"`, `kind="request"`, `kind="stage"`, `kind="exec"`,
		`quantile="0.99"`, `model="toy/pico"`,
		"pico_latency_seconds",
		`pico_gateway_requests_total{outcome="completed"} ` + "6",
		"pico_gateway_queued 0",
		"pico_gateway_slo_breaches_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("picoserve exited %d: %s%s", c, stdout.String(), stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("picoserve never exited after drain")
	}
}

// TestPicoserveFlagValidation pins the CLI error surface.
func TestPicoserveFlagValidation(t *testing.T) {
	// The gateway's fixed settings are constants, not flags: naming one is a
	// usage error, never silently accepted. The rest of such a command line
	// would fail to listen (exit 1), so an accepted flag cannot pass.
	removed := func(flag, value string) []string {
		return []string{"-local", "1", "-addr", "no-port", flag, value}
	}
	cases := []struct {
		name string
		args []string
	}{
		{"no workers", []string{"-models", "toy"}},
		{"both local and workers", []string{"-local", "2", "-workers", "127.0.0.1:9101"}},
		{"unknown model", []string{"-local", "2", "-models", "alexnet9000"}},
		{"bad speed", []string{"-workers", "a,b", "-speeds", "fast,slow"}},
		{"NaN speed", []string{"-addr", "no-port", "-workers", "a,b", "-speeds", "NaN,1e9"}},
		{"infinite speed", []string{"-addr", "no-port", "-workers", "a,b", "-speeds", "1e9,+Inf"}},
		{"speed count mismatch", []string{"-workers", "a,b", "-speeds", "1e9"}},
		{"removed -batch-window", removed("-batch-window", "0")},
		{"removed -max-batch", removed("-max-batch", "4")},
		{"removed -beta", removed("-beta", "1")},
		{"removed -estimator-window", removed("-estimator-window", "1")},
		{"removed -slo-interval", removed("-slo-interval", "1s")},
		{"removed -telemetry-window", removed("-telemetry-window", "1m")},
	}
	for _, tc := range cases {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr, nil); code != 2 {
			t.Errorf("%s: exit %d, want 2 (%s)", tc.name, code, stderr.String())
		}
	}
}
