package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"pico/internal/cluster"
	"pico/internal/nn"
	"pico/internal/runtime"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// fixture is one gateway over an in-process loopback worker cluster.
type fixture struct {
	g     *Gateway
	base  string // http://host:port
	model *nn.Model
	// serveErr receives Serve's return; nil when the gateway is served
	// through Handler() instead.
	serveErr chan error
}

// startGateway boots n loopback workers, profiles them as a homogeneous
// cluster at profileHz, and serves one toy model through a gateway on an
// ephemeral port. mut tweaks the Config before New.
func startGateway(t *testing.T, n int, profileHz float64, workerOpts []runtime.WorkerOption, mut func(*Config)) *fixture {
	t.Helper()
	return newGateway(t, localCluster(t, n, nil, workerOpts...), profileHz, mut).serve(t)
}

// startGatewaySpeeds is startGateway with per-worker emulated speeds, for
// tests that need a straggler the planner's homogeneous profile cannot see.
func startGatewaySpeeds(t *testing.T, profileHz float64, speeds []float64, mut func(*Config)) *fixture {
	t.Helper()
	return newGateway(t, localCluster(t, len(speeds), speeds), profileHz, mut).serve(t)
}

// localCluster boots n loopback workers, closed at test cleanup.
func localCluster(t *testing.T, n int, speeds []float64, workerOpts ...runtime.WorkerOption) *runtime.LocalCluster {
	t.Helper()
	lc, err := runtime.StartLocalCluster(n, speeds, workerOpts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := lc.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	})
	return lc
}

// newGateway builds, without serving it, a gateway over lc's workers
// profiled as a homogeneous cluster at profileHz, serving one toy model.
// Test cleanup shuts it down before the cluster closes.
func newGateway(t *testing.T, lc *runtime.LocalCluster, profileHz float64, mut func(*Config)) *fixture {
	t.Helper()
	m := nn.ToyChain("srv", 6, 2, 6, 32)
	cfg := Config{
		Cluster: cluster.Homogeneous(len(lc.Addrs), profileHz),
		Addrs:   lc.Addrs,
		Models:  map[string]*nn.Model{"toy": m},
		Seed:    99,
	}
	if mut != nil {
		mut(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{g: g, model: m}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := g.Shutdown(ctx); err != nil {
			t.Errorf("gateway shutdown: %v", err)
		}
		if f.serveErr == nil {
			return
		}
		if err := <-f.serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return f
}

// serve starts f's gateway on an ephemeral port.
func (f *fixture) serve(t *testing.T) *fixture {
	t.Helper()
	addr, err := f.g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.base, f.serveErr = "http://"+addr, make(chan error, 1)
	go func() { f.serveErr <- f.g.Serve() }()
	return f
}

// setEstimator gives the gateway's arrival estimator a test's β and
// measurement window in place of the production constants. Call it before
// the first request.
func (f *fixture) setEstimator(beta, windowSeconds float64) {
	f.g.estMu.Lock()
	f.g.est.Beta, f.g.est.WindowSeconds = beta, windowSeconds
	f.g.estMu.Unlock()
}

// post fires one inference request and returns status, body and headers.
func (f *fixture) post(t *testing.T, query string, payload []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(f.base+"/infer"+query, "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST /infer%s: %v", query, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, body, resp.Header
}

// encode returns a detached (unpooled) little-endian encoding of t.
func encode(t tensor.Tensor) []byte {
	buf := wire.EncodeTensor(t)
	out := append([]byte(nil), buf...)
	wire.PutBuffer(buf)
	return out
}

// TestGatewayInferMatchesLocalRun is the loopback end-to-end contract: 32
// concurrent HTTP clients with distinct inputs each get back bytes identical
// to a local whole-model Run with the same seed.
func TestGatewayInferMatchesLocalRun(t *testing.T) {
	// Profile the cluster fast so the toy plan's period leaves the M/D/1
	// admission far from its stability bound under a 32-request burst.
	f := startGateway(t, 3, 600e6, nil, func(c *Config) {
		c.MaxQueue = 128
		c.LatencyBound = 300
	})

	ref, err := tensor.NewExecutor(f.model, 99)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 32
	inputs := make([][]byte, clients)
	wants := make([][]byte, clients)
	for i := range inputs {
		in := tensor.RandomInput(f.model.Input, int64(i))
		inputs[i] = encode(in)
		out, err := ref.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = encode(out)
	}

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, hdr := f.post(t, "?model=toy&plan=pico", inputs[i])
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, body)
				return
			}
			if !bytes.Equal(body, wants[i]) {
				t.Errorf("client %d: response bytes differ from local Run", i)
			}
			if shape := hdr.Get("X-Pico-Shape"); shape == "" {
				t.Errorf("client %d: missing X-Pico-Shape header", i)
			}
			if hdr.Get("X-Pico-Task") == "" || hdr.Get("X-Pico-Latency") == "" {
				t.Errorf("client %d: missing task/latency headers", i)
			}
		}(i)
	}
	wg.Wait()

	st := f.g.GatewayStats()
	if st.Admitted != clients || st.Completed != clients || st.Failed != 0 || st.Shed != 0 {
		t.Fatalf("stats admitted=%d completed=%d failed=%d shed=%d, want %d/%d/0/0",
			st.Admitted, st.Completed, st.Failed, st.Shed, clients, clients)
	}
	if len(st.Sessions) != 1 || st.Sessions[0].Tasks != clients {
		t.Fatalf("session stats %+v, want one session with %d tasks", st.Sessions, clients)
	}
	// The burst should have coalesced: fewer submission bursts than tasks.
	if st.Sessions[0].Batches >= clients {
		t.Errorf("micro-batcher never coalesced: %d batches for %d tasks", st.Sessions[0].Batches, clients)
	}
}

// TestGatewayInferQuantMatchesLocalRunQ is the int8 flavour of the
// end-to-end contract: quant=1 responses match a local RunQ (dequantized)
// byte for byte, and the quant session pools separately from the float one.
func TestGatewayInferQuantMatchesLocalRunQ(t *testing.T) {
	f := startGateway(t, 3, 600e6, nil, func(c *Config) {
		c.MaxQueue = 128
		c.LatencyBound = 300
	})

	ref, err := tensor.NewExecutor(f.model, 99, tensor.WithQuantized())
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		in := tensor.RandomInput(f.model.Input, int64(100+i))
		wantQ, err := ref.RunQ(in)
		if err != nil {
			t.Fatal(err)
		}
		want := encode(wantQ.Dequantize())
		payload := encode(in)
		wg.Add(1)
		go func(i int, payload, want []byte) {
			defer wg.Done()
			status, body, _ := f.post(t, "?model=toy&quant=1", payload)
			if status != http.StatusOK {
				t.Errorf("client %d: status %d: %s", i, status, body)
				return
			}
			if !bytes.Equal(body, want) {
				t.Errorf("client %d: quant response differs from local RunQ", i)
			}
		}(i, payload, want)
	}
	wg.Wait()

	// A float request on the same model must open a second session.
	in := tensor.RandomInput(f.model.Input, 7)
	if status, body, _ := f.post(t, "?model=toy", encode(in)); status != http.StatusOK {
		t.Fatalf("float request after quant: status %d: %s", status, body)
	}
	if st := f.g.GatewayStats(); len(st.Sessions) != 2 {
		t.Fatalf("want 2 pooled sessions (int8 + float), got %d", len(st.Sessions))
	}
}

// TestGatewayOverloadShedsAndDrainsClean drives arrivals past what the
// emulated cluster can absorb: the admission controller must answer 429
// with a Retry-After for the excess, every admitted request must still
// complete byte-correct, and a mid-burst graceful shutdown must drain
// without dropping anything in flight.
func TestGatewayOverloadShedsAndDrainsClean(t *testing.T) {
	const emulatedHz = 2e7 // slow devices: plan period in the tens of ms
	f := startGateway(t, 3, emulatedHz,
		[]runtime.WorkerOption{runtime.WithEmulatedSpeed(emulatedHz)},
		func(c *Config) {
			c.MaxQueue = 4
			c.LatencyBound = 0.5
		})
	// One EWMA window per 50ms with full weight on the freshest
	// measurement: the burst's arrival rate registers immediately and
	// pushes the M/D/1 predicate past its stability bound.
	f.setEstimator(1, 0.05)

	ref, err := tensor.NewExecutor(f.model, 99)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomInput(f.model.Input, 5)
	payload := encode(in)
	refOut, err := ref.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	want := encode(refOut)

	// Warm the session up (plan + dial) before the burst so the overload
	// behaviour, not the open latency, is what the burst measures.
	if status, body, _ := f.post(t, "", payload); status != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", status, body)
	}

	var (
		mu       sync.Mutex
		statuses = map[int]int{}
	)
	burst := func(clients int) {
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := http.Post(f.base+"/infer", "application/octet-stream", bytes.NewReader(payload))
				if err != nil {
					// The drain closes connections under the second burst;
					// a request that raced onto one never reached a
					// handler, so it cannot have been admitted.
					mu.Lock()
					statuses[-1]++
					mu.Unlock()
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("client %d: read body: %v", i, err)
					return
				}
				mu.Lock()
				statuses[resp.StatusCode]++
				mu.Unlock()
				switch resp.StatusCode {
				case http.StatusOK:
					if !bytes.Equal(body, want) {
						t.Errorf("client %d: admitted response differs from local Run", i)
					}
				case http.StatusTooManyRequests:
					ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
					if err != nil || ra < 1 {
						t.Errorf("client %d: 429 Retry-After %q, want integer >= 1", i, resp.Header.Get("Retry-After"))
					}
				case http.StatusServiceUnavailable:
					// Raced the drain; fine.
				default:
					t.Errorf("client %d: unexpected status %d: %s", i, resp.StatusCode, body)
				}
			}(i)
		}
		wg.Wait()
	}

	// Phase 1: a full burst with the gateway serving throughout. At most
	// MaxQueue requests can be in the intake queue while each admitted task
	// takes tens of emulated milliseconds, so a 64-wide burst must shed.
	burst(64)
	if statuses[http.StatusTooManyRequests] == 0 {
		t.Fatalf("no load shedding under a 64-request burst: %v", statuses)
	}

	// Phase 2: drain gracefully under a second burst. A few quiet windows
	// first let the EWMA decay (Beta=1: one zero-count window resets it)
	// so the burst's head is admitted again; then wait until at least one
	// request is past admission so the drain genuinely overlaps in-flight
	// work.
	time.Sleep(200 * time.Millisecond)
	preAdmitted := f.g.GatewayStats().Admitted
	secondBurst := make(chan struct{})
	go func() { defer close(secondBurst); burst(32) }()
	for deadline := time.Now().Add(30 * time.Second); f.g.GatewayStats().Admitted == preAdmitted; {
		if time.Now().After(deadline) {
			t.Fatal("second burst never got a request admitted")
		}
		time.Sleep(time.Millisecond)
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		drained <- f.g.Shutdown(ctx)
	}()
	<-secondBurst
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-f.serveErr; err != nil {
		t.Fatalf("serve returned %v after graceful shutdown, want nil", err)
	}
	f.serveErr <- nil // keep the fixture cleanup happy
	st := f.g.GatewayStats()
	// Zero dropped in-flight work: everything admitted completed, nothing
	// failed, and the ledger adds up against the HTTP statuses.
	if st.Failed != 0 {
		t.Fatalf("%d admitted tasks failed during drain", st.Failed)
	}
	if st.Admitted != st.Completed {
		t.Fatalf("admitted %d != completed %d: in-flight tasks dropped", st.Admitted, st.Completed)
	}
	// >= rather than ==: a response whose handler finished can still be
	// lost to a connection the drain is tearing down client-side.
	if got := int64(statuses[http.StatusOK] + 1); st.Completed < got {
		t.Fatalf("completed %d < %d successful responses", st.Completed, got)
	}
	if got := int64(statuses[http.StatusTooManyRequests]); st.Shed < got {
		t.Fatalf("shed %d < %d 429 responses", st.Shed, got)
	}
}

// TestGatewayHealthAndStatsEndpoints exercises the operational surface:
// healthy JSON before, "draining" 503 after Shutdown begins.
func TestGatewayHealthAndStatsEndpoints(t *testing.T) {
	f := startGateway(t, 2, 600e6, nil, nil)
	in := tensor.RandomInput(f.model.Input, 1)
	if status, body, _ := f.post(t, "", encode(in)); status != http.StatusOK {
		t.Fatalf("infer: status %d: %s", status, body)
	}

	resp, err := http.Get(f.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		Sessions []struct {
			Key    SessionKey `json:"key"`
			Stages int        `json:"stages"`
			Health struct {
				Servable bool `json:"servable"`
			} `json:"health"`
		} `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz %d %q, want 200 ok", resp.StatusCode, health.Status)
	}
	if len(health.Sessions) != 1 || !health.Sessions[0].Health.Servable || health.Sessions[0].Stages < 1 {
		t.Fatalf("healthz sessions %+v", health.Sessions)
	}
	if key := health.Sessions[0].Key; key.Model != "toy" || key.Plan != PlanPICO {
		t.Fatalf("healthz session key %+v", key)
	}

	resp, err = http.Get(f.base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Admitted < 1 || st.Completed < 1 || st.UptimeSeconds <= 0 {
		t.Fatalf("stats %+v", st)
	}

	// After Shutdown the handler must report draining; poke it directly
	// since the listener is closed.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.g.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-f.serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	f.serveErr <- nil
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	f.g.srv.Handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	f.g.srv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(nil)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("infer while draining: %d, want 503", rec.Code)
	}
}

// TestGatewayRejectsMalformedRequests pins the error surface: wrong method,
// unknown model/plan, bad quant flag, wrong payload size.
func TestGatewayRejectsMalformedRequests(t *testing.T) {
	f := startGateway(t, 2, 600e6, nil, nil)
	in := f.model.Input
	good := make([]byte, 4*in.Elems())

	resp, err := http.Get(f.base + "/infer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /infer: %d, want 405", resp.StatusCode)
	}

	cases := []struct {
		name    string
		query   string
		payload []byte
		want    int
	}{
		{"unknown model", "?model=nope", good, http.StatusNotFound},
		{"unknown plan", "?plan=zigzag", good, http.StatusBadRequest},
		{"bad quant", "?quant=maybe", good, http.StatusBadRequest},
		{"short body", "", good[:8], http.StatusBadRequest},
		{"empty body", "", nil, http.StatusBadRequest},
		{"long body", "", append(append([]byte(nil), good...), 0, 0, 0, 0), http.StatusBadRequest},
		{"one byte over", "", append(append([]byte(nil), good...), 0), http.StatusBadRequest},
		{"double body", "", append(append([]byte(nil), good...), good...), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if status, body, _ := f.post(t, tc.query, tc.payload); status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.want, body)
		}
	}
	if st := f.g.GatewayStats(); st.Failed != 0 || st.Completed != 0 {
		t.Fatalf("malformed requests moved completion counters: %+v", st)
	}
}

// TestGatewayReacquiresRetiredSession retires the session an admitted
// request already holds — what another request's get does when it finds the
// session unservable — while the handler reads the body, between its pool
// get and its submission. Nothing was submitted, so the request must take
// the pool's fresh session and answer 200, and the ledger must balance with
// nothing rejected.
func TestGatewayReacquiresRetiredSession(t *testing.T) {
	f := startGateway(t, 2, 600e6, nil, nil)
	in := encode(tensor.RandomInput(f.model.Input, 5))
	if status, body, _ := f.post(t, "?model=toy&plan=pico", in); status != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", status, body)
	}
	key := SessionKey{Model: "toy", Plan: PlanPICO}
	body, feed := io.Pipe()
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.g.srv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer?model=toy&plan=pico", body))
	}()
	// The handler reads the body only after its pool get, so once it has
	// taken the first byte it holds the live session.
	if _, err := feed.Write(in[:1]); err != nil {
		t.Fatal(err)
	}
	p := f.g.pool
	p.mu.Lock()
	e := p.entries[key]
	delete(p.entries, key)
	p.mu.Unlock()
	if e == nil || e.err != nil {
		t.Fatalf("no live session for %v", key)
	}
	if err := e.s.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := feed.Write(in[1:]); err != nil {
		t.Fatal(err)
	}
	feed.Close()
	<-done
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	st := f.g.GatewayStats()
	if st.Admitted != 2 || st.Completed != 2 || st.Failed+st.Canceled+st.Rejected != 0 {
		t.Fatalf("ledger %+v: want 2 admitted, 2 completed, nothing failed, canceled or rejected", st)
	}
}
