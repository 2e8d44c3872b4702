// Package serve is the production serving gateway ("picoserve"): a
// long-lived HTTP front door that owns pooled runtime pipelines and serves
// inference as a service, absorbing sustained multi-client traffic where
// picorun runs one batch and exits.
//
// A request travels admission → session pool → micro-batcher → pipeline,
// and its result comes back on the request's own slot:
//
//	POST /infer ─► admission controller: a bounded intake queue that sheds
//	               load (429 + Retry-After) when queueing.Admission — the
//	               M/D/1 wait of §IV-C evaluated at the live EWMA arrival
//	               estimate — predicts a latency-bound breach
//	            ─► session pool: pipelines keyed by (model, plan, quant),
//	               opened lazily, retired when down devices make the plan
//	               unservable (the PR 5 fault machinery handles everything
//	               short of that: deadlines, retries, redials, re-balance);
//	               a plan=apico session holds the PICO and the fused plan
//	               and swaps its pipeline between them on the same estimate
//	            ─► micro-batcher: coalesces queued requests into pipeline
//	               submission bursts within a fixed 2 ms window
//	            ─► pipeline: Pipeline.SubmitTo carries the request's own
//	               one-result channel, and the pipeline answers there
//
// GET /healthz exposes each session's runtime.Health snapshot, GET /stats
// the gateway counters, GET /metrics latency percentiles over a fixed 60 s
// window. Shutdown drains gracefully: stop admitting, wait for in-flight
// requests, flush and close every pipeline.
//
// A gateway is configured by its deployment (cluster, worker addresses,
// models, seed) and the operator's service-level policy (intake bound,
// latency bound, SLO bounds). Everything else — the estimator's β and
// window, the batch window and cap, the telemetry window, the SLO watcher's
// period and cooldown — is a constant.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pico/internal/cluster"
	"pico/internal/nn"
	"pico/internal/queueing"
	"pico/internal/runtime"
	"pico/internal/telemetry"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// The serving constants: the EWMA arrival estimator's β and measurement
// window (Eq. 15; the framework's APICO defaults), and how long and up to
// how many requests the micro-batcher coalesces into one submission burst.
const (
	estimatorBeta          = 0.5
	estimatorWindowSeconds = 10
	batchWindow            = 2 * time.Millisecond
	maxBatch               = 16
)

// Config assembles a Gateway.
type Config struct {
	// Cluster profiles the devices behind Addrs; the planner prices every
	// session's plan against it.
	Cluster *cluster.Cluster
	// Addrs maps cluster device index to worker address.
	Addrs map[int]string
	// Models are the servable models by request name.
	Models map[string]*nn.Model
	// Seed is the shared weight seed (default 1).
	Seed int64

	// MaxQueue bounds the intake queue — requests admitted but not yet
	// answered — across the gateway (default 64).
	MaxQueue int
	// LatencyBound is the admission controller's ceiling on the predicted
	// wait, in seconds (default 30).
	LatencyBound float64
	// SLOP99Bound, when > 0, arms the SLO watcher's latency check: a
	// session whose windowed end-to-end p99 exceeds it (seconds) triggers a
	// measured re-balance of that session's pipeline.
	SLOP99Bound float64
	// SLOSkewFactor, when > 1, arms the watcher's skew check: a stage whose
	// slowest device's exec p99 exceeds its fastest's by more than this
	// factor triggers the same re-balance.
	SLOSkewFactor float64
}

// Gateway is the HTTP serving front door.
type Gateway struct {
	cfg  Config
	pool *pool
	srv  *http.Server
	ln   net.Listener

	// estMu serializes the estimator, which is not goroutine-safe.
	estMu   sync.Mutex
	est     *queueing.Estimator
	started time.Time

	draining atomic.Bool
	queued   atomic.Int64

	admitted  atomic.Int64
	shed      atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	// canceled counts admitted requests whose client went away before the
	// result; the ledger invariant is
	// admitted == completed + failed + canceled once the queue drains.
	canceled atomic.Int64

	// telem aggregates latency percentiles across every session's pipeline
	// plus the gateway's own request series; watcher closes the SLO loop.
	telem         *telemetry.Registry
	watcher       *telemetry.Watcher
	sloBreaches   atomic.Int64
	sloRebalanced atomic.Int64
}

// New validates the config, applies defaults and builds the gateway. No
// pipeline opens until the first request for its session key.
func New(cfg Config) (*Gateway, error) {
	if cfg.Cluster == nil || cfg.Cluster.Size() == 0 {
		return nil, errors.New("serve: no cluster")
	}
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("serve: no worker addresses")
	}
	if len(cfg.Models) == 0 {
		return nil, errors.New("serve: no models")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.LatencyBound <= 0 {
		cfg.LatencyBound = 30
	}
	g := &Gateway{
		cfg:     cfg,
		est:     &queueing.Estimator{Beta: estimatorBeta, WindowSeconds: estimatorWindowSeconds},
		started: time.Now(),
		telem:   telemetry.New(telemetry.Options{}),
	}
	g.pool = newPool(&g.cfg, g.telem)
	if cfg.SLOP99Bound > 0 || cfg.SLOSkewFactor > 0 {
		var err error
		g.watcher, err = telemetry.NewWatcher(g.telem, telemetry.Policy{
			P99Bound:   cfg.SLOP99Bound,
			SkewFactor: cfg.SLOSkewFactor,
		}, g.onBreach)
		if err != nil {
			return nil, err
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/infer", g.handleInfer)
	mux.HandleFunc("/healthz", g.handleHealth)
	mux.HandleFunc("/stats", g.handleStats)
	mux.HandleFunc("/metrics", g.handleMetrics)
	g.srv = &http.Server{Handler: mux}
	return g, nil
}

// Telemetry exposes the gateway's latency registry (shared with every
// pooled pipeline), windowed at the registry default of 60 s.
func (g *Gateway) Telemetry() *telemetry.Registry { return g.telem }

// onBreach is the SLO watcher's control action: the breached series' model
// label is a session key string, and that session's pipeline re-balances its
// strips from measured per-device execution times — the same machinery the
// fault path runs when a device dies.
func (g *Gateway) onBreach(b telemetry.Breach) {
	g.sloBreaches.Add(1)
	for _, s := range g.pool.snapshot() {
		if s.key.String() != b.Key.Model {
			continue
		}
		if n := s.pipe.SLORebalance(g.telem.Window()); n > 0 {
			g.sloRebalanced.Add(int64(n))
		}
	}
}

// CheckSLO runs one deterministic SLO watcher evaluation (the same one the
// background tick runs), triggering re-balances for any breaches found, and
// returns them. Nil when no SLO policy is configured.
func (g *Gateway) CheckSLO(now time.Time) []telemetry.Breach {
	if g.watcher == nil {
		return nil
	}
	return g.watcher.Check(now)
}

// Handler exposes the gateway's routes for embedding and tests.
func (g *Gateway) Handler() http.Handler { return g.srv.Handler }

// Listen binds addr (":0" for an ephemeral port) and returns the bound
// address. Call Serve to start handling requests.
func (g *Gateway) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	g.ln = ln
	return ln.Addr().String(), nil
}

// Addr returns the bound listen address, or "" before Listen.
func (g *Gateway) Addr() string {
	if g.ln == nil {
		return ""
	}
	return g.ln.Addr().String()
}

// Serve handles requests on the listener bound by Listen until Shutdown.
// It returns nil after a graceful shutdown.
func (g *Gateway) Serve() error {
	if g.ln == nil {
		return errors.New("serve: Serve before Listen")
	}
	if g.watcher != nil {
		g.watcher.Start()
	}
	if err := g.srv.Serve(g.ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Shutdown drains the gateway: new requests are refused (503), the HTTP
// server stops listening and waits for in-flight handlers — each of which
// is waiting on its task — then every session, retired ones included,
// flushes its queue, drains its pipeline and disconnects its workers. With
// a generous ctx nothing admitted is ever dropped; the drain is bounded even
// under faults because every in-flight tile wait carries an exec deadline.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.draining.Store(true)
	if g.watcher != nil {
		g.watcher.Stop()
	}
	err := g.srv.Shutdown(ctx)
	if cerr := g.pool.close(); err == nil {
		err = cerr
	}
	return err
}

// observeArrival feeds the estimator one arrival and returns the current
// EWMA rate.
func (g *Gateway) observeArrival() float64 {
	g.estMu.Lock()
	defer g.estMu.Unlock()
	g.est.Observe(time.Since(g.started).Seconds())
	return g.est.Rate()
}

// rate returns the EWMA estimate without recording an arrival.
func (g *Gateway) rate() float64 {
	g.estMu.Lock()
	defer g.estMu.Unlock()
	return g.est.Rate()
}

// sessionKey resolves a request's (model, plan, quant) triple. The model
// parameter may be omitted when exactly one model is served. On error the
// returned status is the HTTP code to answer with.
func (g *Gateway) sessionKey(r *http.Request) (SessionKey, int, error) {
	q := r.URL.Query()
	name := q.Get("model")
	if name == "" {
		if len(g.cfg.Models) != 1 {
			return SessionKey{}, http.StatusBadRequest, fmt.Errorf("model parameter required (serving %d models)", len(g.cfg.Models))
		}
		for only := range g.cfg.Models {
			name = only
		}
	}
	if g.cfg.Models[name] == nil {
		return SessionKey{}, http.StatusNotFound, fmt.Errorf("unknown model %q", name)
	}
	plan := q.Get("plan")
	if plan == "" {
		plan = PlanPICO
	}
	if plan != PlanPICO && plan != PlanFused && plan != PlanAPICO {
		return SessionKey{}, http.StatusBadRequest, fmt.Errorf("unknown plan %q (want %s, %s or %s)", plan, PlanPICO, PlanFused, PlanAPICO)
	}
	quant := false
	switch v := q.Get("quant"); v {
	case "", "0", "false":
	case "1", "true":
		quant = true
	default:
		return SessionKey{}, http.StatusBadRequest, fmt.Errorf("bad quant value %q", v)
	}
	return SessionKey{Model: name, Plan: plan, Quant: quant}, http.StatusOK, nil
}

// handleInfer is the inference endpoint: POST a raw little-endian float32
// CHW feature map sized to the model's input shape, receive the output map
// in the same encoding. Responses: 200 with the output, 429 + Retry-After
// when load-shed, 503 while draining or when the session cannot open.
func (g *Gateway) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if g.draining.Load() {
		g.rejected.Add(1)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	key, status, err := g.sessionKey(r)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	sess, err := g.pool.get(key)
	if err != nil {
		g.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}

	// Validate the payload before admission so malformed requests never
	// enter the ledger (admitted must equal completed + failed).
	in := g.cfg.Models[key.Model].Input
	wantBytes := 4 * in.C * in.H * in.W
	input, err := readInput(http.MaxBytesReader(w, r.Body, int64(wantBytes)), in)
	if err != nil {
		http.Error(w, fmt.Sprintf("body must be exactly %d little-endian float32 bytes (CHW %dx%dx%d): %v",
			wantBytes, in.C, in.H, in.W, err), http.StatusBadRequest)
		return
	}

	// Admission: every arrival feeds the EWMA estimator; the session's
	// M/D/1 predicate sheds when the predicted wait breaches the bound or
	// the intake queue is full. The queue slot is reserved *before* the
	// decision — increment first, undo on shed — so N concurrent arrivals
	// each judge a distinct occupancy and the intake queue can never
	// overshoot MaxQueue (deciding on a stale Load let a burst all see the
	// same pre-increment count and all pass).
	rate := g.observeArrival()
	queued := g.queued.Add(1)
	dec := sess.adm.Decide(rate, int(queued-1))
	if !dec.Admit {
		g.queued.Add(-1)
		g.shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(dec.RetryAfter)))
		http.Error(w, fmt.Sprintf("overloaded: predicted wait %.3gs exceeds bound %.3gs (rate %.3g/s)",
			dec.PredictedWait, sess.adm.Bound, rate), http.StatusTooManyRequests)
		return
	}
	g.admitted.Add(1)
	defer g.queued.Add(-1)

	res, err := sess.infer(r.Context().Done(), input, rate)
	if errors.Is(err, errRetired) {
		// Another request's get found the session unservable and closed it
		// after ours got it. Nothing was submitted, so acquire once more.
		if sess, err = g.pool.get(key); err == nil {
			res, err = sess.infer(r.Context().Done(), input, rate)
		}
	}
	if errors.Is(err, errCanceled) {
		// Client went away; nothing useful to write, and not a failure of
		// ours — ledger it separately.
		g.canceled.Add(1)
		return
	}
	if err != nil {
		// Admitted, so it is ledgered as failed whatever went wrong.
		g.failed.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	// The result is back, so stage 0 is long done reading the input (the
	// cancel paths above return while it may still be in flight).
	tensor.Recycle(input)
	if res.Err != nil {
		g.failed.Add(1)
		http.Error(w, "inference: "+res.Err.Error(), http.StatusInternalServerError)
		return
	}
	g.completed.Add(1)
	out := res.Output
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Pico-Shape", fmt.Sprintf("%d,%d,%d", out.C, out.H, out.W))
	w.Header().Set("X-Pico-Task", strconv.FormatInt(res.ID, 10))
	w.Header().Set("X-Pico-Latency", res.Done.Sub(res.Submitted).String())
	payload := wire.EncodeTensor(out)
	_, _ = w.Write(payload)
	wire.PutBuffer(payload)
}

// readInput reads a request body that must be exactly one float32 tensor of
// shape in into a pooled buffer of that size — io.ReadAll's doubling growth
// would allocate several times the body — probes one more byte so an
// over-long body is still an error, and decodes the bytes into an
// arena-backed tensor.
func readInput(body io.Reader, in nn.Shape) (tensor.Tensor, error) {
	buf := wire.GetBuffer(4 * in.Elems())
	defer wire.PutBuffer(buf)
	if _, err := io.ReadFull(body, buf); err != nil {
		return tensor.Tensor{}, err
	}
	var probe [1]byte
	if n, err := io.ReadFull(body, probe[:]); n != 0 || err != io.EOF {
		return tensor.Tensor{}, errors.New("body too long")
	}
	return wire.DecodeTensor(in.C, in.H, in.W, buf)
}

// retryAfterSeconds rounds a back-off up to whole seconds for the
// Retry-After header (minimum 1).
func retryAfterSeconds(s float64) int {
	if math.IsNaN(s) || s < 1 {
		return 1
	}
	return int(math.Ceil(s))
}

// LivePlan describes the plan a session's pipeline is running now — for an
// apico session the scheme it last swapped to, not the one it opened on.
type LivePlan struct {
	// Plan is the live plan's kind: pico or fused.
	Plan          string  `json:"live_plan"`
	Stages        int     `json:"stages"`
	PeriodSeconds float64 `json:"period_seconds"`
	// Swaps counts the plan swaps the session has made.
	Swaps int64 `json:"swaps"`
}

// livePlan reads the session's live plan off its pipeline.
func (s *session) livePlan() LivePlan {
	c, i := s.live()
	return LivePlan{Plan: c.Name, Stages: len(s.plans[i].Stages), PeriodSeconds: c.Period, Swaps: s.swaps.Load()}
}

// SessionHealth is one pooled session's slice of the /healthz payload.
type SessionHealth struct {
	Key SessionKey `json:"key"`
	LivePlan
	Tasks  int64          `json:"tasks"`
	Health runtime.Health `json:"health"`
}

// handleHealth reports gateway liveness plus every session's pipeline
// health snapshot. 200 when serving and every session servable; 503 while
// draining or degraded past servability.
func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	sessions := g.pool.snapshot()
	resp := struct {
		Status   string          `json:"status"`
		Sessions []SessionHealth `json:"sessions"`
	}{Status: "ok", Sessions: make([]SessionHealth, 0, len(sessions))}
	status := http.StatusOK
	for _, s := range sessions {
		h := s.pipe.Health()
		if !h.Servable {
			resp.Status = "degraded"
			status = http.StatusServiceUnavailable
		}
		resp.Sessions = append(resp.Sessions, SessionHealth{Key: s.key, LivePlan: s.livePlan(), Tasks: s.tasks.Load(), Health: h})
	}
	if g.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// Stats is the /stats payload.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	RateEstimate  float64 `json:"rate_estimate"`
	Queued        int64   `json:"queued"`
	Admitted      int64   `json:"admitted"`
	Shed          int64   `json:"shed"`
	Rejected      int64   `json:"rejected"`
	Completed     int64   `json:"completed"`
	Failed        int64   `json:"failed"`
	// Canceled counts admitted requests abandoned by their client before
	// the result; admitted == completed + failed + canceled once drained.
	Canceled int64 `json:"canceled"`
	// SLOBreaches and SLORebalanced count watcher detections and the stage
	// re-splits they triggered.
	SLOBreaches   int64          `json:"slo_breaches"`
	SLORebalanced int64          `json:"slo_rebalanced"`
	Sessions      []SessionStats `json:"sessions"`
}

// SessionStats summarizes one session's live plan and batching behaviour.
type SessionStats struct {
	Key SessionKey `json:"key"`
	LivePlan
	Tasks        int64   `json:"tasks"`
	Batches      int64   `json:"batches"`
	BatchedTasks int64   `json:"batched_tasks"`
	MeanBatch    float64 `json:"mean_batch"`
}

// GatewayStats snapshots the gateway counters (also serialized by /stats).
func (g *Gateway) GatewayStats() Stats {
	st := Stats{
		UptimeSeconds: time.Since(g.started).Seconds(),
		RateEstimate:  g.rate(),
		Queued:        g.queued.Load(),
		Admitted:      g.admitted.Load(),
		Shed:          g.shed.Load(),
		Rejected:      g.rejected.Load(),
		Completed:     g.completed.Load(),
		Failed:        g.failed.Load(),
		Canceled:      g.canceled.Load(),
		SLOBreaches:   g.sloBreaches.Load(),
		SLORebalanced: g.sloRebalanced.Load(),
	}
	for _, s := range g.pool.snapshot() {
		ss := SessionStats{
			Key:          s.key,
			LivePlan:     s.livePlan(),
			Tasks:        s.tasks.Load(),
			Batches:      s.batches.Load(),
			BatchedTasks: s.batched.Load(),
		}
		if ss.Batches > 0 {
			ss.MeanBatch = float64(ss.BatchedTasks) / float64(ss.Batches)
		}
		st.Sessions = append(st.Sessions, ss)
	}
	return st
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.GatewayStats())
}

// handleMetrics is GET /metrics: the latency percentile series of every
// pooled pipeline plus the gateway's own request series and counters, in
// plaintext exposition format. Quantiles are computed on scrape by
// quickselect over each series' sliding window.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := g.telem.WriteMetrics(w); err != nil {
		return
	}
	st := g.GatewayStats()
	fmt.Fprintf(w, "# TYPE pico_gateway_requests_total counter\n")
	for _, c := range [...]struct {
		outcome string
		n       int64
	}{
		{"admitted", st.Admitted}, {"shed", st.Shed}, {"rejected", st.Rejected},
		{"completed", st.Completed}, {"failed", st.Failed}, {"canceled", st.Canceled},
	} {
		fmt.Fprintf(w, "pico_gateway_requests_total{outcome=%q} %d\n", c.outcome, c.n)
	}
	fmt.Fprintf(w, "# TYPE pico_gateway_queued gauge\n")
	fmt.Fprintf(w, "pico_gateway_queued %d\n", st.Queued)
	fmt.Fprintf(w, "# TYPE pico_gateway_rate_estimate gauge\n")
	fmt.Fprintf(w, "pico_gateway_rate_estimate %g\n", st.RateEstimate)
	fmt.Fprintf(w, "# TYPE pico_gateway_slo_breaches_total counter\n")
	fmt.Fprintf(w, "pico_gateway_slo_breaches_total %d\n", st.SLOBreaches)
	fmt.Fprintf(w, "# TYPE pico_gateway_slo_rebalanced_total counter\n")
	fmt.Fprintf(w, "pico_gateway_slo_rebalanced_total %d\n", st.SLORebalanced)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
