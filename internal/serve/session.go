package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pico/internal/core"
	"pico/internal/queueing"
	"pico/internal/runtime"
	"pico/internal/telemetry"
	"pico/internal/tensor"
)

// Plan kinds a session can execute.
const (
	// PlanPICO is the paper's pipelined cooperation plan (Algorithms 1+2).
	PlanPICO = "pico"
	// PlanFused is the one-stage fused plan over the whole cluster —
	// APICO's low-load arm, served here as an explicit choice.
	PlanFused = "fused"
)

// SessionKey identifies one pooled pipeline: a model served under a plan
// kind in a precision.
type SessionKey struct {
	Model string `json:"model"`
	Plan  string `json:"plan"`
	Quant bool   `json:"quant"`
}

func (k SessionKey) String() string {
	s := k.Model + "/" + k.Plan
	if k.Quant {
		s += "/int8"
	}
	return s
}

// errRetired marks a session that stopped accepting work (retired by the
// pool or drained by Shutdown); the caller should re-acquire from the pool.
var errRetired = errors.New("serve: session retired")

// errCanceled marks a request abandoned by its client (context done) before
// the result came back — counted as canceled in the gateway ledger, not as
// a failure.
var errCanceled = errors.New("serve: request canceled by client")

// waiter is one admitted request parked until its task's result returns.
type waiter struct {
	input tensor.Tensor
	enq   time.Time
	// ch receives exactly one result; buffered so the demux never blocks
	// on an abandoned request.
	ch chan runtime.TaskResult
}

// session owns one live pipeline plus the machinery that turns individual
// HTTP requests into pipeline tasks: a micro-batcher that coalesces queued
// requests into submission bursts, and a demux that routes
// Pipeline.Results() back to the per-request waiters in submission order.
type session struct {
	key    SessionKey
	plan   *core.Plan
	pipe   *runtime.Pipeline
	period float64
	adm    queueing.Admission

	// in feeds the batcher. Guarded by inMu/closed so a retire can never
	// race a handler into a send on a closed channel.
	in     chan *waiter
	inMu   sync.RWMutex
	closed bool

	window   time.Duration
	maxBatch int

	// pending holds the submitted waiters in submission order. The batcher
	// is the pipeline's only submitter and Results() delivers in submission
	// order, failed flights included, so the demux pops one waiter per
	// result. Capacity MaxQueue, the most live requests admission lets in;
	// cancelled waiters still in flight can fill it, and then the batcher
	// waits for the demux to pop one.
	pending chan *waiter

	batchWG sync.WaitGroup
	demuxWG sync.WaitGroup

	closeOnce sync.Once
	closeErr  error

	// Counters for /stats.
	tasks   atomic.Int64
	batches atomic.Int64
	batched atomic.Int64

	// reqProd records whole-request latency (enqueue through result, so
	// batch-window wait included) into the gateway's telemetry registry;
	// nil without telemetry.
	reqProd *telemetry.Producer
}

// openSession plans (or re-plans) the key's scheme and connects its
// pipeline. Weights derive from the shared seed on the workers, so opening
// is a control-plane operation: only geometry crosses the network.
func openSession(cfg *Config, key SessionKey) (*session, error) {
	m := cfg.Models[key.Model]
	if m == nil {
		return nil, fmt.Errorf("serve: unknown model %q", key.Model)
	}
	var plan *core.Plan
	var err error
	switch key.Plan {
	case PlanPICO:
		plan, err = core.PlanPipeline(m, cfg.Cluster, core.Options{Quantized: key.Quant})
	case PlanFused:
		plan, err = core.OneStagePlan(m, cfg.Cluster)
		if err == nil {
			// The one-stage planner has no quant pricing knob (a single
			// stage has no internal boundaries to price); record the mode
			// so the plan describes what actually executes.
			plan.Quantized = key.Quant
		}
	default:
		return nil, fmt.Errorf("serve: unknown plan kind %q", key.Plan)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: plan %s: %w", key, err)
	}
	opts := cfg.Pipeline
	opts.Seed = cfg.Seed
	opts.Quantized = key.Quant
	// Label the session's series by its key so concurrent model/plan/quant
	// variants stay distinguishable in one registry.
	opts.TelemetryLabel = key.String()
	pipe, err := runtime.NewPipeline(plan, cfg.Addrs, opts)
	if err != nil {
		return nil, fmt.Errorf("serve: open %s: %w", key, err)
	}
	s := &session{
		key:      key,
		plan:     plan,
		pipe:     pipe,
		period:   plan.PeriodSeconds,
		adm:      queueing.Admission{Period: plan.PeriodSeconds, Bound: cfg.LatencyBound, MaxQueue: cfg.MaxQueue},
		in:       make(chan *waiter, cfg.MaxQueue),
		window:   cfg.BatchWindow,
		maxBatch: cfg.MaxBatch,
		pending:  make(chan *waiter, cfg.MaxQueue),
	}
	if opts.Telemetry != nil {
		s.reqProd = opts.Telemetry.Series(telemetry.Key{
			Model: key.String(), Stage: -1, Device: -1, Kind: telemetry.KindRequest,
		}).Producer()
	}
	s.batchWG.Add(1)
	go s.batchLoop()
	s.demuxWG.Add(1)
	go s.demuxLoop()
	return s, nil
}

// servable reports whether the plan can still execute on the live devices.
func (s *session) servable() bool { return s.pipe.Servable() }

// infer runs one request through the batcher and waits for its result. A
// cancelled ctx abandons the wait — the eventual result is delivered into
// the waiter's buffered channel and dropped, never blocking the demux.
func (s *session) infer(done <-chan struct{}, input tensor.Tensor) (runtime.TaskResult, error) {
	w := &waiter{input: input, enq: time.Now(), ch: make(chan runtime.TaskResult, 1)}
	s.inMu.RLock()
	if s.closed {
		s.inMu.RUnlock()
		return runtime.TaskResult{}, errRetired
	}
	select {
	case s.in <- w:
		s.inMu.RUnlock()
	case <-done:
		s.inMu.RUnlock()
		return runtime.TaskResult{}, fmt.Errorf("%w before submission", errCanceled)
	}
	select {
	case res := <-w.ch:
		s.tasks.Add(1)
		if s.reqProd != nil && res.Err == nil {
			now := time.Now()
			s.reqProd.RecordAt(now, now.Sub(w.enq).Seconds())
		}
		return res, nil
	case <-done:
		return runtime.TaskResult{}, fmt.Errorf("%w in flight", errCanceled)
	}
}

// batchLoop coalesces queued waiters into pipeline submission bursts: it
// waits up to window for up to maxBatch requests to accumulate, then submits
// them back-to-back so the stage drivers stay full (their dispatch windows
// overlap transport with compute across the whole burst).
func (s *session) batchLoop() {
	defer s.batchWG.Done()
	for {
		first, ok := <-s.in
		if !ok {
			return
		}
		batch := append(make([]*waiter, 0, s.maxBatch), first)
		if s.window > 0 && s.maxBatch > 1 {
			timer := time.NewTimer(s.window)
		collect:
			for len(batch) < s.maxBatch {
				select {
				case w, ok := <-s.in:
					if !ok {
						break collect
					}
					batch = append(batch, w)
				case <-timer.C:
					break collect
				}
			}
			timer.Stop()
		}
		s.flush(batch)
	}
}

// flush submits one burst. Submit failures (pipeline closed under us) fail
// the waiter directly; successes queue for demux delivery.
func (s *session) flush(batch []*waiter) {
	s.batches.Add(1)
	s.batched.Add(int64(len(batch)))
	for _, w := range batch {
		if _, err := s.pipe.Submit(w.input); err != nil {
			w.ch <- runtime.TaskResult{Err: err, Submitted: w.enq, Done: time.Now()}
			continue
		}
		s.pending <- w
	}
}

// demuxLoop hands each completed task to the oldest pending waiter until the
// pipeline's result stream closes. A result that beats its waiter onto
// pending (Submit has returned, the push has not happened yet) waits for it.
func (s *session) demuxLoop() {
	defer s.demuxWG.Done()
	for res := range s.pipe.Results() {
		w := <-s.pending
		w.ch <- res
	}
}

// close drains the session: no new waiters, the batcher flushes what is
// queued, the pipeline drains its in-flight tasks, and the demux delivers
// every last result. Idempotent; concurrent infer calls get errRetired.
func (s *session) close() error {
	s.closeOnce.Do(func() {
		s.inMu.Lock()
		s.closed = true
		s.inMu.Unlock()
		close(s.in)
		s.batchWG.Wait()
		s.closeErr = s.pipe.Close()
		s.demuxWG.Wait()
	})
	return s.closeErr
}

// pool is the session registry: pipelines keyed by (model, plan, quant),
// opened lazily on first use and retired when their plan becomes
// unservable (a whole stage down) so the next request redials fresh.
type pool struct {
	cfg *Config

	mu      sync.Mutex
	entries map[SessionKey]*poolEntry
	closed  bool
}

// poolEntry opens its session at most once; a retired or failed entry is
// replaced wholesale in the map, never reopened in place.
type poolEntry struct {
	key   SessionKey
	cfg   *Config
	once  sync.Once
	s     *session
	err   error
	ready atomic.Bool
}

func (e *poolEntry) open() {
	e.s, e.err = openSession(e.cfg, e.key)
	e.ready.Store(true)
}

func newPool(cfg *Config) *pool {
	return &pool{cfg: cfg, entries: make(map[SessionKey]*poolEntry)}
}

// get returns the live session for key, lazily opening one. An entry whose
// open failed is retried, and a session whose plan lost a whole stage is
// closed in the background and replaced — the replacement redials every
// worker from scratch, which is how a restarted device rejoins.
func (p *pool) get(key SessionKey) (*session, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errRetired
	}
	e := p.entries[key]
	if e != nil && e.ready.Load() && (e.err != nil || !e.s.servable()) {
		if e.err == nil {
			old := e.s
			go func() { _ = old.close() }()
		}
		delete(p.entries, key)
		e = nil
	}
	if e == nil {
		e = &poolEntry{key: key, cfg: p.cfg}
		p.entries[key] = e
	}
	p.mu.Unlock()
	e.once.Do(e.open)
	return e.s, e.err
}

// snapshot returns the open sessions, for /healthz and /stats.
func (p *pool) snapshot() []*session {
	p.mu.Lock()
	entries := make([]*poolEntry, 0, len(p.entries))
	for _, e := range p.entries {
		entries = append(entries, e)
	}
	p.mu.Unlock()
	out := make([]*session, 0, len(entries))
	for _, e := range entries {
		if e.ready.Load() && e.err == nil {
			out = append(out, e.s)
		}
	}
	return out
}

// close drains and closes every session. Opens still in progress are waited
// out (once.Do), so nothing leaks past shutdown.
func (p *pool) close() error {
	p.mu.Lock()
	p.closed = true
	entries := make([]*poolEntry, 0, len(p.entries))
	for _, e := range p.entries {
		entries = append(entries, e)
	}
	p.entries = make(map[SessionKey]*poolEntry)
	p.mu.Unlock()
	var firstErr error
	for _, e := range entries {
		e.once.Do(e.open)
		if e.err != nil {
			continue
		}
		if err := e.s.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
