package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pico/internal/core"
	"pico/internal/queueing"
	"pico/internal/runtime"
	"pico/internal/schemes"
	"pico/internal/telemetry"
	"pico/internal/tensor"
)

// Plan kinds a session can execute.
const (
	// PlanPICO is the paper's pipelined cooperation plan (Algorithms 1+2).
	PlanPICO = "pico"
	// PlanFused is the one-stage scheme — the capacity-aware optimal
	// fused-layer plan, every fused segment on the whole cluster and an
	// unsplittable tail on one device — APICO's low-load arm (§IV-C), served
	// here as an explicit choice.
	PlanFused = "fused"
	// PlanAPICO lets the session pick between the two from what it observes
	// (§IV-C): it plans both, and at every batch boundary runs whichever has
	// the lower Theorem-2 latency at the gateway's EWMA arrival rate,
	// swapping the live pipeline's plan when the answer changes.
	PlanAPICO = "apico"
)

// apicoArms are the schemes an apico session switches between, in the order
// its switcher numbers them: it starts on the first, the fused plan, which
// is the right choice at λ = 0.
var apicoArms = []string{PlanFused, PlanPICO}

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
	// rate is the EWMA arrival rate admission computed for this request.
	rate float64
	// ch is the request's result slot: the pipeline sends its one result
	// here, and the buffer of one keeps an abandoned request from stalling
	// the pipeline.
	ch chan runtime.TaskResult
}

// session owns one live pipeline plus the micro-batcher that coalesces
// queued HTTP requests into pipeline submission bursts. Each request waits
// on its own slot, so results need no routing back.
type session struct {
	key  SessionKey
	pipe *runtime.Pipeline
	// adm is the M/D/1 admission predicate at the shortest period the
	// session can run at: an apico session on its fused plan must admit the
	// load that makes it swap to the pipeline, or it never would.
	adm queueing.Admission

	// plans are the schemes the session may run: one for a pico or fused
	// session, both for an apico one, whose switcher (candidate i names and
	// prices plans[i]) the batcher goroutine alone consults.
	plans []*core.Plan
	sw    *queueing.Switcher
	swaps atomic.Int64

	// in feeds the batcher. Guarded by inMu/closed so a retire can never
	// race a handler into a send on a closed channel.
	in     chan *waiter
	inMu   sync.RWMutex
	closed bool

	batchWG sync.WaitGroup

	closeOnce sync.Once
	closeErr  error

	// Counters for /stats.
	tasks   atomic.Int64
	batches atomic.Int64
	batched atomic.Int64

	// reqSeries records whole-request latency (enqueue through result, so
	// batch-window wait included) into the gateway's telemetry registry.
	reqSeries *telemetry.Series
}

// openSession plans (or re-plans) the key's scheme — both schemes for an
// apico session — and connects its pipeline, which records into telem.
// Weights derive from the shared seed on the workers, so opening is a
// control-plane operation: only geometry crosses the network.
func openSession(cfg *Config, telem *telemetry.Registry, key SessionKey) (*session, error) {
	m := cfg.Models[key.Model]
	if m == nil {
		return nil, fmt.Errorf("serve: unknown model %q", key.Model)
	}
	s := &session{key: key, in: make(chan *waiter, cfg.MaxQueue)}
	kinds := []string{key.Plan}
	if key.Plan == PlanAPICO {
		kinds = apicoArms
	}
	for _, kind := range kinds {
		// Every plan is priced in the precision it executes in.
		plan, err := schemes.Plan(kind, m, cfg.Cluster, core.Options{Quantized: key.Quant})
		if err != nil {
			return nil, fmt.Errorf("serve: plan %s (%s): %w", key, kind, err)
		}
		s.plans = append(s.plans, plan)
		if s.adm.Period == 0 || plan.PeriodSeconds < s.adm.Period {
			s.adm = queueing.Admission{Period: plan.PeriodSeconds, Bound: cfg.LatencyBound, MaxQueue: cfg.MaxQueue}
		}
	}
	var err error
	if s.sw, err = schemes.APICO(kinds, s.plans); err != nil {
		return nil, fmt.Errorf("serve: plan %s: %w", key, err)
	}
	// Label the session's series by its key so concurrent model/plan/quant
	// variants stay distinguishable in one registry.
	if s.pipe, err = runtime.NewPipeline(s.plans[0], cfg.Addrs, runtime.PipelineOptions{
		Seed: cfg.Seed, Quantized: key.Quant, Telemetry: telem, TelemetryLabel: key.String(),
	}); err != nil {
		return nil, fmt.Errorf("serve: open %s: %w", key, err)
	}
	s.reqSeries = telem.Series(telemetry.Key{
		Model: key.String(), Stage: -1, Device: -1, Kind: telemetry.KindRequest,
	})
	s.batchWG.Add(1)
	go s.batchLoop()
	return s, nil
}

// servable reports whether the plan can still execute on the live devices.
func (s *session) servable() bool { return s.pipe.Servable() }

// live returns the switcher candidate — plan kind, period, latency — of the
// plan the pipeline is running now, and its index in plans.
func (s *session) live() (queueing.Candidate, int) {
	i := max(slices.Index(s.plans, s.pipe.Plan()), 0)
	return s.sw.Candidates[i], i
}

// adapt is APICO's decision, taken between bursts by the pipeline's only
// submitter: ask the switcher which scheme Theorem 2 favours at the arrival
// rate admission just computed and, when that is not the plan running, swap
// — journaling λ and both estimates, the measurement behind the decision. A
// one-plan session's switcher has nothing to choose from.
func (s *session) adapt(rate float64) {
	from, fi := s.live()
	ti := s.sw.Choose(rate)
	if ti == fi {
		return
	}
	to := s.sw.Candidates[ti]
	reason := fmt.Sprintf("lambda=%.6g/s %s=%.6gs -> %s=%.6gs",
		rate, from.Name, from.EstimatedLatency(rate), to.Name, to.EstimatedLatency(rate))
	if err := s.pipe.Swap(s.plans[ti], reason); err == nil {
		s.swaps.Add(1)
	}
}

// infer runs one request through the batcher and waits on its slot for the
// result. A cancelled ctx abandons the wait — the eventual result lands in
// the slot's buffer and is dropped, never blocking the pipeline.
func (s *session) infer(done <-chan struct{}, input tensor.Tensor, rate float64) (runtime.TaskResult, error) {
	w := &waiter{input: input, enq: time.Now(), rate: rate, ch: make(chan runtime.TaskResult, 1)}
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
		if res.Err == nil {
			now := time.Now()
			s.reqSeries.RecordAt(now, now.Sub(w.enq).Seconds())
		}
		return res, nil
	case <-done:
		return runtime.TaskResult{}, fmt.Errorf("%w in flight", errCanceled)
	}
}

// batchLoop coalesces queued waiters into pipeline submission bursts: it
// waits up to batchWindow for up to maxBatch requests to accumulate, then
// submits them back-to-back so the stage drivers stay full (their dispatch
// windows overlap transport with compute across the whole burst).
func (s *session) batchLoop() {
	defer s.batchWG.Done()
	for {
		first, ok := <-s.in
		if !ok {
			return
		}
		batch := append(make([]*waiter, 0, maxBatch), first)
		timer := time.NewTimer(batchWindow)
	collect:
		for len(batch) < maxBatch {
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
		s.flush(batch)
	}
}

// flush submits one burst, each task answering on its waiter's slot. A
// submit failure (pipeline closed under us) answers the slot directly.
func (s *session) flush(batch []*waiter) {
	s.adapt(batch[len(batch)-1].rate)
	s.batches.Add(1)
	s.batched.Add(int64(len(batch)))
	for _, w := range batch {
		if _, err := s.pipe.SubmitTo(w.input, w.ch); err != nil {
			w.ch <- runtime.TaskResult{Err: err, Submitted: w.enq, Done: time.Now()}
		}
	}
}

// close drains the session: no new waiters, the batcher flushes what is
// queued, and the pipeline drains every in-flight task into its slot.
// Idempotent; concurrent infer calls get errRetired.
func (s *session) close() error {
	s.closeOnce.Do(func() {
		s.inMu.Lock()
		s.closed = true
		s.inMu.Unlock()
		close(s.in)
		s.batchWG.Wait()
		s.closeErr = s.pipe.Close()
	})
	return s.closeErr
}

// pool is the session registry: pipelines keyed by (model, plan, quant),
// opened lazily on first use and retired when their plan becomes
// unservable (a whole stage down) so the next request redials fresh.
type pool struct {
	cfg   *Config
	telem *telemetry.Registry

	mu      sync.Mutex
	entries map[SessionKey]*poolEntry
	closed  bool
	// retired counts replaced sessions still closing. get adds under mu
	// while the pool is open, so close's Wait sees every one.
	retired sync.WaitGroup
}

// poolEntry opens its session at most once; a retired or failed entry is
// replaced wholesale in the map, never reopened in place.
type poolEntry struct {
	key   SessionKey
	p     *pool
	once  sync.Once
	s     *session
	err   error
	ready atomic.Bool
}

func (e *poolEntry) open() {
	e.s, e.err = openSession(e.p.cfg, e.p.telem, e.key)
	e.ready.Store(true)
}

func newPool(cfg *Config, telem *telemetry.Registry) *pool {
	return &pool{cfg: cfg, telem: telem, entries: make(map[SessionKey]*poolEntry)}
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
			p.retired.Add(1)
			go func() { defer p.retired.Done(); _ = old.close() }()
		}
		delete(p.entries, key)
		e = nil
	}
	if e == nil {
		e = &poolEntry{key: key, p: p}
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

// close drains and closes every session, retired ones included. Opens still
// in progress are waited out (once.Do), so nothing leaks past shutdown.
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
	p.retired.Wait()
	return firstErr
}
