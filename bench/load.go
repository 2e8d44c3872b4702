package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	gort "runtime"
	"sync"
	"sync/atomic"
	"time"

	"pico/internal/simulate"
)

// reply is one request's outcome as the client saw it.
type reply struct {
	// sent is when the request was due (open loop) or issued (closed loop),
	// as an offset from the window start; latency counts from it.
	sent    time.Duration
	latency time.Duration
	status  int
	// correct: 200 and byte-identical to the local reference run.
	correct bool
	// inPipeline is the gateway's X-Pico-Latency header: pipeline submit to
	// result. latency minus it is what the gateway and HTTP added.
	inPipeline time.Duration
}

// loadResult is one measurement window.
type loadResult struct {
	replies []reply
	elapsed time.Duration
	// late is how far behind its due time the generator released each
	// open-loop request (empty for the closed loop).
	late         []float64
	inflightPeak int64
}

// target is where a window sends and what it expects back.
type target struct {
	url  string
	pool *pool
	// tr, when non-nil, receives client spans for every request.
	tr *tracer
}

// post sends pool input i over client and verifies the reply.
func (t *target) post(client *http.Client, i int) (status int, correct bool, inPipeline time.Duration) {
	resp, err := client.Post(t.url, "application/octet-stream", bytes.NewReader(t.pool.inputs[i]))
	if err != nil {
		return 0, false, 0
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // body fully read; nothing left to lose
	if err != nil {
		return 0, false, 0
	}
	inPipeline, _ = time.ParseDuration(resp.Header.Get("X-Pico-Latency"))
	return resp.StatusCode, resp.StatusCode == http.StatusOK && bytes.Equal(body, t.pool.want[i]), inPipeline
}

// newClient returns a client limited to conns keep-alive connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// one times a single request from due and records its spans on lane.
func (t *target) one(client *http.Client, lane, input int, start time.Time, due time.Duration) reply {
	status, correct, inPipe := t.post(client, input)
	end := time.Now()
	r := reply{sent: due, latency: end.Sub(start.Add(due)), status: status, correct: correct, inPipeline: inPipe}
	if t.tr != nil && correct {
		t.tr.request(lane, start.Add(due), end, inPipe)
	}
	return r
}

// closedLoop runs clients callers, one keep-alive connection each, each
// sending its next request only after the previous reply, for dur.
func (t *target) closedLoop(clients int, dur time.Duration, seed int64) loadResult {
	var (
		mu  sync.Mutex
		res loadResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient(1)
			defer client.CloseIdleConnections()
			rng := rand.New(rand.NewSource(seed<<8 + int64(c)))
			var mine []reply
			for time.Since(start) < dur {
				mine = append(mine, t.one(client, c, rng.Intn(poolSize), start, time.Since(start)))
			}
			mu.Lock()
			res.replies = append(res.replies, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.inflightPeak = int64(clients)
	return res
}

// traceSeed draws the one Poisson trace every Poisson open loop replays.
const traceSeed = 1

// schedule returns exactly rate*dur arrival times in [0, dur): evenly spaced
// when paced, Poisson otherwise.
//
// The Poisson schedule is one fixed draw, and the seed picks where in it the
// window starts: the first n+1 gaps of simulate.PoissonArrivals(rate, ...,
// traceSeed) are rescaled to sum to dur — a Poisson process conditioned on
// its count, so the offered load does not swing +-5% with the draw — and then
// rotated by seed. Every seed therefore offers the same gaps, and the same
// bursts, in a different order. With a few hundred arrivals a window's p95 is
// a property of its few bursts: a fresh draw per seed spread p95 by 15%
// over ten seeds, the same draw by 4%.
func schedule(rate float64, paced bool, dur time.Duration, seed int64) ([]time.Duration, error) {
	n := int(math.Round(rate * dur.Seconds()))
	if n < 1 {
		return nil, fmt.Errorf("open loop: %v req/s for %v is no arrival", rate, dur)
	}
	out := make([]time.Duration, n)
	if paced {
		for i := range out {
			out[i] = time.Duration(float64(i) / rate * float64(time.Second))
		}
		return out, nil
	}
	raw := simulate.PoissonArrivals(rate, 3*dur.Seconds()+10/rate, traceSeed)
	if len(raw) <= n {
		return nil, fmt.Errorf("open loop: %d arrivals wanted, stream has %d", n, len(raw))
	}
	gaps := make([]float64, n+1)
	for i, prev := 0, 0.0; i <= n; i++ {
		gaps[i], prev = raw[i]-prev, raw[i]
	}
	shift := int(uint64(seed) % uint64(n+1))
	at := 0.0
	for i := range out {
		at += gaps[(shift+i)%(n+1)]
		out[i] = time.Duration(at / raw[n] * float64(dur))
	}
	return out, nil
}

// openLoop sends on the schedule regardless of replies. Each request is
// timed from its due time, so a stall's wait lands on the requests queued
// behind it. conns caps the connection pool; a request that finds every
// connection busy waits for one, and that wait is part of its latency.
func (t *target) openLoop(arrivals []time.Duration, conns int, seed int64) loadResult {
	type job struct {
		input int
		due   time.Duration
	}
	// Buffered to the whole schedule: the dispatcher must never block on a
	// slow system, or the loop would close.
	jobs := make(chan job, len(arrivals))
	var (
		mu       sync.Mutex
		res      loadResult
		wg       sync.WaitGroup
		inflight atomic.Int64
	)
	client := newClient(conns)
	defer client.CloseIdleConnections()
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []reply
			for j := range jobs {
				mine = append(mine, t.one(client, c, j.input, start, j.due))
				inflight.Add(-1)
			}
			mu.Lock()
			res.replies = append(res.replies, mine...)
			mu.Unlock()
		}(c)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, due := range arrivals {
		time.Sleep(due - time.Since(start))
		res.late = append(res.late, float64(time.Since(start)-due)/float64(time.Millisecond))
		if n := inflight.Add(1); n > res.inflightPeak {
			res.inflightPeak = n
		}
		jobs <- job{input: rng.Intn(poolSize), due: due}
	}
	close(jobs)
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// run drives the workload's traffic for dur.
func (t *target) run(w *workload, dur time.Duration, seed int64) (loadResult, error) {
	nproc := gort.GOMAXPROCS(0)
	if w.rate == 0 {
		return t.closedLoop(nproc, dur, seed), nil
	}
	arrivals, err := schedule(w.rate, w.paced, dur, seed)
	if err != nil {
		return loadResult{}, err
	}
	// The only place connections exceed nproc: the open-loop workloads leave
	// the process mostly idle, and a request must not wait for a connection
	// behind a slow one.
	return t.openLoop(arrivals, 2*nproc, seed), nil
}

// warm sends n sequential requests so arenas, buffer pools and connections
// exist before the timed window. Users do not pay that cost per request.
func (t *target) warm(n int) error {
	client := newClient(1)
	defer client.CloseIdleConnections()
	for i := 0; i < n; i++ {
		if status, correct, _ := t.post(client, i%poolSize); !correct {
			return fmt.Errorf("warm-up request %d: status %d, correct=%v", i, status, correct)
		}
	}
	return nil
}

// summary reduces a window to the numbers the metrics are made of.
type summary struct {
	sent, good int
	// latMs holds correct 200s only; overheadMs is latency minus the
	// gateway-reported pipeline time for the same requests.
	latMs, overheadMs []float64
}

func (r *loadResult) summarize(limit time.Duration) summary {
	s := summary{sent: len(r.replies)}
	for _, rp := range r.replies {
		if !rp.correct {
			continue
		}
		s.latMs = append(s.latMs, ms(rp.latency))
		s.overheadMs = append(s.overheadMs, ms(rp.latency-rp.inPipeline))
		if rp.latency <= limit {
			s.good++
		}
	}
	return s
}

// failShare is the share of requests sent that were not good: 429, 5xx,
// transport errors, wrong bytes and late responses all count.
func (s summary) failShare() float64 { return float64(s.sent-s.good) / float64(s.sent) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
