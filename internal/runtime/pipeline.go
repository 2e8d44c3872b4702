package runtime

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/telemetry"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// StageSpan records one task's occupancy of one pipeline stage.
type StageSpan struct {
	// From, To identify the stage's model segment.
	From, To int
	// Start, End bound the stage's work on this task (split through
	// stitch), including time spent waiting on the stage's workers.
	Start, End time.Time
}

// TaskResult is one completed inference.
type TaskResult struct {
	ID     int64
	Output tensor.Tensor
	Err    error
	// Submitted and Done bound the task's wall-clock traversal.
	Submitted, Done time.Time
	// Spans is the per-stage timeline; overlapping spans across different
	// tasks are the pipeline working as intended.
	Spans []StageSpan
}

// flight is a task moving through the stage drivers, carrying the current
// stage-boundary feature map in the pipeline's precision (in quantized mode
// the input is quantized once at Submit and stays int8 across every stage
// boundary, so each hop moves a quarter of the float bytes).
type flight struct {
	id int64
	m  tensor.FMap
	// owned marks the map as pipeline-allocated (a stitched or quantized
	// map), safe to recycle when the next stage replaces it. The user's
	// submitted input is never recycled.
	owned     bool
	err       error
	submitted time.Time
	spans     []StageSpan
}

// stageDriver realizes the per-stage workflow of the paper's Fig. 6: take a
// feature map from the input queue, split it into the plan's tiles — row
// strips or, when the stage carries column ranges, 2D grid rects —
// distribute the tiles to the stage workers, gather and stitch the results,
// and hand the stitched map to the next stage.
//
// With window > 1 the driver pipelines within the stage too: tiles for task
// N+1 are sliced, serialized and sent while the workers still compute task
// N (whose tiles are gathered concurrently), so coordinator-side transport
// work overlaps remote compute instead of extending the stage's period.
//
// The driver is fault-tolerant whatever the tile shape: every exec wait is
// deadline-bounded, a lost or wedged connection moves its tile onto a
// healthy replica (bounded retries, while a background goroutine redials the
// lost worker with exponential backoff), and a worker that exhausts its
// redial budget is marked down for good — the stage re-balances to strips
// across the survivors, the one layout Calc.Balanced produces, and keeps
// serving.
type stageDriver struct {
	index int // stage position, for fault events
	stage core.Stage
	// slots are the per-position connection states, parallel to
	// stage.DeviceIdx; nil for positions idle in the original plan.
	slots []*workerSlot
	calc  *partition.Calc
	out   nn.Shape // the stage's full output map
	// window caps how many tasks may be dispatched but not yet stitched.
	window int
	// timeout bounds each tile round trip on this stage.
	timeout time.Duration
	// stageProd records this stage's per-task round trip.
	stageProd *telemetry.Producer
	// prods are the per-device producers gather records each tile on; only
	// the gather goroutine records, so their lazily filled kernel producers
	// need no lock.
	prods map[int]*deviceProds
	p     *Pipeline
	c     *chain

	// topoMu guards the live tile layout, which re-balancing rewrites
	// when a device goes down.
	topoMu sync.Mutex
	tiles  []partition.Rect
	dead   bool // no live device remains; flights fail fast

	// rr rotates replica choice across retries.
	rr atomic.Uint64
}

// deviceProds are one device's producers within one stage: its exec series
// and, created on a kind's first non-zero reply so a stage holds no ring for
// a kind it never runs, one kernel series per layer kind.
type deviceProds struct {
	exec   *telemetry.Producer
	kernel [tensor.NumKinds]*telemetry.Producer
}

// record books one executed tile against its device: the worker-reported
// compute seconds on the exec series, and each kind's kernel seconds on its
// kernel series.
func (sd *stageDriver) record(deviceIdx int, rh *wire.ExecResultHeader) {
	dp, at := sd.prods[deviceIdx], time.Now()
	dp.exec.RecordAt(at, rh.ComputeSeconds)
	for k, sec := range rh.KernelSeconds {
		if sec == 0 {
			continue
		}
		if dp.kernel[k] == nil {
			dp.kernel[k] = sd.p.series(sd.index, deviceIdx, telemetry.KindKernel+tensor.KindNames[k]).Producer()
		}
		dp.kernel[k].RecordAt(at, sec)
	}
}

// flightWork is one dispatched task awaiting its tiles.
type flightWork struct {
	f *flight
	// tiles is the layout this flight was dispatched under (the live layout
	// can change concurrently on re-balance).
	tiles []partition.Rect
	calls []*call // parallel to tiles; nil slots were idle or failed
	// retry lists tile indices whose dispatch or wait failed transiently;
	// gather re-executes them on healthy replicas.
	retry []int
	start time.Time
}

func (sd *stageDriver) run(in <-chan *flight, out chan<- *flight, wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(out)
	if sd.window <= 1 {
		// Synchronous: one task occupies the stage end to end.
		for f := range in {
			sd.gather(sd.dispatch(f))
			out <- f
		}
		return
	}
	// Pipelined: the dispatcher stays up to window-1 tasks ahead of the
	// gatherer, so its split/encode/send work overlaps worker compute.
	work := make(chan *flightWork, sd.window-1)
	var dispatchWG sync.WaitGroup
	dispatchWG.Add(1)
	go func() {
		defer dispatchWG.Done()
		defer close(work)
		for f := range in {
			work <- sd.dispatch(f)
		}
	}()
	for fw := range work {
		sd.gather(fw)
		out <- fw.f
	}
	dispatchWG.Wait()
}

// sendTile slices the input region one output tile needs and sends it, in the
// precision the flight's map carries. The tile is fully serialized before
// return.
func (sd *stageDriver) sendTile(wc *workerClient, f *flight, tile partition.Rect) (*call, error) {
	need := sd.calc.TileRects(sd.stage.From, sd.stage.To, tile)[0]
	in := f.m.SliceRect(need)
	c, err := wc.startExec(wire.ExecHeader{
		TaskID: f.id,
		From:   sd.stage.From, To: sd.stage.To,
		OutLo: tile.Rows.Lo, OutHi: tile.Rows.Hi,
		InLo:     need.Rows.Lo,
		OutColLo: tile.Cols.Lo, OutColHi: tile.Cols.Hi,
		InColLo:   need.Cols.Lo,
		ModelName: sd.c.plan.Model.Name,
		Seed:      sd.p.opts.Seed,
	}, in)
	in.Recycle()
	return c, err
}

// dispatch splits a flight's feature map into the stage's tiles and sends
// every tile, returning the in-flight calls for gather. Send failures and
// disconnected slots are queued for gather's retry pass instead of failing
// the flight. Failed flights pass through untouched.
func (sd *stageDriver) dispatch(f *flight) *flightWork {
	fw := &flightWork{f: f, start: time.Now()}
	if f.err != nil {
		return fw
	}
	sd.topoMu.Lock()
	if sd.dead {
		sd.topoMu.Unlock()
		f.err = &FaultError{Device: -1, Kind: FaultDown,
			Err: fmt.Errorf("stage [%d,%d) has no live workers", sd.stage.From, sd.stage.To)}
		return fw
	}
	fw.tiles = sd.tiles // re-balancing installs a new slice, never edits one
	sd.topoMu.Unlock()
	fw.calls = make([]*call, len(fw.tiles))
	for k, tile := range fw.tiles {
		if tile.Empty() || sd.slots[k] == nil {
			continue
		}
		wc := sd.slots[k].current()
		if wc == nil {
			// Disconnected (redial in progress): gather retries this tile
			// on a healthy replica.
			fw.retry = append(fw.retry, k)
			continue
		}
		c, err := sd.sendTile(wc, f, tile)
		if err != nil {
			sd.noteFault(k, wc, FaultConnLost, err)
			fw.retry = append(fw.retry, k)
			continue
		}
		fw.calls[k] = c
	}
	return fw
}

// gather collects a dispatched flight's tiles — retrying transiently failed
// ones on healthy replicas — and stitches them into the stage output.
func (sd *stageDriver) gather(fw *flightWork) {
	f := fw.f
	if fw.calls == nil {
		return // flight failed before this stage
	}
	defer func() {
		end := time.Now()
		f.spans = append(f.spans, StageSpan{
			From: sd.stage.From, To: sd.stage.To,
			Start: fw.start, End: end,
		})
		if f.err == nil {
			sd.stageProd.RecordAt(end, end.Sub(fw.start).Seconds())
		}
	}()
	outs := make([]tensor.FMap, 0, len(fw.calls))
	rects := make([]partition.Rect, 0, len(fw.calls))
	// Every gathered tile is recycled on the way out: on success it has
	// been copied into the stitched map, on failure it is dropped.
	defer func() {
		for _, o := range outs {
			o.Recycle()
		}
	}()
	for k, c := range fw.calls {
		if c == nil {
			continue
		}
		strip, rh, transient, err := c.waitExec(sd.timeout)
		if err != nil {
			// Keep draining the remaining calls so every in-flight
			// response is accounted for before the flight fails.
			if transient {
				sd.noteFault(k, c.wc, faultKind(err), err)
				fw.retry = append(fw.retry, k)
			} else if f.err == nil {
				f.err = err
			}
			continue
		}
		sd.record(sd.stage.DeviceIdx[k], &rh)
		outs = append(outs, strip)
		rects = append(rects, fw.tiles[k])
	}
	// Retry pass: the stage input map is still alive here, so failed tiles
	// can be re-sliced and executed on surviving replicas.
	for _, k := range fw.retry {
		if f.err != nil {
			break
		}
		strip, rh, di, err := sd.retryTile(f, fw.tiles[k])
		if err != nil {
			f.err = err
			break
		}
		sd.record(di, &rh)
		outs = append(outs, strip)
		rects = append(rects, fw.tiles[k])
	}
	if f.err != nil {
		return
	}
	// Assemble the tiles into the stage's output map and install it on the
	// flight, recycling the flight's previous owned map.
	stitched, err := tensor.Stitch(outs, rects, sd.out.H, sd.out.W)
	if err != nil {
		f.err = fmt.Errorf("runtime: stage [%d,%d) stitch: %w", sd.stage.From, sd.stage.To, err)
		return
	}
	if f.owned {
		f.m.Recycle()
	}
	f.m, f.owned = stitched, true
}

// faultKind classifies a transient exec failure for the event log.
func faultKind(err error) FaultKind {
	if errors.Is(err, errDeadline) {
		return FaultTimeout
	}
	return FaultConnLost
}

// noteFault records a transport failure against a slot and starts its redial
// loop if one is not already running.
func (sd *stageDriver) noteFault(k int, wc *workerClient, kind FaultKind, err error) {
	slot := sd.slots[k]
	sd.p.faults.add(FaultEvent{
		Stage: sd.index, Device: slot.deviceIdx, Worker: slot.workerID,
		Kind: kind, Detail: err.Error(),
	})
	if slot.fault(wc) {
		sd.c.redialWG.Add(1)
		go sd.redial(slot)
	}
}

// pickLive returns a connected slot of this stage, rotating across calls so
// retries spread over the replicas. Returns (-1, nil) when none is live.
func (sd *stageDriver) pickLive() (int, *workerClient) {
	n := len(sd.slots)
	start := int(sd.rr.Add(1)) % n
	for i := 0; i < n; i++ {
		k := (start + i) % n
		if sd.slots[k] == nil {
			continue
		}
		if wc := sd.slots[k].current(); wc != nil {
			return k, wc
		}
	}
	return -1, nil
}

// retryTile re-executes one tile on healthy replicas, waiting out a redial
// between attempts, until the retry budget is spent. It returns the tile,
// its result header and the executing device index.
func (sd *stageDriver) retryTile(f *flight, tile partition.Rect) (tensor.FMap, wire.ExecResultHeader, int, error) {
	backoff := sd.p.opts.RedialBackoff
	lastErr := error(nil)
	for attempt := 0; attempt <= sd.p.opts.RetryBudget; attempt++ {
		if attempt > 0 {
			// Give an in-progress redial a chance to land before the next
			// attempt; skip the wait when the pipeline is closing.
			select {
			case <-sd.c.closing:
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		k, wc := sd.pickLive()
		if wc == nil {
			lastErr = fmt.Errorf("no live replica in stage [%d,%d)", sd.stage.From, sd.stage.To)
			continue
		}
		c, err := sd.sendTile(wc, f, tile)
		if err != nil {
			sd.noteFault(k, wc, FaultConnLost, err)
			lastErr = err
			continue
		}
		strip, rh, transient, err := c.waitExec(sd.timeout)
		if err == nil {
			sd.p.faults.add(FaultEvent{
				Stage: sd.index, Device: sd.slots[k].deviceIdx, Worker: sd.slots[k].workerID,
				Kind: FaultRetried, Detail: fmt.Sprintf("task %d tile %v", f.id, tile),
			})
			return strip, rh, sd.stage.DeviceIdx[k], nil
		}
		if !transient {
			// Worker-reported (deterministic) error: retrying elsewhere
			// would fail the same way.
			return tensor.FMap{}, rh, 0, err
		}
		sd.noteFault(k, wc, faultKind(err), err)
		lastErr = err
	}
	return tensor.FMap{}, wire.ExecResultHeader{}, 0, &FaultError{
		Device: -1, Kind: FaultDown,
		Err: fmt.Errorf("task %d tile %v: retry budget exhausted: %w", f.id, tile, lastErr),
	}
}

// redial tries to reconnect a lost worker with exponential backoff. On
// success the slot resumes serving its tiles; after the last attempt the
// slot goes down for good and the stage re-balances onto the survivors.
func (sd *stageDriver) redial(slot *workerSlot) {
	defer sd.c.redialWG.Done()
	backoff := sd.p.opts.RedialBackoff
	for attempt := 1; attempt <= sd.p.opts.RedialAttempts; attempt++ {
		select {
		case <-sd.c.closing:
			// Chain tear-down: stop trying, leave the slot disconnected
			// (not down — no re-balance during a close or a swap).
			slot.mu.Lock()
			slot.redialing = false
			slot.mu.Unlock()
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if wc, err := sd.c.dial(slot.addr, sd.timeout); err == nil {
			slot.reconnected(wc)
			sd.p.faults.add(FaultEvent{
				Stage: sd.index, Device: slot.deviceIdx, Worker: wc.id,
				Kind: FaultRedialed, Detail: fmt.Sprintf("attempt %d", attempt),
			})
			return
		}
	}
	slot.markDown()
	sd.p.faults.add(FaultEvent{
		Stage: sd.index, Device: slot.deviceIdx, Worker: slot.workerID,
		Kind: FaultDown, Detail: fmt.Sprintf("%d redial attempts failed", sd.p.opts.RedialAttempts),
	})
	sd.rebalance()
}

// speedOf returns a device's effective modelled speed for re-balancing.
func (sd *stageDriver) speedOf(deviceIdx int) float64 {
	cl := sd.c.plan.Cluster
	if cl == nil || deviceIdx < 0 || deviceIdx >= len(cl.Devices) || cl.Devices[deviceIdx].EffectiveSpeed() <= 0 {
		return 1
	}
	return cl.Devices[deviceIdx].EffectiveSpeed()
}

// restrip runs the balancer over per-slot weights and installs its row split
// as the live layout, reporting the split and whether the layout changed.
func (sd *stageDriver) restrip(weights []float64) (parts []partition.Range, changed bool) {
	parts = sd.calc.Balanced(sd.stage.From, sd.stage.To, weights)
	tiles := (&core.Stage{Parts: parts}).Tiles(sd.out.W)
	sd.topoMu.Lock()
	changed, sd.tiles = !slices.Equal(tiles, sd.tiles), tiles
	sd.topoMu.Unlock()
	return parts, changed
}

// rebalance re-splits the stage's output rows across the surviving devices
// (the divide-and-conquer balancer of Algorithm 2) — a grid stage becomes a
// strip stage here — or marks the stage dead when none survive.
func (sd *stageDriver) rebalance() {
	weights := make([]float64, len(sd.slots))
	live := 0
	for k, slot := range sd.slots {
		if slot == nil || slot.isDown() {
			continue
		}
		weights[k] = sd.speedOf(slot.deviceIdx)
		live++
	}
	if live == 0 {
		sd.topoMu.Lock()
		sd.dead = true
		sd.topoMu.Unlock()
		sd.p.faults.add(FaultEvent{
			Stage: sd.index, Device: -1, Kind: FaultDown,
			Detail: fmt.Sprintf("stage [%d,%d) has no live workers; tasks fail fast", sd.stage.From, sd.stage.To),
		})
		return
	}
	parts, _ := sd.restrip(weights)
	sd.p.faults.add(FaultEvent{
		Stage: sd.index, Device: -1, Kind: FaultRebalanced,
		Detail: fmt.Sprintf("strips re-balanced over %d survivor(s): %v", live, parts),
	})
}

// minMeasuredSamples is how many windowed exec samples a device needs before
// its measured speed overrides the planner's static profile in a measured
// re-balance.
const minMeasuredSamples = 8

// rebalanceMeasured re-splits the stage into strips using measured per-device
// execution times from the telemetry window: a device that computed rows_k
// rows (a grid tile counts its cells in full-width rows) in p50_k seconds
// weighs rows_k/p50_k, so a straggler the static profile did not predict
// sheds rows to its faster peers. Devices without enough windowed samples
// keep their profile speed. Returns whether the layout changed.
func (sd *stageDriver) rebalanceMeasured(window time.Duration) bool {
	sd.topoMu.Lock()
	tiles, dead := sd.tiles, sd.dead
	sd.topoMu.Unlock()
	if dead {
		return false
	}
	weights := make([]float64, len(sd.slots))
	live, measured := 0, 0
	for k, slot := range sd.slots {
		if slot == nil || slot.isDown() {
			continue
		}
		w := sd.speedOf(slot.deviceIdx)
		if rows := float64(tiles[k].Cells()) / float64(sd.out.W); rows > 0 {
			st := sd.p.series(sd.index, slot.deviceIdx, telemetry.KindExec).StatsWindow(window)
			if st.WindowCount >= minMeasuredSamples && st.P50 > 0 {
				w = rows / st.P50
				measured++
			}
		}
		weights[k] = w
		live++
	}
	if live == 0 || measured < 2 {
		// Fewer than two measured devices gives the balancer nothing to
		// trade off against.
		return false
	}
	next, changed := sd.restrip(weights)
	if !changed {
		return false
	}
	sd.p.faults.add(FaultEvent{
		Stage: sd.index, Device: -1, Kind: FaultRebalanced,
		Detail: fmt.Sprintf("slo: measured re-split over %d device(s): %v", live, next),
	})
	return true
}

// Pipeline executes a plan over TCP workers, one stage driver per stage, all
// running concurrently so tasks overlap in the pipeline. It is the runtime's
// only coordinator: a stage's tiles are strips or grid rects as the plan
// says, and Swap replaces the running plan at a task boundary — the paper's
// scheme switch (§IV-C) — while task ids, the result stream, calibrated
// scales, telemetry series (and with them the per-device counters) and the
// fault journal carry on.
type Pipeline struct {
	spec  wire.ModelSpec
	addrs map[int]string
	// opts are the construction options with defaults applied; every chain
	// is built from them.
	opts PipelineOptions

	// scales, non-nil for an int8 session, is the boundary-scale vector this
	// coordinator calibrated once from (model, seed): every load (first dial
	// and redial) ships it to the worker, and scales[0] quantizes submitted
	// inputs — result headers carry the scales forward from there.
	scales []float32

	results chan TaskResult
	nextID  atomic.Int64

	// mu orders submissions against reconfiguration: Submit holds it shared
	// across its send into the chain, Swap and Close hold it exclusively
	// while they drain one chain and install the next (or none), so a task
	// can never be sent into a chain that is shutting down.
	mu     sync.RWMutex
	closed bool
	// cur is the installed chain. Only Swap stores it (under mu); snapshot
	// accessors load it without locking, so /healthz never waits on a drain.
	cur atomic.Pointer[chain]

	// faults is the bounded fault-event journal.
	faults faultLog

	// telem receives the pipeline's samples keyed under telemLabel: whole-task
	// e2e in the sink, per-stage round trips in gather, per-device exec and
	// kernel seconds through record. It is the one store of those
	// measurements: WorkerStats and Health read their counters back from it.
	// All writes go through lock-free ring producers, so the hot path cost is
	// a few atomic stores.
	telem      *telemetry.Registry
	telemLabel string
	e2eProd    *telemetry.Producer
}

// chain is one plan's running stage drivers and their connections — the part
// of a Pipeline that Swap replaces.
type chain struct {
	p      *Pipeline
	plan   *core.Plan
	stages []*stageDriver
	in     chan *flight
	// wg tracks the stage drivers and the sink.
	wg sync.WaitGroup
	// closing is closed once the stage drivers have drained: it stops redial
	// loops and retry backoff waits.
	closing chan struct{}
	// redialWG tracks background redial goroutines.
	redialWG sync.WaitGroup

	// cmu guards clients, which grows when redials create connections.
	cmu     sync.Mutex
	clients []*workerClient
}

// WorkerStat aggregates one device's activity over the pipeline's lifetime.
type WorkerStat struct {
	// Tiles is the number of tiles the device executed.
	Tiles int
	// ComputeSeconds is the accumulated worker-reported compute time
	// (including any emulated-capacity throttling).
	ComputeSeconds float64
}

// PipelineOptions configure pipeline construction.
type PipelineOptions struct {
	// Seed is the shared weight seed (default 1).
	Seed int64
	// StageWindow caps how many tasks a stage driver may have dispatched
	// but not yet stitched. 1 is fully synchronous (send, compute, gather
	// one task at a time — the pre-v2 behaviour); the default 2 double-
	// buffers: the coordinator slices, serializes and sends task N+1's
	// tiles while the workers still compute task N.
	StageWindow int

	// ExecTimeout bounds every tile round trip (send through result). Zero
	// derives a per-stage deadline from the plan's modelled stage cost:
	// deadlineFloor + deadlineSlack × modelled stage seconds — generous
	// enough for honest slowness, finite so a wedged worker cannot stall the
	// pipeline. Negative disables deadlines entirely (a benchmarking/debug
	// escape hatch: a wedged worker can then stall the pipeline forever).
	ExecTimeout time.Duration
	// RetryBudget is how many times a transiently failed tile is re-executed
	// on a healthy replica before its task fails with a FaultError
	// (default 2; negative disables retries).
	RetryBudget int
	// RedialAttempts is how many exponential-backoff reconnects a lost
	// worker gets before it is marked down and its stage re-balanced across
	// the survivors (default 3; negative disables redial).
	RedialAttempts int
	// RedialBackoff is the initial reconnect backoff, doubled per attempt
	// (default 100ms). It also paces retryPart's wait for a redial to land.
	RedialBackoff time.Duration

	// Quantized runs the whole pipeline in int8: inputs are quantized once
	// at Submit, every stage boundary ships int8 tiles (4x smaller than
	// float32), workers execute the quantized kernels, and the final output
	// is dequantized into TaskResult.Output.
	Quantized bool

	// Telemetry receives the pipeline's samples: whole-task end-to-end
	// ("e2e"), per-stage round trips ("stage"), per-device worker compute
	// ("exec") and per-device, per-layer-kind kernel seconds ("kernel.conv",
	// ...). Nil gives the pipeline a private registry; WorkerStats and Health
	// read from it either way.
	Telemetry *telemetry.Registry
	// TelemetryLabel is the model label telemetry series are keyed under
	// (default: the plan's model name). The gateway sets it to the session
	// key so concurrent model variants stay distinguishable.
	TelemetryLabel string
}

// Deadline derivation: a hung worker is detected after deadlineFloor +
// deadlineSlack × the stage's modelled seconds, so emulated-slow devices get
// proportionally longer leashes. queueDepth is the per-stage input buffer.
const (
	deadlineSlack = 8.0
	deadlineFloor = 5 * time.Second
	queueDepth    = 8
)

// NewPipeline connects to the workers backing the plan's devices and starts
// the stage drivers. addrs maps cluster device index to worker address;
// every device holding a non-empty tile — in this plan or in one a later Swap
// installs — must be present.
func NewPipeline(plan *core.Plan, addrs map[int]string, opts PipelineOptions) (*Pipeline, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.StageWindow <= 0 {
		opts.StageWindow = 2
	}
	if opts.RetryBudget == 0 {
		opts.RetryBudget = 2
	} else if opts.RetryBudget < 0 {
		opts.RetryBudget = 0
	}
	if opts.RedialAttempts == 0 {
		opts.RedialAttempts = 3
	} else if opts.RedialAttempts < 0 {
		opts.RedialAttempts = 0
	}
	if opts.RedialBackoff <= 0 {
		opts.RedialBackoff = 100 * time.Millisecond
	}
	p := &Pipeline{
		spec:       wire.SpecFromModel(plan.Model),
		addrs:      addrs,
		opts:       opts,
		results:    make(chan TaskResult, queueDepth),
		telem:      opts.Telemetry,
		telemLabel: opts.TelemetryLabel,
	}
	if p.telem == nil {
		p.telem = telemetry.New(telemetry.Options{})
	}
	if p.telemLabel == "" {
		p.telemLabel = plan.Model.Name
	}
	p.e2eProd = p.series(-1, -1, telemetry.KindE2E).Producer()
	if opts.Quantized {
		var err error
		if p.scales, err = tensor.QuantScales(plan.Model, opts.Seed); err != nil {
			return nil, fmt.Errorf("runtime: quantization calibration: %w", err)
		}
	}
	if err := p.checkAddrs(plan); err != nil {
		return nil, err
	}
	c, err := p.connect(plan, false)
	if err != nil {
		return nil, err
	}
	p.cur.Store(c)
	return p, nil
}

// checkAddrs reports the first device of the plan that has no worker address.
func (p *Pipeline) checkAddrs(plan *core.Plan) error {
	for _, di := range plan.UsedDevices() {
		if _, ok := p.addrs[di]; !ok {
			return fmt.Errorf("runtime: no address for device %d", di)
		}
	}
	return nil
}

// dial connects one worker, loads the session's model on it and registers
// the connection for tear-down.
func (c *chain) dial(addr string, timeout time.Duration) (*workerClient, error) {
	wc, err := dialWorker(addr)
	if err != nil {
		return nil, err
	}
	wc.conn.SetWriteTimeout(timeout)
	if err := wc.loadModel(c.p.spec, c.p.opts.Seed, c.p.scales); err != nil {
		_ = wc.close()
		return nil, err
	}
	c.cmu.Lock()
	c.clients = append(c.clients, wc)
	c.cmu.Unlock()
	return wc, nil
}

// connect builds the chain for a validated plan whose devices all have
// addresses: dials and loads every slot, wires the stage channels and starts
// the drivers. A worker that cannot be reached fails construction — or, with
// redialLost (a swap, whose old chain is already gone), comes up as a lost
// slot on the ordinary redial path.
func (p *Pipeline) connect(plan *core.Plan, redialLost bool) (*chain, error) {
	c := &chain{
		p:       p,
		plan:    plan,
		in:      make(chan *flight, queueDepth),
		closing: make(chan struct{}),
	}
	calc := partition.NewCalc(plan.Model)
	for si, st := range plan.Stages {
		timeout := p.opts.ExecTimeout
		if timeout < 0 {
			timeout = 0 // deadlines off: waits block until the conn dies
		} else if timeout == 0 {
			timeout = deadlineFloor + time.Duration(st.Seconds()*deadlineSlack*float64(time.Second))
		}
		sd := &stageDriver{
			index:     si,
			stage:     st,
			slots:     make([]*workerSlot, len(st.DeviceIdx)),
			calc:      calc,
			out:       plan.Model.OutShape(st.To - 1),
			window:    p.opts.StageWindow,
			timeout:   timeout,
			stageProd: p.series(si, -1, telemetry.KindStage).Producer(),
			prods:     make(map[int]*deviceProds, len(st.DeviceIdx)),
			p:         p,
			c:         c,
		}
		sd.tiles = st.Tiles(sd.out.W)
		for k, di := range st.DeviceIdx {
			if sd.prods[di] == nil {
				sd.prods[di] = &deviceProds{exec: p.series(si, di, telemetry.KindExec).Producer()}
			}
			if sd.tiles[k].Empty() {
				continue
			}
			slot := &workerSlot{deviceIdx: di, addr: p.addrs[di]}
			sd.slots[k] = slot
			wc, err := c.dial(slot.addr, timeout)
			if err != nil && !redialLost {
				_ = c.stop()
				return nil, err
			}
			if err != nil {
				sd.noteFault(k, nil, FaultConnLost, err)
				continue
			}
			slot.workerID, slot.wc = wc.id, wc
		}
		c.stages = append(c.stages, sd)
	}

	// Wire the stage channels and start the drivers.
	prev := c.in
	for _, sd := range c.stages {
		next := make(chan *flight, queueDepth)
		c.wg.Add(1)
		go sd.run(prev, next, &c.wg)
		prev = next
	}
	c.wg.Add(1)
	go p.sink(prev, &c.wg)
	return c, nil
}

// sink turns the flights leaving a chain's last stage into results.
func (p *Pipeline) sink(last <-chan *flight, wg *sync.WaitGroup) {
	defer wg.Done()
	for f := range last {
		output := f.m.Tensor()
		if p.scales != nil {
			if f.err == nil {
				// Hand the caller float output regardless of transport
				// precision; the int8 map served its last hop.
				q := f.m.QTensor()
				output = q.Dequantize()
			}
			if f.owned {
				f.m.Recycle()
			}
		}
		done := time.Now()
		if f.err == nil {
			p.e2eProd.RecordAt(done, done.Sub(f.submitted).Seconds())
		}
		p.results <- TaskResult{
			ID:        f.id,
			Output:    output,
			Err:       f.err,
			Submitted: f.submitted,
			Done:      done,
			Spans:     f.spans,
		}
	}
}

// stop drains the chain and disconnects its workers: no more flights go in,
// the stage drivers finish what is in flight, redial loops end, connections
// close. The drain is bounded even under faults: every exec wait carries a
// deadline, retries and redials have budgets, so a wedged worker cannot hold
// it forever.
func (c *chain) stop() error {
	close(c.in)
	c.wg.Wait()
	close(c.closing)
	c.redialWG.Wait()
	var firstErr error
	for _, wc := range c.clients {
		err := wc.close()
		if err != nil && firstErr == nil && !errors.Is(err, errClosed) && wc.alive() {
			firstErr = err
		}
	}
	return firstErr
}

// Submit enqueues one input for inference and returns its task ID. It
// blocks when the pipeline's input queue is full, and while a Swap drains.
func (p *Pipeline) Submit(input tensor.Tensor) (int64, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return 0, errors.New("runtime: pipeline closed")
	}
	f := &flight{id: p.nextID.Add(1), submitted: time.Now(), m: tensor.MapOf(input)}
	if p.scales != nil {
		// Quantize once at the pipeline mouth; the input tensor itself is
		// not retained, matching the float path's never-recycle contract.
		f.m, f.owned = tensor.MapOfQ(tensor.QuantizeTensor(input, p.scales[0])), true
	}
	p.cur.Load().in <- f
	return f.id, nil
}

// Results delivers completed tasks in submission order, across swaps. The
// channel closes after Close once all in-flight tasks finish.
func (p *Pipeline) Results() <-chan TaskResult { return p.results }

// Swap replaces the running plan with another plan for the same model at a
// task boundary: new submissions wait while the tasks in flight drain out of
// the current chain, the new plan's slots are dialled and loaded (workers
// keep one executor per (model, seed), so nothing is rebuilt), and the new
// chain is installed. Everything a chain does not own carries on; the
// journal gains a plan-swapped event holding reason, the measurement that
// caused the swap. A Swap to the plan already running is a no-op. The stall
// is bounded — queueDepth tasks per stage under exec deadlines and retry
// budgets, then one dial and load per slot — and a worker that cannot be
// reached takes the redial and re-balance path instead of failing the swap.
func (p *Pipeline) Swap(plan *core.Plan, reason string) error {
	if plan == nil {
		return errors.New("runtime: swap to a nil plan")
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errors.New("runtime: pipeline closed")
	}
	old := p.cur.Load()
	if plan == old.plan {
		return nil
	}
	if plan.Model.Name != old.plan.Model.Name || !sameModel(plan.Model, old.plan.Model) {
		return fmt.Errorf("runtime: swap from a plan for %s to one for %s", old.plan.Model.Name, plan.Model.Name)
	}
	if err := p.checkAddrs(plan); err != nil {
		return err
	}
	_ = old.stop() // its connections are being dropped either way
	next, _ := p.connect(plan, true)
	p.cur.Store(next)
	p.faults.add(FaultEvent{Stage: -1, Device: -1, Kind: FaultPlanSwapped, Detail: reason})
	return nil
}

// Close stops accepting tasks, drains the pipeline and disconnects workers.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	err := p.cur.Load().stop()
	close(p.results)
	return err
}

// Plan returns the plan currently installed: the one NewPipeline was given,
// or the last one a Swap put in its place.
func (p *Pipeline) Plan() *core.Plan { return p.cur.Load().plan }

// FaultEvents returns a snapshot of the pipeline's fault journal: timeouts,
// lost connections, retries, redials, devices marked down, stage
// re-balances and plan swaps, in observation order. dropped counts events
// beyond the journal's cap.
func (p *Pipeline) FaultEvents() (events []FaultEvent, dropped int) {
	return p.faults.snapshot()
}

// DownDevices returns the cluster device indices currently marked down,
// sorted ascending, each once however many stages the device served.
func (p *Pipeline) DownDevices() []int {
	var down []int
	for _, sd := range p.cur.Load().stages {
		for _, slot := range sd.slots {
			if slot != nil && slot.isDown() {
				down = append(down, slot.deviceIdx)
			}
		}
	}
	sort.Ints(down)
	return slices.Compact(down)
}

// SLORebalance re-splits every stage's tiles from measured per-device
// execution times in the given telemetry window — the SLO watcher's control
// action, reusing the same divide-and-conquer balancer the fault path runs
// when a device dies. It returns how many stages changed layout.
func (p *Pipeline) SLORebalance(window time.Duration) int {
	if window <= 0 {
		window = p.telem.Window()
	}
	n := 0
	for _, sd := range p.cur.Load().stages {
		if sd.rebalanceMeasured(window) {
			n++
		}
	}
	return n
}

// Telemetry returns the pipeline's registry: the one attached at
// construction, or its private one.
func (p *Pipeline) Telemetry() *telemetry.Registry { return p.telem }

// series returns the pipeline's series for (stage, device, kind).
func (p *Pipeline) series(stage, device int, kind string) *telemetry.Series {
	return p.telem.Series(telemetry.Key{Model: p.telemLabel, Stage: stage, Device: device, Kind: kind})
}

// WorkerStats returns per-device activity, keyed by cluster device index:
// every tile the pipeline's exec series hold, over every stage and plan
// (swaps and redials included). Devices that have not executed a tile yet
// report zeros.
func (p *Pipeline) WorkerStats() map[int]WorkerStat {
	stats, _ := p.devices()
	return stats
}

// devices folds the pipeline's per-device series — exec and kernel.*, under
// its telemetry label — into per-device tile counts and compute seconds, and
// per-device kernel seconds for every layer kind (zeros included).
func (p *Pipeline) devices() (map[int]WorkerStat, map[int]map[string]float64) {
	stats, kinds := map[int]WorkerStat{}, map[int]map[string]float64{}
	for _, key := range p.telem.Keys() {
		if key.Model != p.telemLabel || key.Device < 0 {
			continue
		}
		s := p.telem.Series(key)
		ks := kinds[key.Device]
		if ks == nil {
			ks = make(map[string]float64, tensor.NumKinds)
			for _, name := range tensor.KindNames {
				ks[name] = 0
			}
			kinds[key.Device] = ks
		}
		if kind, ok := strings.CutPrefix(key.Kind, telemetry.KindKernel); ok {
			ks[kind] += s.Sum()
		} else if key.Kind == telemetry.KindExec {
			st := stats[key.Device]
			st.Tiles += int(s.Count())
			st.ComputeSeconds += s.Sum()
			stats[key.Device] = st
		}
	}
	return stats, kinds
}
