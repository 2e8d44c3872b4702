package main

import (
	"fmt"
	"net"
	gort "runtime"
	"strconv"
	"time"

	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/queueing"
	"pico/internal/runtime"
	"pico/internal/telemetry"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// peelRuntime drives a runtime.Pipeline directly on the workload's plan and
// workers, nproc tasks in flight, and reads TaskResult.Spans. It returns the
// bottleneck: the stage with the longest measured mean span.
func peelRuntime(cfg *runConfig, st *stack, p *pool, tr *tracer, plan *core.Plan, res *result) (bottleneck int, err error) {
	start := time.Now()
	pipe, err := runtime.NewPipeline(plan, st.lc.Addrs, runtime.PipelineOptions{Seed: weightSeed, Quantized: cfg.w.quant})
	if err != nil {
		return 0, fmt.Errorf("open pipeline: %w", err)
	}
	res.set("runtime.session_open_ms", ms(time.Since(start)), 1)

	inflight := gort.GOMAXPROCS(0)
	var sent []int // sent[id-1] is the pool index task id carries
	submit := func() error {
		i := len(sent) % poolSize
		sent = append(sent, i)
		_, err := pipe.Submit(p.tensors[i])
		return err
	}
	for i := 0; i < inflight; i++ {
		if err := submit(); err != nil {
			_ = pipe.Close()
			return 0, err
		}
	}
	var (
		taskMs, waitMs, sumMs []float64
		stageMs               = make([][]float64, len(plan.Stages))
		deadline              = time.Now().Add(cfg.window(0.2))
		begin                 = time.Now()
		runErr                error
	)
	for done := 0; done < len(sent); done++ {
		r := <-pipe.Results()
		if r.Err != nil || !tensor.Equal(r.Output, p.wantT[sent[r.ID-1]]) {
			runErr = fmt.Errorf("direct pipeline task %d: wrong output (err %v)", r.ID, r.Err)
			break
		}
		task := r.Done.Sub(r.Submitted)
		req := tr.nextReq()
		lane := int(r.ID-1) % inflight
		root := tr.add(span{name: "runtime.task", start: r.Submitted, end: r.Done, req: req, group: groupPipeline, lane: lane})
		var spans time.Duration
		for i, s := range r.Spans {
			d := s.End.Sub(s.Start)
			spans += d
			stageMs[i] = append(stageMs[i], ms(d))
			tr.add(span{name: "runtime.stage." + strconv.Itoa(i), start: s.Start, end: s.End, parent: root, req: req, group: groupPipeline, lane: lane})
		}
		taskMs = append(taskMs, ms(task))
		sumMs = append(sumMs, ms(spans))
		waitMs = append(waitMs, ms(task-spans))
		if time.Now().Before(deadline) {
			if runErr = submit(); runErr != nil {
				break
			}
		}
	}
	elapsed := time.Since(begin)
	workers := pipe.WorkerStats()
	faults, dropped := pipe.FaultEvents()
	if err := pipe.Close(); err != nil && runErr == nil {
		runErr = fmt.Errorf("pipeline close: %w", err)
	}
	if runErr != nil {
		return 0, runErr
	}

	tasks := float64(len(taskMs))
	var stageMean []float64
	overhead, compute := 0.0, 0.0
	for i, stg := range plan.Stages {
		stageMean = append(stageMean, mean(stageMs[i]))
		if stageMean[i] > stageMean[bottleneck] {
			bottleneck = i
		}
		// The stage waits for its slowest device; what the span holds beyond
		// that device's reported compute is slice, encode, send, queue,
		// decode and stitch.
		slowest := 0.0
		for _, di := range stg.DeviceIdx {
			ws := workers[di]
			compute += ws.ComputeSeconds
			if ws.Tiles > 0 && ws.ComputeSeconds/float64(ws.Tiles) > slowest {
				slowest = ws.ComputeSeconds / float64(ws.Tiles)
			}
		}
		overhead += stageMean[i] - slowest*1000
	}
	n := len(taskMs)
	res.set("runtime.tasks_per_s", tasks/elapsed.Seconds(), n)
	res.set("runtime.task_p50_ms", median(taskMs), n)
	res.set("runtime.stage_p50_ms.bottleneck", median(stageMs[bottleneck]), n)
	res.set("runtime.stage_sum_p50_ms", median(sumMs), n)
	res.set("runtime.interstage_wait_p50_ms", median(waitMs), n)
	res.set("runtime.stage_overhead_ms", overhead, n)
	res.set("runtime.worker_compute_ms_per_task", compute*1000/tasks, n)
	res.set("runtime.faults_retries", float64(len(faults)+dropped), 0)

	res.set("core.period_pred_over_meas", plan.PeriodSeconds*tasks/elapsed.Seconds(), n)
	res.set("core.latency_pred_over_meas", plan.LatencySeconds*1000/mean(taskMs), n)
	res.set("core.stage_imbalance", stageMean[bottleneck]/mean(stageMean), n)
	return bottleneck, nil
}

// engine runs the serial local executor in the workload's dtype, so the
// layer phase is written once: a feature map is a float Tensor or, for int8
// workloads, a QTensor.
type engine struct {
	exec  *tensor.Executor
	quant bool
}

type fmap struct {
	t tensor.Tensor
	q tensor.QTensor
}

func newEngine(m *nn.Model, quant bool) (*engine, error) {
	opts := []tensor.ExecutorOption{tensor.WithParallelism(1)}
	if quant {
		opts = append(opts, tensor.WithQuantized())
	}
	exec, err := tensor.NewExecutor(m, weightSeed, opts...)
	if err != nil {
		return nil, err
	}
	if quant {
		// Calibrate now, so it is not charged to the first timed call.
		if _, err := exec.QuantScales(); err != nil {
			return nil, err
		}
	}
	return &engine{exec: exec, quant: quant}, nil
}

func (e *engine) input(in tensor.Tensor) (fmap, error) {
	if !e.quant {
		return fmap{t: in}, nil
	}
	scales, err := e.exec.QuantScales()
	if err != nil {
		return fmap{}, err
	}
	return fmap{q: tensor.QuantizeTensor(in, scales[0])}, nil
}

func (e *engine) height(x fmap) int {
	if e.quant {
		return x.q.H
	}
	return x.t.H
}

func (e *engine) slice(x fmap, r partition.Range) fmap {
	if e.quant {
		return fmap{q: x.q.SliceRows(r.Lo, r.Hi)}
	}
	return fmap{t: x.t.SliceRows(r.Lo, r.Hi)}
}

func (e *engine) segment(from, to int, tile fmap, out partition.Range) (fmap, error) {
	if e.quant {
		q, err := e.exec.RunSegmentQ(from, to, tile.q, out)
		return fmap{q: q}, err
	}
	t, err := e.exec.RunSegment(from, to, tile.t, out)
	return fmap{t: t}, err
}

func (e *engine) stitch(strips []fmap, los []int, h int) (fmap, error) {
	if e.quant {
		qs := make([]tensor.QTensor, len(strips))
		for i, s := range strips {
			qs[i] = s.q
		}
		q, err := tensor.StitchRowsQ(qs, los, h)
		return fmap{q: q}, err
	}
	ts := make([]tensor.Tensor, len(strips))
	for i, s := range strips {
		ts[i] = s.t
	}
	t, err := tensor.StitchRows(ts, los, h)
	return fmap{t: t}, err
}

func (e *engine) recycle(x fmap) {
	if e.quant {
		tensor.RecycleQ(x.q)
	} else {
		tensor.Recycle(x.t)
	}
}

// forward runs the whole model through the executor's own entry point.
func (e *engine) forward(in tensor.Tensor) error {
	if e.quant {
		q, err := e.exec.RunQ(in)
		tensor.RecycleQ(q)
		return err
	}
	t, err := e.exec.Run(in)
	tensor.Recycle(t)
	return err
}

// full runs layers [from, to) over the whole map x at boundary from.
func (e *engine) full(from, to int, x fmap) (fmap, error) {
	out := partition.Full(e.exec.Model().OutShape(to - 1).H)
	need := e.exec.InputRange(from, to, out)
	if need.Len() == e.height(x) {
		return e.segment(from, to, x, out)
	}
	tile := e.slice(x, need)
	defer e.recycle(tile)
	return e.segment(from, to, tile, out)
}

// boundary returns the feature map entering layer idx for input in.
func (e *engine) boundary(idx int, in tensor.Tensor) (fmap, error) {
	x, err := e.input(in)
	if err != nil || idx == 0 {
		return x, err
	}
	return e.full(0, idx, x)
}

// repeatFor calls f until budget has passed, at least three times, and
// returns each call's duration in ms.
func repeatFor(budget time.Duration, f func() error) ([]float64, error) {
	var out []float64
	for begin := time.Now(); len(out) < 3 || time.Since(begin) < budget; {
		start := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}

// peelLayers times calls into each layer's public functions.
func peelLayers(cfg *runConfig, st *stack, m *nn.Model, tr *tracer, plan *core.Plan, bottleneck int, res *result) error {
	budget := time.Duration(300 * cfg.scale * float64(time.Millisecond))
	loops := int(1e6 * cfg.scale)
	in := tensor.RandomInput(m.Input, cfg.seed)
	if err := peelTensor(cfg, m, tr, plan, bottleneck, in, budget, res); err != nil {
		return err
	}
	if err := peelWire(cfg, st, m, plan, budget, res); err != nil {
		return err
	}

	// queueing: the admission path every request takes.
	est, err := queueing.NewEstimator(0.5, 10)
	if err != nil {
		return err
	}
	adm := queueing.Admission{Period: plan.PeriodSeconds, Bound: 30, MaxQueue: 64}
	admitted := 0
	start := time.Now()
	for i := 0; i < loops; i++ {
		est.Observe(float64(i) * 1e-3)
		if adm.Decide(est.Rate(), i&31).Admit {
			admitted++
		}
	}
	res.set("queueing.decide_ns", float64(time.Since(start).Nanoseconds())/float64(loops), loops)
	if admitted == 0 {
		return fmt.Errorf("queueing: admission loop admitted nothing")
	}

	// telemetry: one record on the hot path, one snapshot on a scrape.
	reg := telemetry.New(telemetry.Options{})
	var prods []*telemetry.Producer
	for s := 0; s < 8; s++ {
		prods = append(prods, reg.Series(telemetry.Key{Model: cfg.w.name, Stage: s, Device: -1, Kind: telemetry.KindStage}).Producer())
	}
	start = time.Now()
	for i := 0; i < loops; i++ {
		prods[i&7].Record(1e-3)
	}
	res.set("telemetry.record_ns", float64(time.Since(start).Nanoseconds())/float64(loops), loops)
	snaps, err := repeatFor(budget/3, func() error {
		if len(reg.Snapshot()) != len(prods) {
			return fmt.Errorf("telemetry: snapshot lost a series")
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("telemetry.snapshot_us", median(snaps)*1000, len(snaps))
	return nil
}

// peelTensor measures the serial executor: whole forwards, per-kind kernel
// seconds, every stage's slowest strip, split/stitch around the bottleneck
// stage, and (trace only) each nn.Layer on its own.
func peelTensor(cfg *runConfig, m *nn.Model, tr *tracer, plan *core.Plan, bottleneck int, in tensor.Tensor, budget time.Duration, res *result) error {
	eng, err := newEngine(m, cfg.w.quant)
	if err != nil {
		return err
	}
	forward := func() error { return eng.forward(in) }
	if err := forward(); err != nil { // builds weights, fills the arena
		return fmt.Errorf("tensor forward: %w", err)
	}
	kinds0 := eng.exec.KindSeconds()
	var ms0, ms1 gort.MemStats
	gort.ReadMemStats(&ms0)
	var fwd []float64
	tr.timed("tensor.forward", 0, func() { fwd, err = repeatFor(budget*2, forward) })
	if err != nil {
		return err
	}
	gort.ReadMemStats(&ms1)
	n := float64(len(fwd))
	res.set("tensor.forward_ms", median(fwd), len(fwd))
	res.set("tensor.gmacs_per_s", float64(m.TotalFLOPs())/median(fwd)/1e6, len(fwd))
	for kind, s := range eng.exec.KindSeconds() {
		res.set("tensor.kind_ms."+kind, (s-kinds0[kind])*1000/n, len(fwd))
	}
	res.set("tensor.alloc_kb_per_forward", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/n, len(fwd))

	// Each nn.Layer alone, over the whole map: spans only.
	x, err := eng.input(in)
	if err != nil {
		return err
	}
	chain := tr.begin("tensor.layers", 0)
	for i := 0; i < m.NumLayers(); i++ {
		var y fmap
		tr.timed("tensor.layer."+strconv.Itoa(i), chain, func() { y, err = eng.full(i, i+1, x) })
		if err != nil {
			return fmt.Errorf("tensor layer %d: %w", i, err)
		}
		x = y
	}
	tr.finish(chain)

	// Every stage's largest strip; the bottleneck's is the named metric.
	for si, stg := range plan.Stages {
		part := partition.Range{}
		for _, p := range stg.Parts {
			if p.Len() > part.Len() {
				part = p
			}
		}
		xb, err := eng.boundary(stg.From, in)
		if err != nil {
			return err
		}
		tile := eng.slice(xb, eng.exec.InputRange(stg.From, stg.To, part))
		var seg []float64
		tr.timed("tensor.segment", 0, func() {
			seg, err = repeatFor(budget/2, func() error {
				y, err := eng.segment(stg.From, stg.To, tile, part)
				eng.recycle(y)
				return err
			})
		})
		if err != nil {
			return fmt.Errorf("tensor segment stage %d: %w", si, err)
		}
		if si != bottleneck {
			continue
		}
		res.set("tensor.segment_ms.bottleneck", median(seg), len(seg))
		if err := peelPartition(eng, tr, stg, xb, budget/2, res); err != nil {
			return err
		}
	}

	calc := partition.NewCalc(m)
	var attempted int64
	for _, stg := range plan.Stages {
		for _, p := range stg.Parts {
			if !p.Empty() {
				attempted += calc.SegmentRegionFLOPs(stg.From, stg.To, p)
			}
		}
	}
	whole := m.TotalFLOPs()
	res.set("partition.redundant_mac_share", float64(attempted-whole)/float64(whole), 0)
	return nil
}

// peelPartition times what a stage driver does around the workers: slice the
// boundary map into each strip's input rows, stitch the strips' outputs.
func peelPartition(eng *engine, tr *tracer, stg core.Stage, xb fmap, budget time.Duration, res *result) error {
	var (
		parts []partition.Range
		outs  []fmap
		los   []int
	)
	for _, p := range stg.Parts {
		if p.Empty() {
			continue
		}
		tile := eng.slice(xb, eng.exec.InputRange(stg.From, stg.To, p))
		y, err := eng.segment(stg.From, stg.To, tile, p)
		if err != nil {
			return err
		}
		parts, outs, los = append(parts, p), append(outs, y), append(los, p.Lo)
	}
	outH := eng.exec.Model().OutShape(stg.To - 1).H
	var (
		us  []float64
		err error
	)
	tr.timed("partition.split_stitch", 0, func() {
		us, err = repeatFor(budget, func() error {
			for _, p := range parts {
				eng.recycle(eng.slice(xb, eng.exec.InputRange(stg.From, stg.To, p)))
			}
			y, err := eng.stitch(outs, los, outH)
			eng.recycle(y)
			return err
		})
	})
	if err != nil {
		return fmt.Errorf("partition split/stitch: %w", err)
	}
	res.set("partition.split_stitch_us", median(us)*1000, len(us))
	return nil
}

// peelWire measures the codecs on the plan's largest stage-boundary map, a
// ping round trip to a loopback worker, and computes the bytes one task puts
// on the wire from the plan's strip geometry.
func peelWire(cfg *runConfig, st *stack, m *nn.Model, plan *core.Plan, budget time.Duration, res *result) error {
	shape := m.Output()
	for _, stg := range plan.Stages {
		if s := m.InShape(stg.From); s.Elems() > shape.Elems() {
			shape = s
		}
	}
	t := tensor.RandomInput(shape, cfg.seed)
	q := tensor.QuantizeTensor(t, 1.0/127)
	fbytes, qbytes := encode(t), append([]byte(nil), wire.EncodeQTensor(q)...)
	codecs := []struct {
		name  string
		bytes int
		f     func() error
	}{
		{"wire.encode_gbps", len(fbytes), func() error { wire.PutBuffer(wire.EncodeTensor(t)); return nil }},
		{"wire.decode_gbps", len(fbytes), func() error {
			d, err := wire.DecodeTensor(shape.C, shape.H, shape.W, fbytes)
			tensor.Recycle(d)
			return err
		}},
		{"wire.qencode_gbps", len(qbytes), func() error { wire.PutBuffer(wire.EncodeQTensor(q)); return nil }},
		{"wire.qdecode_gbps", len(qbytes), func() error {
			d, err := wire.DecodeQTensor(shape.C, shape.H, shape.W, q.Scale, qbytes)
			tensor.RecycleQ(d)
			return err
		}},
	}
	for _, c := range codecs {
		// Batches of 64 calls, so a sample is long against the clock read.
		batch, err := repeatFor(budget/4, func() error {
			for i := 0; i < 64; i++ {
				if err := c.f(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		res.set(c.name, float64(64*c.bytes)/(median(batch)*1e6), 64*len(batch))
	}

	rtt, err := pingWorker(st.lc.Addrs[0], int(2000*cfg.scale)+10)
	if err != nil {
		return err
	}
	res.set("wire.frame_rtt_us", median(rtt)*1000, len(rtt))

	calc := partition.NewCalc(m)
	var bytes int64
	for _, stg := range plan.Stages {
		for _, p := range stg.Parts {
			if !p.Empty() {
				in, out := calc.SegmentIOBytes(stg.From, stg.To, p)
				bytes += in + out
			}
		}
	}
	if plan.Quantized {
		bytes /= 4 // SegmentIOBytes counts float32; int8 ships one byte per element
	}
	res.set("wire.bytes_per_task", float64(bytes), 0)
	return nil
}

// pingWorker times n MsgPing/MsgPong round trips over a fresh wire.Conn, ms.
func pingWorker(addr string, n int) ([]float64, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("ping dial: %w", err)
	}
	conn := wire.NewConn(c)
	defer conn.Close() // nothing buffered: every ping was answered
	if err := conn.SetReadDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return nil, err
	}
	if msg, err := conn.Recv(); err != nil || msg.Type != wire.MsgHello {
		return nil, fmt.Errorf("ping: no hello from %s: %v", addr, err)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := conn.SendRequest(wire.MsgPing, uint64(i+1), nil, nil); err != nil {
			return nil, fmt.Errorf("ping send: %w", err)
		}
		msg, err := conn.Recv()
		if err != nil || msg.Type != wire.MsgPong {
			return nil, fmt.Errorf("ping %d: %v", i, err)
		}
		wire.PutBuffer(msg.Payload)
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}
