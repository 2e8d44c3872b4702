package runtime

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// testPlan builds a small multi-stage plan over a toy model for n devices.
func testPlan(t *testing.T, n int) *core.Plan {
	t.Helper()
	m := nn.ToyChain("rt", 6, 2, 6, 32)
	cl := cluster.Homogeneous(n, 600e6)
	plan, err := core.PlanPipeline(m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func startCluster(t *testing.T, n int, speeds []float64) *LocalCluster {
	t.Helper()
	lc, err := StartLocalCluster(n, speeds)
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

func TestPipelineMatchesLocalReference(t *testing.T) {
	plan := testPlan(t, 4)
	if len(plan.Stages) < 2 {
		t.Fatalf("want a multi-stage plan, got %d stages", len(plan.Stages))
	}
	lc := startCluster(t, 4, nil)
	const seed = 77
	p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			t.Errorf("pipeline close: %v", err)
		}
	}()

	ref, err := tensor.NewExecutor(plan.Model, seed)
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 5
	inputs := make([]tensor.Tensor, tasks)
	for i := range inputs {
		inputs[i] = tensor.RandomInput(plan.Model.Input, int64(i))
	}
	go func() {
		for _, in := range inputs {
			if _, err := p.Submit(in); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
		}
	}()
	got := 0
	for res := range p.Results() {
		if res.Err != nil {
			t.Fatalf("task %d: %v", res.ID, res.Err)
		}
		want, err := ref.Run(inputs[res.ID-1])
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(want, res.Output) {
			t.Fatalf("task %d: distributed output differs by %g", res.ID, tensor.MaxAbsDiff(want, res.Output))
		}
		got++
		if got == tasks {
			break
		}
	}
}

func TestPipelineResultsInSubmissionOrder(t *testing.T) {
	plan := testPlan(t, 3)
	lc := startCluster(t, 3, nil)
	p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 8
	go func() {
		for i := 0; i < tasks; i++ {
			if _, err := p.Submit(tensor.RandomInput(plan.Model.Input, int64(i))); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
		}
		if err := p.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	var ids []int64
	for res := range p.Results() {
		if res.Err != nil {
			t.Fatalf("task %d: %v", res.ID, res.Err)
		}
		ids = append(ids, res.ID)
	}
	if len(ids) != tasks {
		t.Fatalf("completed %d of %d", len(ids), tasks)
	}
	for i, id := range ids {
		if id != int64(i+1) {
			t.Fatalf("out of order: %v", ids)
		}
	}
}

// TestSubmitToContract pins the caller-owned result slot: each task answers
// on its own slot with its ID and byte-exact output, an unbuffered slot is
// refused before it consumes a task ID, slots nobody reads stall neither the
// sink nor Close, and a plain Submit issued after them still arrives in order
// on Results().
func TestSubmitToContract(t *testing.T) {
	plan := testPlan(t, 3)
	lc := startCluster(t, 3, nil)
	const seed = 5
	p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	ref, err := tensor.NewExecutor(plan.Model, seed)
	if err != nil {
		t.Fatal(err)
	}
	watchdog := time.After(60 * time.Second)
	receive := func(ch <-chan TaskResult, what string) TaskResult {
		t.Helper()
		select {
		case res := <-ch:
			return res
		case <-watchdog:
			t.Fatalf("watchdog: no result on %s", what)
		}
		return TaskResult{}
	}
	// Read slots, abandoned slots (more than the stage queues hold, so a
	// sink blocked on one would wedge), then plain submits: task IDs 1.. in
	// that order.
	const read, abandoned, plain = 4, 3 * queueDepth, 3
	inputs := make([]tensor.Tensor, read+abandoned+plain)
	for i := range inputs {
		inputs[i] = tensor.RandomInput(plan.Model.Input, int64(i))
	}
	check := func(res TaskResult, i int) {
		t.Helper()
		if res.Err != nil || res.ID != int64(i+1) {
			t.Fatalf("task %d: got ID %d err %v", i+1, res.ID, res.Err)
		}
		want, err := ref.Run(inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(want, res.Output) {
			t.Fatalf("task %d: output differs from a local run by %g", res.ID, tensor.MaxAbsDiff(want, res.Output))
		}
	}

	for _, slot := range []chan TaskResult{make(chan TaskResult), nil} {
		if id, err := p.SubmitTo(inputs[0], slot); err == nil {
			t.Fatalf("unbuffered slot accepted as task %d", id)
		}
	}
	slots := make([]chan TaskResult, read+abandoned)
	for i := range slots {
		slots[i] = make(chan TaskResult, 1)
		id, err := p.SubmitTo(inputs[i], slots[i])
		if err != nil || id != int64(i+1) {
			t.Fatalf("SubmitTo %d: id %d err %v", i, id, err)
		}
	}
	for i := 0; i < plain; i++ {
		if id, err := p.Submit(inputs[read+abandoned+i]); err != nil || id != int64(read+abandoned+i+1) {
			t.Fatalf("Submit %d: id %d err %v", i, id, err)
		}
	}
	for i := 0; i < read; i++ {
		check(receive(slots[i], fmt.Sprintf("slot %d", i)), i)
	}
	for i := 0; i < plain; i++ {
		check(receive(p.Results(), "Results()"), read+abandoned+i)
	}

	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-watchdog:
		t.Fatal("watchdog: Close wedged behind unread slots")
	}
	if res, ok := <-p.Results(); ok {
		t.Fatalf("Results() delivered task %d after Close, want it closed", res.ID)
	}
	for i := read; i < read+abandoned; i++ {
		if len(slots[i]) != 1 {
			t.Fatalf("abandoned slot %d holds %d results, want 1", i, len(slots[i]))
		}
	}
}

func TestPipelineOverlapsStages(t *testing.T) {
	// Hand-build a two-stage plan with identical COMPUTE per stage (the
	// worker emulation throttles compute only, not communication), so
	// pipelined tasks must overlap cleanly: six uniform 8->8 convolutions,
	// three per stage.
	// The model is deliberately tiny and the emulated speed low: the
	// throttling sleep must dwarf real compute so stage overlap is visible
	// even on a single-core machine under the race detector (sleeps
	// overlap; real compute on one core cannot).
	layers := make([]nn.Layer, 6)
	for i := range layers {
		layers[i] = nn.Conv3x3("c"+strconv.Itoa(i), 4, nn.ReLU)
	}
	m := &nn.Model{Name: "ov", Input: nn.Shape{C: 4, H: 16, W: 16}, Layers: layers}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	cl := cluster.Homogeneous(2, 600e6)
	plan := &core.Plan{
		Model:   m,
		Cluster: cl,
		Stages: []core.Stage{
			{From: 0, To: 3, DeviceIdx: []int{0}, Parts: []partition.Range{partition.Full(m.OutShape(2).H)}},
			{From: 3, To: 6, DeviceIdx: []int{1}, Parts: []partition.Range{partition.Full(m.OutShape(5).H)}},
		},
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	// Throttle hard enough that emulated compute dominates scheduling and
	// race-detector overheads.
	speeds := []float64{2e6, 2e6}
	lc := startCluster(t, 2, speeds)
	p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	in := tensor.RandomInput(plan.Model.Input, 3)

	// Single-task latency.
	start := time.Now()
	if _, err := p.Submit(in); err != nil {
		t.Fatal(err)
	}
	res := <-p.Results()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	single := time.Since(start)

	const tasks = 4
	start = time.Now()
	go func() {
		for i := 0; i < tasks; i++ {
			if _, err := p.Submit(in); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
		}
	}()
	for i := 0; i < tasks; i++ {
		res := <-p.Results()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	batch := time.Since(start)
	// Perfect pipelining would take ~single + (tasks-1)*period. Require
	// clear overlap: better than 80% of serial execution.
	if batch >= time.Duration(float64(single)*float64(tasks)*0.8) {
		t.Fatalf("no pipelining: single %v, %d tasks took %v", single, tasks, batch)
	}
}

func TestHeterogeneousEmulatedSpeeds(t *testing.T) {
	m := nn.ToyChain("het", 4, 2, 6, 32)
	cl := cluster.PaperHeterogeneous()
	// Shrink to 4 devices for the test.
	cl.Devices = cl.Devices[:4]
	plan, err := core.PlanPipeline(m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	speeds := make([]float64, 4)
	for i, d := range cl.Devices {
		// Scale emulated speeds up so the test stays fast but ratios hold.
		speeds[i] = d.EffectiveSpeed() * 50
	}
	lc := startCluster(t, 4, speeds)
	p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ref, err := tensor.NewExecutor(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomInput(m.Input, 9)
	want, err := ref.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(in); err != nil {
		t.Fatal(err)
	}
	res := <-p.Results()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !tensor.Equal(want, res.Output) {
		t.Fatalf("heterogeneous output differs by %g", tensor.MaxAbsDiff(want, res.Output))
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	plan := testPlan(t, 2)
	lc := startCluster(t, 2, nil)
	p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(tensor.RandomInput(plan.Model.Input, 1)); err == nil {
		t.Fatal("submit after close succeeded")
	}
	// Double close is a no-op.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMissingWorkerAddress(t *testing.T) {
	plan := testPlan(t, 2)
	lc := startCluster(t, 1, nil)
	addrs := map[int]string{0: lc.Addrs[0]} // device 1 missing
	if _, err := NewPipeline(plan, addrs, PipelineOptions{}); err == nil {
		t.Fatal("missing address accepted")
	}
}

func TestUnreachableWorker(t *testing.T) {
	plan := testPlan(t, 2)
	addrs := map[int]string{0: "127.0.0.1:1", 1: "127.0.0.1:1"}
	if _, err := NewPipeline(plan, addrs, PipelineOptions{}); err == nil {
		t.Fatal("unreachable worker accepted")
	}
}

// exec is the synchronous request/response form of startExec + waitExec,
// without a deadline.
func (wc *workerClient) exec(out partition.Rect, tile tensor.FMap) (tensor.FMap, wire.ExecResultHeader, error) {
	c, err := wc.startExec(out, tile)
	if err != nil {
		return tensor.FMap{}, wire.ExecResultHeader{}, err
	}
	res, rh, _, err := c.waitExec(controlTimeout)
	return res, rh, err
}

// execT is exec for a float32 tile, returning the reported compute seconds.
func (wc *workerClient) execT(out partition.Rect, tile tensor.Tensor) (tensor.Tensor, float64, error) {
	res, rh, err := wc.exec(out, tensor.MapOf(tile))
	return res.Tensor(), rh.ComputeSeconds, err
}

// whole is the rect of a whole feature map of the given shape.
func whole(s nn.Shape) partition.Rect { return partition.FullRect(s.H, s.W) }

// rows is the full-width row strip [lo, hi) of a feature map of shape s.
func rows(s nn.Shape, r partition.Range) partition.Rect {
	return partition.Rect{Rows: r, Cols: partition.Full(s.W)}
}

// dialLoaded dials a worker and loads [from, to) of m (float32) on the new
// connection, which the test's cleanup closes.
func dialLoaded(t *testing.T, addr string, m *nn.Model, seed int64, from, to int) *workerClient {
	t.Helper()
	wc, err := dialWorker(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = wc.close() })
	if err := wc.loadModel(wire.SpecFromModel(m), seed, nil, from, to); err != nil {
		t.Fatal(err)
	}
	return wc
}

func (wc *workerClient) ping() error {
	msg, err := wc.roundTrip(wire.MsgPing, nil, nil)
	if err != nil {
		return err
	}
	defer wire.PutBuffer(msg.Payload)
	if msg.Type != wire.MsgPong {
		return fmt.Errorf("runtime: %s: unexpected %v to ping", wc.id, msg.Type)
	}
	return nil
}

// TestWorkerRejectsExecWithoutModel: an exec runs what its own connection's
// load bound, so one on a connection that loaded nothing is refused with an
// error frame — while another connection to the same worker has the model
// loaded — and the connection keeps serving.
func TestWorkerRejectsExecWithoutModel(t *testing.T) {
	lc := startCluster(t, 1, nil)
	m := nn.ToyChain("loaded", 1, 0, 1, 4)
	loaded := dialLoaded(t, lc.Addrs[0], m, 1, 0, m.NumLayers())
	wc, err := dialWorker(lc.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()
	tile := tensor.RandomInput(m.Input, 1)
	for i := 0; i < 2; i++ {
		_, _, err = wc.execT(whole(m.Output()), tile)
		if err == nil || !strings.Contains(err.Error(), "not loaded") {
			t.Fatalf("exec %d without a load: err = %v, want model-not-loaded", i, err)
		}
		if err := wc.ping(); err != nil {
			t.Fatalf("connection did not survive the refusal: %v", err)
		}
	}
	if _, _, err := loaded.execT(whole(m.Output()), tile); err != nil {
		t.Fatalf("exec on the loaded connection: %v", err)
	}
}

// TestExecRunsItsConnectionsLoad: one worker keeps one executor per (name,
// seed), and a load of a different network under the same name and seed
// replaces it — but each connection runs the network its own load bound. Two
// connections load a 4- and an 8-channel chain named alike; each one's exec,
// interleaved, is byte-identical to a local run of its own network.
func TestExecRunsItsConnectionsLoad(t *testing.T) {
	const seed = 3
	lc := startCluster(t, 1, nil)
	models := []*nn.Model{nn.ToyChain("same", 2, 0, 4, 16), nn.ToyChain("same", 2, 0, 8, 16)}
	var conns []*workerClient
	for _, m := range models {
		conns = append(conns, dialLoaded(t, lc.Addrs[0], m, seed, 0, m.NumLayers()))
	}
	in := tensor.RandomInput(models[0].Input, 7)
	for round := 0; round < 2; round++ {
		for i, m := range models {
			ref, err := tensor.NewExecutor(m, seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Run(in)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := conns[i].execT(whole(m.Output()), in)
			if err != nil {
				t.Fatalf("round %d, %d-channel model: %v", round, m.Output().C, err)
			}
			if !tensor.Equal(want, got) {
				t.Fatalf("round %d, %d-channel model: got a %dx%dx%d tile, want a local run's %dx%dx%d",
					round, m.Output().C, got.C, got.H, got.W, want.C, want.H, want.W)
			}
		}
	}
}

// TestExecRunsTheLoadItWasReadUnder: execs still queued when their
// connection is re-loaded for another segment run the segment bound when the
// worker read them. The worker is throttled so each tile takes about 50 ms:
// the second exec waits in the queue behind the first while the re-load is
// read and answered.
func TestExecRunsTheLoadItWasReadUnder(t *testing.T) {
	m := nn.ToyChain("reload-race", 4, 0, 4, 24)
	const seed = 5
	ref, err := tensor.NewExecutor(m, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := whole(m.OutShape(1))
	lc := startCluster(t, 1, []float64{float64(ref.TileFLOPs(0, 2, out)) / 0.05})
	wc := dialLoaded(t, lc.Addrs[0], m, seed, 0, 2)
	in := tensor.RandomInput(m.Input, 1)
	want, err := ref.RunSegment(0, 2, in, out.Rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := wc.loadModel(wire.SpecFromModel(m), seed, nil, 0, 2); err != nil {
			t.Fatal(err)
		}
		var calls []*call
		for range 2 {
			c, err := wc.startExec(out, tensor.MapOf(in))
			if err != nil {
				t.Fatal(err)
			}
			calls = append(calls, c)
		}
		if err := wc.loadModel(wire.SpecFromModel(m), seed, nil, 2, m.NumLayers()); err != nil {
			t.Fatal(err)
		}
		for k, c := range calls {
			got, _, _, err := c.waitExec(controlTimeout)
			if err != nil {
				t.Fatalf("exec %d read before the re-load: %v", k, err)
			}
			if !tensor.Equal(want, got.Tensor()) {
				t.Fatalf("exec %d read before the re-load ran another segment than its own", k)
			}
		}
	}
}

func TestWorkerPing(t *testing.T) {
	lc := startCluster(t, 1, nil)
	wc, err := dialWorker(lc.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()
	if err := wc.ping(); err != nil {
		t.Fatal(err)
	}
}

// TestDialRefusesProtocolSkew: a peer whose hello names the previous
// protocol version fails closed at dial, with an error naming both versions.
func TestDialRefusesProtocolSkew(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		conn := wire.NewConn(c)
		_ = conn.Send(wire.MsgHello, wire.HelloHeader{NodeID: "old", Version: wire.ProtocolVersion - 1}, nil)
		_, _ = conn.Recv() // hold the connection until the dialer hangs up
	}()
	wc, err := dialWorker(ln.Addr().String())
	if err == nil {
		_ = wc.close()
		t.Fatal("a peer on the previous protocol version was accepted")
	}
	if want := fmt.Sprintf("protocol %d, want %d", wire.ProtocolVersion-1, wire.ProtocolVersion); !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to name %q", err, want)
	}
}

func TestWorkerRejectsInvalidModel(t *testing.T) {
	lc := startCluster(t, 1, nil)
	wc, err := dialWorker(lc.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()
	err = wc.loadModel(wire.ModelSpec{Name: "bad"}, 1, nil, 0, 1)
	if err == nil || !strings.Contains(err.Error(), "invalid model") {
		t.Fatalf("invalid model: err = %v, want an invalid-model refusal", err)
	}
}

func TestWorkerExecBadTile(t *testing.T) {
	lc := startCluster(t, 1, nil)
	wc, err := dialWorker(lc.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()
	m := nn.ToyChain("w", 2, 0, 4, 16)
	if err := wc.loadModel(wire.SpecFromModel(m), 3, nil, 0, m.NumLayers()); err != nil {
		t.Fatal(err)
	}
	// Tile too small for the requested range.
	tile := tensor.RandomInput(nn.Shape{C: 1, H: 4, W: 16}, 1)
	_, _, err = wc.execT(whole(m.Output()), tile)
	if err == nil {
		t.Fatal("undersized tile accepted")
	}
	// So is a region past the output map, even with exactly the input tile
	// it would read.
	fullIn := tensor.RandomInput(m.Input, 1)
	past := rows(m.Output(), partition.Range{Lo: 0, Hi: m.Output().H + 4})
	need := partition.NewCalc(m).TileRects(0, m.NumLayers(), past)[0]
	if _, _, err := wc.exec(past, tensor.MapOf(fullIn).SliceRect(need)); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("region %v of a %v output: err = %v, want an outside-the-map refusal", past, m.Output(), err)
	}
	// The connection must survive the errors for the next request.
	out, _, err := wc.execT(whole(m.Output()), fullIn)
	if err != nil {
		t.Fatalf("recovery exec failed: %v", err)
	}
	ref, err := tensor.NewExecutor(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(fullIn)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(want, out) {
		t.Fatal("worker result differs from reference")
	}
}

func TestGraphModelOverPipeline(t *testing.T) {
	m := nn.TinyGraph()
	cl := cluster.Homogeneous(3, 600e6)
	plan, err := core.PlanPipeline(m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lc := startCluster(t, 3, nil)
	p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ref, err := tensor.NewExecutor(m, 11)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomInput(m.Input, 21)
	want, err := ref.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(in); err != nil {
		t.Fatal(err)
	}
	res := <-p.Results()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !tensor.Equal(want, res.Output) {
		t.Fatalf("graph pipeline differs by %g", tensor.MaxAbsDiff(want, res.Output))
	}
}

// TestSeparableGraphPlansAndRuns: a valid graph model whose block paths hold a
// depthwise convolution and a 1x11 kernel used to panic the planner — the row
// back-propagator advanced block paths with a made-up one-channel, eight-wide
// shape. With one geometry the planner sees the path at its real shapes: the
// model plans on the paper's cluster and on three devices, the strip rows are
// the rows of the rects the engine executes, and the plan runs on sockets
// byte-identically to a local run in both precisions.
func TestSeparableGraphPlansAndRuns(t *testing.T) {
	m := nn.TinySeparable()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	calc := partition.NewCalc(m)
	out := m.Output()
	for _, rows := range partition.Equal(out.H, 3) {
		rects := calc.TileRects(0, m.NumLayers(), partition.Rect{Rows: rows, Cols: partition.Full(out.W)})
		for i, r := range calc.SegmentRanges(0, m.NumLayers(), rows) {
			if r != rects[i].Rows {
				t.Fatalf("rows %v boundary %d: SegmentRanges %v, TileRects %v", rows, i, r, rects[i])
			}
		}
	}
	if plan, err := core.PlanPipeline(m, cluster.PaperHeterogeneous(), core.Options{}); err != nil || len(plan.UsedDevices()) < 2 {
		t.Fatalf("paper cluster: plan %+v, err %v", plan, err)
	}
	lc := startCluster(t, 3, nil)
	for _, quant := range []bool{false, true} {
		const seed = 23
		plan, err := core.PlanPipeline(m, cluster.Homogeneous(3, 600e6), core.Options{Quantized: quant})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.UsedDevices()) < 2 {
			t.Fatalf("quant=%v: not a multi-device plan:\n%s", quant, plan.Describe())
		}
		p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{Seed: seed, Quantized: quant})
		if err != nil {
			t.Fatal(err)
		}
		refOpts := []tensor.ExecutorOption{}
		if quant {
			refOpts = append(refOpts, tensor.WithQuantized())
		}
		ref, err := tensor.NewExecutor(m, seed, refOpts...)
		if err != nil {
			t.Fatal(err)
		}
		for task := int64(0); task < 3; task++ {
			in := tensor.RandomInput(m.Input, task)
			if want, got := localRun(t, ref, quant, in), inferOne(t, p, in); !tensor.Equal(want, got) {
				t.Fatalf("quant=%v task %d: distributed output differs by %g", quant, task, tensor.MaxAbsDiff(want, got))
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestManualStageSplitMatchesWorkers(t *testing.T) {
	// Drive two workers by hand through one stage: split, distribute,
	// stitch — the Fig. 6 workflow at its smallest.
	m := nn.ToyChain("m", 3, 0, 4, 24)
	lc := startCluster(t, 2, nil)
	var clients []*workerClient
	for i := 0; i < 2; i++ {
		wc, err := dialWorker(lc.Addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		defer wc.close()
		if err := wc.loadModel(wire.SpecFromModel(m), 9, nil, 0, m.NumLayers()); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, wc)
	}
	ref, err := tensor.NewExecutor(m, 9)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomInput(m.Input, 2)
	want, err := ref.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	parts := partition.Equal(m.Output().H, 2)
	var strips []tensor.Tensor
	var los []int
	for k, part := range parts {
		inR := ref.InputRange(0, m.NumLayers(), part)
		tile := in.SliceRows(inR.Lo, inR.Hi)
		out, _, err := clients[k].execT(rows(m.Output(), part), tile)
		if err != nil {
			t.Fatal(err)
		}
		strips = append(strips, out)
		los = append(los, part.Lo)
	}
	got, err := tensor.StitchRows(strips, los, m.Output().H)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(want, got) {
		t.Fatal("manual stage split differs from reference")
	}
}

func TestClientManyRequestsInFlight(t *testing.T) {
	// One shared connection, many goroutines with overlapping exec requests:
	// the multiplexer must route every response to its caller, and every
	// result must stay bit-identical to the reference.
	m := nn.ToyChain("mux", 2, 0, 4, 24)
	lc := startCluster(t, 1, nil)
	wc, err := dialWorker(lc.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()
	if err := wc.loadModel(wire.SpecFromModel(m), 5, nil, 0, m.NumLayers()); err != nil {
		t.Fatal(err)
	}
	ref, err := tensor.NewExecutor(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	outH := m.Output().H
	parts := partition.Equal(outH, 4) // 4 distinct strip geometries
	wants := make([]tensor.Tensor, len(parts))
	inputs := make([]tensor.Tensor, len(parts))
	in := tensor.RandomInput(m.Input, 13)
	for k, part := range parts {
		inR := ref.InputRange(0, m.NumLayers(), part)
		inputs[k] = in.SliceRows(inR.Lo, inR.Hi)
		full, err := ref.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		wants[k] = full.SliceRows(part.Lo, part.Hi)
	}
	const goroutines, perG = 8, 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := (g + i) % len(parts)
				out, comp, err := wc.execT(rows(m.Output(), parts[k]), inputs[k])
				if err != nil {
					t.Errorf("goroutine %d req %d: %v", g, i, err)
					return
				}
				if comp <= 0 {
					t.Errorf("goroutine %d req %d: compute time %g", g, i, comp)
				}
				if !tensor.Equal(wants[k], out) {
					t.Errorf("goroutine %d req %d: strip %d differs from reference", g, i, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWorkerShutdownSeversLingeringConns pins the graceful-drain bound: a
// coordinator that connects and then never hangs up must not keep Shutdown
// waiting past its grace budget — the lingering connection is severed and
// the serve loop returns.
func TestWorkerShutdownSeversLingeringConns(t *testing.T) {
	w, err := NewWorker("shutdown-test", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- w.Serve() }()

	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewConn(conn)
	defer wc.Close()
	if msg, err := wc.Recv(); err != nil || msg.Type != wire.MsgHello {
		t.Fatalf("hello: %v %v", msg, err)
	}

	start := time.Now()
	if err := w.Shutdown(100 * time.Millisecond); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("shutdown took %v despite a 100ms grace", waited)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve loop never returned after Shutdown")
	}
	// The lingering connection was severed server-side.
	if _, err := wc.Recv(); err == nil {
		t.Fatal("lingering connection still alive after Shutdown")
	}
}

// TestWorkerShutdownWaitsForPoliteConns is the complementary case: when the
// peer hangs up within the grace budget, Shutdown returns without severing.
func TestWorkerShutdownWaitsForPoliteConns(t *testing.T) {
	w, err := NewWorker("shutdown-polite", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- w.Serve() }()

	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wc := wire.NewConn(conn)
	if msg, err := wc.Recv(); err != nil || msg.Type != wire.MsgHello {
		t.Fatalf("hello: %v %v", msg, err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		_ = wc.Close()
	}()
	if err := w.Shutdown(30 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
