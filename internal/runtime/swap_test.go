package runtime

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/schemes"
	"pico/internal/telemetry"
	"pico/internal/tensor"
)

// swapFixture plans a one-stage and a pipeline scheme for a toy model on 3
// local workers — the two arms APICO switches between.
func swapFixture(t *testing.T) (oneStage, pipeline *core.Plan, lc *LocalCluster, m *nn.Model) {
	t.Helper()
	m = nn.ToyChain("ad", 6, 2, 6, 32)
	cl := cluster.Homogeneous(3, 600e6)
	oneStage, err := schemes.Plan("fused", m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pipeline, err = core.PlanPipeline(m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pipeline.Stages) < 2 {
		t.Fatal("pipeline plan degenerated to one stage")
	}
	return oneStage, pipeline, startCluster(t, 3, nil), m
}

// swapEvents returns the journal's plan-swapped events.
func swapEvents(p *Pipeline) []FaultEvent {
	events, _ := p.FaultEvents()
	var out []FaultEvent
	for _, ev := range events {
		if ev.Kind == FaultPlanSwapped {
			out = append(out, ev)
		}
	}
	return out
}

// gapToy is a small chain ending the way classifiers do — global average
// pool, then fully connected — so every scheme has to put an unsplittable
// tail on one device.
func gapToy() *nn.Model {
	m := &nn.Model{Name: "gap-toy", Input: nn.Shape{C: 1, H: 32, W: 32}, Layers: []nn.Layer{
		nn.Conv3x3("conv1", 6, nn.ReLU),
		nn.Conv3x3("conv2", 6, nn.ReLU),
		nn.MaxPool2x2("pool1"),
		nn.Conv3x3("conv3", 6, nn.ReLU),
		{Name: "gap", Kind: nn.GlobalAvgPool, Act: nn.NoAct},
		nn.FC("fc", 10, nn.NoAct),
	}}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// localRun is the single-process reference a distributed output must equal
// byte for byte: Run, or RunQ dequantized for an int8 session.
func localRun(t *testing.T, ref *tensor.Executor, quant bool, in tensor.Tensor) tensor.Tensor {
	t.Helper()
	if !quant {
		out, err := ref.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	q, err := ref.RunQ(in)
	if err != nil {
		t.Fatal(err)
	}
	defer tensor.RecycleQ(q)
	return q.Dequantize()
}

// TestAdaptiveRuntimeSwitches is the scheme switch of §IV-C on the one
// coordinator, for every scheme the paper compares: the baseline's plan — its
// stages sharing the cluster's devices — executes on sockets, Swap installs
// the PICO pipeline at a task boundary and later the baseline again, and the
// result stream carries straight on: submission order, ids 1..n, every output
// equal to a local run in the session's precision, and every device charged
// exactly the tiles its plans give it.
func TestAdaptiveRuntimeSwitches(t *testing.T) {
	// A heterogeneous profile so the capacity-aware schemes cut uneven strips,
	// on a link fast enough that spreading a toy over the cluster pays; the
	// workers themselves run unthrottled.
	cl := cluster.PaperHeterogeneous()
	cl.Devices = cl.Devices[1:5]
	cl.BandwidthBps *= 100
	lc := startCluster(t, cl.Size(), nil)
	// The odd side puts a stride-2 pool on an odd extent.
	for _, m := range []*nn.Model{nn.ToyChain("odd", 4, 2, 6, 33), gapToy()} {
		for _, scheme := range []string{"lw", "mednn", "efl", "efl-grid", "ofl", "fused"} {
			for _, quant := range []bool{false, true} {
				name := m.Name + "/" + scheme
				if quant {
					name += "/int8"
				}
				t.Run(name, func(t *testing.T) { runSchemeWithSwaps(t, lc, m, cl, scheme, quant) })
			}
		}
	}
}

func runSchemeWithSwaps(t *testing.T, lc *LocalCluster, m *nn.Model, cl *cluster.Cluster, scheme string, quant bool) {
	const seed = 6
	opts := core.Options{Quantized: quant}
	base, err := schemes.Plan(scheme, m, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.SerialGroups()) != 1 || len(base.UsedDevices()) < 2 {
		t.Fatalf("%s is not a one-stage scheme on several devices:\n%s", scheme, base.Describe())
	}
	pico, err := core.PlanPipeline(m, cl, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(base, lc.Addrs, PipelineOptions{Seed: seed, Quantized: quant})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	refOpts := []tensor.ExecutorOption{}
	if quant {
		refOpts = append(refOpts, tensor.WithQuantized())
	}
	ref, err := tensor.NewExecutor(m, seed, refOpts...)
	if err != nil {
		t.Fatal(err)
	}

	// Three tasks on the baseline, two on the pipeline, two on the baseline
	// again; the first swap happens with tasks still in flight.
	phases := []struct {
		plan  *core.Plan
		tasks int
	}{{base, 3}, {pico, 2}, {base, 2}}
	wantTiles := map[int]int{}
	var inputs []tensor.Tensor
	for _, ph := range phases {
		for i := 0; i < ph.tasks; i++ {
			inputs = append(inputs, tensor.RandomInput(m.Input, int64(len(inputs))))
		}
		for _, st := range ph.plan.Stages {
			for k, di := range st.DeviceIdx {
				if !st.Parts[k].Empty() {
					wantTiles[di] += ph.tasks
				}
			}
		}
	}
	go func() {
		next := 0
		for i, ph := range phases {
			if err := p.Swap(ph.plan, fmt.Sprintf("phase %d", i)); err != nil {
				t.Errorf("swap to phase %d: %v", i, err)
				return
			}
			if p.Plan() != ph.plan {
				t.Errorf("Plan() does not report phase %d's plan", i)
			}
			for j := 0; j < ph.tasks; j++ {
				if _, err := p.Submit(inputs[next]); err != nil {
					t.Errorf("submit %d: %v", next, err)
					return
				}
				next++
			}
		}
	}()
	for i, res := range drainResults(t, p, len(inputs), 60*time.Second) {
		if res.Err != nil || res.ID != int64(i+1) {
			t.Fatalf("result %d: id %d err %v", i, res.ID, res.Err)
		}
		if want := localRun(t, ref, quant, inputs[i]); !tensor.Equal(want, res.Output) {
			t.Fatalf("task %d: output differs from the local run by %g", res.ID, tensor.MaxAbsDiff(want, res.Output))
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Phase 0 asked for the plan already running: no drain, no event.
	if evs := swapEvents(p); len(evs) != 2 || evs[0].Detail != "phase 1" || evs[1].Detail != "phase 2" {
		t.Fatalf("journal holds %v, want the two real swaps with their reasons", evs)
	}
	for di, st := range p.WorkerStats() {
		if st.Tiles != wantTiles[di] {
			t.Fatalf("device %d executed %d tiles, its plans give it %d", di, st.Tiles, wantTiles[di])
		}
	}
}

// TestAdaptiveSwitchBackAndForth swaps five times with tasks between and
// checks what must survive a swap: ids stay monotone in delivery order, the
// telemetry series, WorkerStats and the fault journal keep counting, and a
// Swap to the plan already running does nothing at all.
func TestAdaptiveSwitchBackAndForth(t *testing.T) {
	oneStage, pipeline, lc, m := swapFixture(t)
	reg := telemetry.New(telemetry.Options{})
	p, err := NewPipeline(oneStage, lc.Addrs, PipelineOptions{Seed: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomInput(m.Input, 0)
	const rounds, perRound = 6, 2
	wantTiles := 0
	plans := []*core.Plan{oneStage, pipeline}
	next := int64(1)
	for r := 0; r < rounds; r++ {
		plan := plans[r%2]
		if err := p.Swap(plan, "round"); err != nil {
			t.Fatalf("swap %d: %v", r, err)
		}
		for i := 0; i < perRound; i++ {
			if _, err := p.Submit(in); err != nil {
				t.Fatalf("submit in round %d: %v", r, err)
			}
		}
		for i := 0; i < perRound; i++ {
			res := <-p.Results()
			if res.Err != nil || res.ID != next {
				t.Fatalf("round %d: result id %d err %v, want id %d", r, res.ID, res.Err, next)
			}
			next++
		}
		for _, st := range plan.Stages {
			wantTiles += perRound * st.Workers()
		}
	}
	// Round 0 asked for the plan already running: no drain, no event.
	if evs := swapEvents(p); len(evs) != rounds-1 {
		t.Fatalf("%d plan-swapped events after %d real swaps", len(evs), rounds-1)
	}
	tiles := 0
	for _, st := range p.WorkerStats() {
		tiles += st.Tiles
	}
	if tiles != wantTiles {
		t.Fatalf("WorkerStats count %d tiles over all swaps, want %d", tiles, wantTiles)
	}
	e2e := reg.Series(telemetry.Key{Model: m.Name, Stage: -1, Device: -1, Kind: telemetry.KindE2E})
	if got := e2e.Count(); got != rounds*perRound {
		t.Fatalf("e2e series holds %d samples across swaps, want %d", got, rounds*perRound)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
	if _, err := p.Submit(in); err == nil {
		t.Fatal("submit after close succeeded")
	}
	if err := p.Swap(pipeline, ""); err == nil {
		t.Fatal("swap after close succeeded")
	}
}

// TestAdaptiveValidatesInputs: a Swap that cannot work is refused before the
// running chain is touched, so the pipeline keeps serving its plan.
func TestAdaptiveValidatesInputs(t *testing.T) {
	oneStage, pipeline, lc, m := swapFixture(t)
	addrs := map[int]string{0: lc.Addrs[0], 1: lc.Addrs[1], 2: lc.Addrs[2]}
	p, err := NewPipeline(oneStage, addrs, PipelineOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Swap(nil, ""); err == nil {
		t.Fatal("nil plan accepted")
	}
	if err := p.Swap(&core.Plan{Model: m, Cluster: oneStage.Cluster}, ""); err == nil {
		t.Fatal("plan without stages accepted")
	}
	other := nn.ToyChain("other", 3, 0, 4, 16)
	otherPlan, err := schemes.Plan("fused", other, oneStage.Cluster, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Swap(otherPlan, ""); err == nil {
		t.Fatal("plan for another model accepted")
	}
	wide, err := schemes.Plan("fused", m, cluster.Homogeneous(4, 600e6), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Swap(wide, ""); err == nil || !strings.Contains(err.Error(), "no address") {
		t.Fatalf("plan on a device without an address: err = %v", err)
	}
	if p.Plan() != oneStage || len(swapEvents(p)) != 0 {
		t.Fatal("a refused swap changed the running plan or the journal")
	}
	if _, err := p.Submit(tensor.RandomInput(m.Input, 1)); err != nil {
		t.Fatal(err)
	}
	if res := <-p.Results(); res.Err != nil {
		t.Fatalf("task after refused swaps: %v", res.Err)
	}
	if err := p.Swap(pipeline, "ok"); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerStatsAccumulate(t *testing.T) {
	m := nn.ToyChain("ws", 4, 2, 6, 32)
	cl := cluster.Homogeneous(2, 600e6)
	plan, err := core.PlanPipeline(m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lc := startCluster(t, 2, nil)
	p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const tasks = 4
	in := tensor.RandomInput(m.Input, 1)
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
	stats := p.WorkerStats()
	var tiles int
	for di, st := range stats {
		if st.ComputeSeconds < 0 {
			t.Fatalf("device %d negative compute time", di)
		}
		tiles += st.Tiles
	}
	// Every task produces one tile per working device.
	workers := 0
	for _, st := range plan.Stages {
		workers += st.Workers()
	}
	if tiles != tasks*workers {
		t.Fatalf("tiles = %d, want %d", tiles, tasks*workers)
	}
}

func TestWorkerStatsReflectEmulatedSpeed(t *testing.T) {
	// Two equal strips on devices with 4x different emulated speed: the
	// slow device must report ~4x the compute time.
	m := nn.ToyChain("em", 4, 0, 8, 32)
	lc := startCluster(t, 2, []float64{4e7, 1e7})
	plan := &core.Plan{
		Model:   m,
		Cluster: cluster.Homogeneous(2, 600e6),
		Stages: []core.Stage{{
			From: 0, To: m.NumLayers(),
			DeviceIdx: []int{0, 1},
			Parts:     []partition.Range{{Lo: 0, Hi: 16}, {Lo: 16, Hi: 32}},
		}},
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Submit(tensor.RandomInput(m.Input, 1)); err != nil {
		t.Fatal(err)
	}
	res := <-p.Results()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	stats := p.WorkerStats()
	fast, slow := stats[0].ComputeSeconds, stats[1].ComputeSeconds
	if slow < 2*fast {
		t.Fatalf("slow device %.4fs vs fast %.4fs: emulation not visible", slow, fast)
	}
}

func TestPipelineSurvivesWorkerCrash(t *testing.T) {
	m := nn.ToyChain("crash", 4, 2, 6, 32)
	cl := cluster.Homogeneous(2, 600e6)
	plan, err := core.PlanPipeline(m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lc, err := StartLocalCluster(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Note: no cleanup via startCluster — we abort one worker manually.
	defer lc.Workers[0].Close()
	p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomInput(m.Input, 1)
	if _, err := p.Submit(in); err != nil {
		t.Fatal(err)
	}
	res := <-p.Results()
	if res.Err != nil {
		t.Fatalf("healthy task failed: %v", res.Err)
	}
	// Crash the last worker (it holds the final stage or a strip of it).
	if err := lc.Workers[1].Abort(); err != nil && !errors.Is(err, errClosed) {
		t.Logf("abort: %v", err)
	}
	if _, err := p.Submit(in); err != nil {
		t.Fatal(err)
	}
	select {
	case res = <-p.Results():
	case <-time.After(10 * time.Second):
		t.Fatal("crashed-worker task never completed")
	}
	if res.Err == nil {
		t.Fatal("task touching a crashed worker reported success")
	}
	// The pipeline still shuts down cleanly.
	if err := p.Close(); err != nil {
		t.Logf("close after crash: %v", err)
	}
}

func TestStageSpansShowPipelining(t *testing.T) {
	// Two tasks through a two-stage pipeline with emulated compute: task
	// 2's stage-0 span must overlap task 1's stage-1 span.
	m := nn.ToyChain("spans", 6, 0, 6, 32)
	plan := &core.Plan{
		Model:   m,
		Cluster: cluster.Homogeneous(2, 600e6),
		Stages: []core.Stage{
			{From: 0, To: 3, DeviceIdx: []int{0}, Parts: []partition.Range{partition.Full(m.OutShape(2).H)}},
			{From: 3, To: 6, DeviceIdx: []int{1}, Parts: []partition.Range{partition.Full(m.OutShape(5).H)}},
		},
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	lc := startCluster(t, 2, []float64{5e6, 5e6})
	p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	in := tensor.RandomInput(m.Input, 1)
	for i := 0; i < 2; i++ {
		if _, err := p.Submit(in); err != nil {
			t.Fatal(err)
		}
	}
	var results []TaskResult
	for i := 0; i < 2; i++ {
		res := <-p.Results()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		results = append(results, res)
	}
	for _, res := range results {
		if len(res.Spans) != 2 {
			t.Fatalf("task %d has %d spans, want 2", res.ID, len(res.Spans))
		}
		// Spans are ordered and non-overlapping within one task.
		if res.Spans[0].End.After(res.Spans[1].Start) {
			t.Fatalf("task %d stage spans overlap within the task", res.ID)
		}
		if !res.Spans[0].Start.Before(res.Spans[0].End) {
			t.Fatalf("task %d has empty span", res.ID)
		}
	}
	// Cross-task overlap: task 2 in stage 0 while task 1 in stage 1.
	t1Stage1 := results[0].Spans[1]
	t2Stage0 := results[1].Spans[0]
	if !(t2Stage0.Start.Before(t1Stage1.End) && t1Stage1.Start.Before(t2Stage0.End)) {
		t.Fatalf("no pipelining visible: task1 stage1 %v-%v, task2 stage0 %v-%v",
			t1Stage1.Start, t1Stage1.End, t2Stage0.Start, t2Stage0.End)
	}
}

// gridPipeline opens a pipeline over the one-stage rows x cols grid plan of
// the whole model, tile k on local worker k.
func gridPipeline(t *testing.T, m *nn.Model, lc *LocalCluster, rows, cols int, opts PipelineOptions) *Pipeline {
	t.Helper()
	plan, err := core.GridPlan(m, cluster.Homogeneous(len(lc.Workers), 600e6), rows, cols, core.Options{Quantized: opts.Quantized})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(plan, lc.Addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

// inferOne runs one input through the pipeline and returns its output.
func inferOne(t *testing.T, p *Pipeline, in tensor.Tensor) tensor.Tensor {
	t.Helper()
	if _, err := p.Submit(in); err != nil {
		t.Fatal(err)
	}
	res := <-p.Results()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res.Output
}

// TestGridPlanMatchesReference: a 2x2 grid stage on an odd-extent map (33
// wide into stride-2 layers) stitches to exactly the local whole-map Run.
func TestGridPlanMatchesReference(t *testing.T) {
	m := nn.ToyChain("grid-rt", 5, 2, 8, 33)
	lc := startCluster(t, 4, nil)
	p := gridPipeline(t, m, lc, 2, 2, PipelineOptions{Seed: 8})
	ref, err := tensor.NewExecutor(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	for task := int64(1); task <= 3; task++ {
		in := tensor.RandomInput(m.Input, task)
		want, err := ref.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := inferOne(t, p, in); !tensor.Equal(want, got) {
			t.Fatalf("task %d: grid result differs by %g", task, tensor.MaxAbsDiff(want, got))
		}
	}
}

// TestGridPlanValidation: tile sets that cannot execute are refused when the
// plan is built or opened, never mid-inference.
func TestGridPlanValidation(t *testing.T) {
	m := nn.ToyChain("grid-v", 3, 0, 4, 16)
	cl := cluster.Homogeneous(4, 600e6)
	lc := startCluster(t, 1, nil)
	if _, err := core.GridPlan(&nn.Model{Name: "bad"}, cl, 1, 1, core.Options{}); err == nil {
		t.Fatal("invalid model accepted")
	}
	if _, err := core.GridPlan(m, cl, 3, 2, core.Options{}); err == nil {
		t.Fatal("six tiles on four devices accepted")
	}
	plan, err := core.GridPlan(m, cl, 2, 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPipeline(plan, lc.Addrs, PipelineOptions{}); err == nil {
		t.Fatal("four tiles opened over one worker address")
	}
	short := *plan
	short.Stages = []core.Stage{plan.Stages[0]}
	short.Stages[0].Cols = plan.Stages[0].Cols[:3]
	if _, err := NewPipeline(&short, lc.Addrs, PipelineOptions{}); err == nil {
		t.Fatal("tile/column mismatch accepted")
	}
}

func TestMeasureAndDiscoverCluster(t *testing.T) {
	// Two emulated workers, 4x speed apart: discovery must fit speeds in
	// roughly that ratio, and the resulting cluster must plan.
	lc := startCluster(t, 2, []float64{4e7, 1e7})
	probe := nn.ToyChain("probe", 3, 0, 8, 32)
	addrs := []string{lc.Addrs[0], lc.Addrs[1]}
	cl, err := DiscoverCluster(addrs, probe, 1, 2, cluster.WiFi50MbpsBps)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Size() != 2 {
		t.Fatalf("discovered %d devices", cl.Size())
	}
	ratio := cl.Devices[0].EffectiveSpeed() / cl.Devices[1].EffectiveSpeed()
	// The emulation floor is the modelled time, so the ratio should land
	// near 4 (allow wide tolerance for real-compute contamination on the
	// fast worker).
	if ratio < 1.5 {
		t.Fatalf("speed ratio %.2f: heterogeneity not discovered", ratio)
	}
	plan, err := core.PlanPipeline(probe, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	// Errors: unreachable worker.
	if _, err := DiscoverCluster([]string{"127.0.0.1:1"}, probe, 1, 1, 1e6); err == nil {
		t.Fatal("unreachable worker accepted")
	}
	if _, err := DiscoverCluster(nil, probe, 1, 1, 1e6); err == nil {
		t.Fatal("empty worker list accepted")
	}
	if _, err := MeasureWorker(lc.Addrs[0], &nn.Model{Name: "bad"}, 1, 1); err == nil {
		t.Fatal("invalid probe accepted")
	}
}

func TestWorkerServesMultipleCoordinators(t *testing.T) {
	// Two independent grid pipelines share the same workers concurrently;
	// every result must stay bit-exact (one handler goroutine per conn).
	m := nn.ToyChain("share", 4, 2, 6, 24)
	lc := startCluster(t, 2, nil)
	plan, err := core.GridPlan(m, cluster.Homogeneous(2, 600e6), 2, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tensor.NewExecutor(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{Seed: 3})
			if err != nil {
				errs <- err
				return
			}
			defer p.Close()
			for task := int64(0); task < 4; task++ {
				in := tensor.RandomInput(m.Input, int64(g)*100+task)
				want, err := ref.Run(in)
				if err != nil {
					errs <- err
					return
				}
				if _, err := p.Submit(in); err != nil {
					errs <- err
					return
				}
				if res := <-p.Results(); res.Err != nil {
					errs <- res.Err
					return
				} else if !tensor.Equal(want, res.Output) {
					errs <- errors.New("shared-worker result mismatch")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAdaptiveConcurrentSubmitDuringSwitch hammers Submit from many
// goroutines while another keeps swapping the plan underneath them: every
// submit must execute exactly once (no loss, no duplication) and every
// output must match the reference. Run it under -race: it is the
// concurrency contract for Swap's drain-and-install under the submit lock.
func TestAdaptiveConcurrentSubmitDuringSwitch(t *testing.T) {
	oneStage, pipeline, lc, m := swapFixture(t)
	const (
		submitters = 8
		perG       = 6
		total      = submitters * perG
	)
	p, err := NewPipeline(oneStage, lc.Addrs, PipelineOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	// Every submitter sends the same input so any lost, duplicated or
	// cross-wired result is detectable against one reference output.
	in := tensor.RandomInput(m.Input, 42)
	ref, err := tensor.NewExecutor(m, 11)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(in)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		ids      map[int64]int
		mismatch int
		errs     []error
	}
	collected := make(chan outcome, 1)
	go func() {
		o := outcome{ids: make(map[int64]int)}
		for res := range p.Results() {
			if res.Err != nil {
				o.errs = append(o.errs, res.Err)
				continue
			}
			o.ids[res.ID]++
			if !tensor.Equal(want, res.Output) {
				o.mismatch++
			}
		}
		collected <- o
	}()

	// The swapper flips schemes until the submitters are done, interleaving
	// drains with concurrent submits.
	stop := make(chan struct{})
	swapped := make(chan int, 1)
	go func() {
		n := 0
		for plans := []*core.Plan{pipeline, oneStage}; ; n++ {
			select {
			case <-stop:
				swapped <- n
				return
			default:
			}
			if err := p.Swap(plans[n%2], "flip"); err != nil {
				t.Errorf("swap %d: %v", n, err)
			}
		}
	}()

	var wg sync.WaitGroup
	submitErrs := make(chan error, total)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := p.Submit(in); err != nil {
					submitErrs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	swaps := <-swapped
	close(submitErrs)
	for err := range submitErrs {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	o := <-collected
	for _, err := range o.errs {
		t.Errorf("task failed: %v", err)
	}
	if o.mismatch > 0 {
		t.Errorf("%d results differ from the reference output", o.mismatch)
	}
	if len(o.ids) != total {
		t.Fatalf("%d distinct results for %d submits", len(o.ids), total)
	}
	for id, n := range o.ids {
		if n != 1 || id < 1 || id > total {
			t.Fatalf("task %d delivered %d times", id, n)
		}
	}
	if swaps < 3 {
		t.Fatalf("only %d swaps ran under the submitters", swaps)
	}
}

// TestSharedDevicePeriodOnEmulatedWorkers: a worker is one device. The
// stages of a one-stage scheme all run on the same devices, each over its own
// connection, so only the worker's compute lane keeps two stages of two tasks
// from sleeping out their emulated compute in parallel. Back-to-back tasks on
// emulated-speed workers must therefore complete at one per plan period — the
// serial group's summed stage seconds — not faster.
func TestSharedDevicePeriodOnEmulatedWorkers(t *testing.T) {
	m := nn.ToyChain("per", 5, 2, 8, 48)
	// Slow enough that every convolution stage sleeps for 10 ms or more (so
	// two vCPUs and the race detector do not decide the result), on a link
	// fast enough that the model prices what loopback delivers: compute.
	speeds := []float64{24e6, 16e6, 12e6}
	cl := &cluster.Cluster{BandwidthBps: 4e9}
	for i, s := range speeds {
		cl.Devices = append(cl.Devices, cluster.Device{ID: fmt.Sprintf("emu-%d", i), Capacity: s, Alpha: 1})
	}
	lc := startCluster(t, len(speeds), speeds)
	in := tensor.RandomInput(m.Input, 1)
	for _, scheme := range []string{"ofl", "lw"} {
		plan, err := schemes.Plan(scheme, m, cl, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Stages) < 2 || len(plan.SerialGroups()) != 1 {
			t.Fatalf("%s: want several stages in one serial group:\n%s", scheme, plan.Describe())
		}
		p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		// One task to build the workers' weights, then the timed stream.
		const tasks = 6
		if _, err := p.Submit(in); err != nil {
			t.Fatal(err)
		}
		warm := drainResults(t, p, 1, 60*time.Second)
		go func() {
			for i := 0; i < tasks; i++ {
				if _, err := p.Submit(in); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
		results := drainResults(t, p, tasks, 60*time.Second)
		for _, res := range append(warm, results...) {
			if res.Err != nil {
				t.Fatalf("%s task %d: %v", scheme, res.ID, res.Err)
			}
		}
		// One serial group has no pipeline to fill: the stream's makespan is
		// tasks x period. (The lane is not first-come-first-served across
		// stages, so single completions bunch; the throughput is what the
		// period promises.)
		period := results[tasks-1].Done.Sub(results[0].Submitted).Seconds() / tasks
		if ratio := period / plan.PeriodSeconds; ratio < 0.8 || ratio > 1.3 {
			t.Fatalf("%s: a task completes every %.1f ms, the plan's period is %.1f ms (ratio %.2f, want 0.8-1.3)\n%s",
				scheme, period*1e3, plan.PeriodSeconds*1e3, ratio, plan.Describe())
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
