package simulate

import (
	"math"
	"testing"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/queueing"
)

func twoStageProfile() *ExecProfile {
	return &ExecProfile{
		Name: "two",
		Stages: []StageProfile{
			{Seconds: 1, DeviceBusy: map[int]float64{0: 0.8}},
			{Seconds: 2, DeviceBusy: map[int]float64{1: 1.5}},
		},
		DeviceFLOPs:     []float64{100, 200},
		DeviceRedundant: []float64{10, 0},
	}
}

func TestProfileAggregates(t *testing.T) {
	p := twoStageProfile()
	if p.Period() != 2 {
		t.Fatalf("Period = %v", p.Period())
	}
	if p.Latency() != 3 {
		t.Fatalf("Latency = %v", p.Latency())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &ExecProfile{Name: "bad"}
	if err := bad.Validate(); err == nil {
		t.Fatal("empty profile validated")
	}
	bad = &ExecProfile{Name: "bad", Stages: []StageProfile{{Seconds: 0}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero-time stage validated")
	}
}

func TestOpenLoopSingleTask(t *testing.T) {
	p := twoStageProfile()
	res, err := RunOpenLoop(p, []float64{5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("completed = %d", res.Completed)
	}
	// No queueing: latency is the traversal time.
	if math.Abs(res.Latencies[0]-3) > 1e-12 {
		t.Fatalf("latency = %v, want 3", res.Latencies[0])
	}
	if math.Abs(res.MakespanSeconds-8) > 1e-12 {
		t.Fatalf("makespan = %v, want 8", res.MakespanSeconds)
	}
	if res.DeviceBusySeconds[0] != 0.8 || res.DeviceBusySeconds[1] != 1.5 {
		t.Fatalf("busy = %v", res.DeviceBusySeconds)
	}
}

func TestOpenLoopQueueingAtBottleneck(t *testing.T) {
	p := twoStageProfile() // period 2
	// Tasks arrive every 1s: the bottleneck stage (2s) queues them, each
	// task waits one more period than the previous.
	arrivals := uniformArrivals(1, 10.5) // t = 0..10
	res, err := RunOpenLoop(p, arrivals, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Task n: finishes stage1 at n+1 (stage1 is 1s, idle between tasks),
	// stage2 starts at max(n+1, 2n+1)... latency grows linearly.
	if res.Latencies[0] != 3 {
		t.Fatalf("first latency = %v", res.Latencies[0])
	}
	for i := 1; i < len(res.Latencies); i++ {
		if res.Latencies[i] < res.Latencies[i-1] {
			t.Fatalf("latency must be non-decreasing under overload: %v", res.Latencies)
		}
	}
	// Steady state: one completion every period (2s).
	wantMakespan := 3 + 2*float64(len(arrivals)-1)
	if math.Abs(res.MakespanSeconds-wantMakespan) > 1e-9 {
		t.Fatalf("makespan = %v, want %v", res.MakespanSeconds, wantMakespan)
	}
}

func TestOpenLoopRejectsUnsortedArrivals(t *testing.T) {
	p := twoStageProfile()
	if _, err := RunOpenLoop(p, []float64{3, 1}, 2); err == nil {
		t.Fatal("unsorted arrivals accepted")
	}
}

func TestClosedLoopThroughputIsPeriod(t *testing.T) {
	p := twoStageProfile()
	res, err := RunClosedLoop(p, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	gotPeriod := 1 / res.Throughput()
	if math.Abs(gotPeriod-p.Period()) > 0.05 {
		t.Fatalf("closed-loop period = %v, want %v", gotPeriod, p.Period())
	}
	if _, err := RunClosedLoop(p, 0, 2); err == nil {
		t.Fatal("zero tasks accepted")
	}
}

func TestClosedLoopUtilizationMatchesBusyShare(t *testing.T) {
	p := twoStageProfile()
	res, err := RunClosedLoop(p, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Device 1 works 1.5s per 2s period -> 75% utilization.
	if u := res.Utilization(1); math.Abs(u-0.75) > 0.02 {
		t.Fatalf("utilization(1) = %v, want ~0.75", u)
	}
	// Device 0 works 0.8s per 2s period -> 40%.
	if u := res.Utilization(0); math.Abs(u-0.40) > 0.02 {
		t.Fatalf("utilization(0) = %v, want ~0.40", u)
	}
	if r := res.RedundancyRatio(0); math.Abs(r-0.1) > 1e-9 {
		t.Fatalf("redundancy(0) = %v, want 0.1", r)
	}
	if r := res.RedundancyRatio(1); r != 0 {
		t.Fatalf("redundancy(1) = %v, want 0", r)
	}
}

func TestOpenLoopMatchesMD1Theory(t *testing.T) {
	// A single-stage profile under Poisson arrivals is an M/D/1 queue;
	// the simulated mean latency must match the analytical sojourn.
	p := &ExecProfile{
		Name:            "one",
		Stages:          []StageProfile{{Seconds: 1, DeviceBusy: map[int]float64{0: 1}}},
		DeviceFLOPs:     []float64{1},
		DeviceRedundant: []float64{0},
	}
	lambda := 0.7
	arrivals := PoissonArrivals(lambda, 40000, 42)
	res, err := RunOpenLoop(p, arrivals, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := queueing.MD1Sojourn(lambda, 1)
	got := res.AvgLatency()
	if math.Abs(got-want)/want > 0.08 {
		t.Fatalf("simulated latency %v vs M/D/1 %v", got, want)
	}
}

func TestPercentiles(t *testing.T) {
	res := &Result{Latencies: []float64{4, 1, 3, 2, 5}}
	if res.Percentile(0.5) != 3 {
		t.Fatalf("p50 = %v", res.Percentile(0.5))
	}
	if res.Percentile(1.0) != 5 {
		t.Fatalf("p100 = %v", res.Percentile(1.0))
	}
	if res.Percentile(0.01) != 1 {
		t.Fatalf("p1 = %v", res.Percentile(0.01))
	}
	empty := &Result{}
	if empty.Percentile(0.5) != 0 || empty.AvgLatency() != 0 || empty.Throughput() != 0 {
		t.Fatal("empty result stats must be zero")
	}
}

func TestPoissonArrivalsStatistics(t *testing.T) {
	rate := 3.0
	arr := PoissonArrivals(rate, 10000, 7)
	got := float64(len(arr)) / 10000
	if math.Abs(got-rate)/rate > 0.05 {
		t.Fatalf("empirical rate %v, want ~%v", got, rate)
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			t.Fatal("arrivals not sorted")
		}
	}
	if PoissonArrivals(0, 10, 1) != nil || PoissonArrivals(1, 0, 1) != nil {
		t.Fatal("degenerate parameters must yield nil")
	}
	// Determinism under the same seed.
	a := PoissonArrivals(2, 100, 99)
	b := PoissonArrivals(2, 100, 99)
	if len(a) != len(b) {
		t.Fatal("same seed, different arrivals")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different arrivals")
		}
	}
}

func TestVariableRatePoisson(t *testing.T) {
	// Rate 1 in the first half, 5 in the second half.
	rateAt := func(t float64) float64 {
		if t < 5000 {
			return 1
		}
		return 5
	}
	arr, err := VariableRatePoisson(rateAt, 5, 10000, 3)
	if err != nil {
		t.Fatal(err)
	}
	var first, second int
	for _, a := range arr {
		if a < 5000 {
			first++
		} else {
			second++
		}
	}
	r1 := float64(first) / 5000
	r2 := float64(second) / 5000
	if math.Abs(r1-1) > 0.1 || math.Abs(r2-5) > 0.3 {
		t.Fatalf("rates %v / %v, want ~1 / ~5", r1, r2)
	}
	// Rate above maxRate must error.
	if _, err := VariableRatePoisson(func(float64) float64 { return 10 }, 5, 100, 3); err == nil {
		t.Fatal("rate above max accepted")
	}
	if _, err := VariableRatePoisson(rateAt, 0, 100, 3); err == nil {
		t.Fatal("zero maxRate accepted")
	}
}

func TestUniformArrivals(t *testing.T) {
	arr := uniformArrivals(2, 10)
	if len(arr) != 5 || arr[0] != 0 || arr[4] != 8 {
		t.Fatalf("uniformArrivals = %v", arr)
	}
	if uniformArrivals(0, 10) != nil {
		t.Fatal("zero period accepted")
	}
}

// fixedChooser always picks the same candidate.
type fixedChooser int

func (f fixedChooser) Choose(float64) int { return int(f) }

// thresholdChooser picks 1 above the rate threshold, else 0.
type thresholdChooser float64

func (th thresholdChooser) Choose(rate float64) int {
	if rate > float64(th) {
		return 1
	}
	return 0
}

func TestAdaptiveSwitchesUnderLoad(t *testing.T) {
	oneStage := &ExecProfile{
		Name:            "one",
		Stages:          []StageProfile{{Seconds: 2, DeviceBusy: map[int]float64{0: 2}}},
		DeviceFLOPs:     []float64{1, 0},
		DeviceRedundant: []float64{0, 0},
	}
	pipeline := &ExecProfile{
		Name: "pipe",
		Stages: []StageProfile{
			{Seconds: 1, DeviceBusy: map[int]float64{0: 1}},
			{Seconds: 1, DeviceBusy: map[int]float64{1: 1}},
		},
		DeviceFLOPs:     []float64{0.5, 0.5},
		DeviceRedundant: []float64{0, 0},
	}
	est, err := queueing.NewEstimator(0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Light load for 200s, then heavy (0.9 tasks/s > 1/2s capacity of the
	// one-stage scheme) for 400s.
	var arrivals []float64
	arrivals = append(arrivals, uniformArrivals(10, 200)...)
	heavy := PoissonArrivals(0.9, 400, 5)
	for _, a := range heavy {
		arrivals = append(arrivals, 200+a)
	}
	res, err := RunAdaptive([]*ExecProfile{oneStage, pipeline}, thresholdChooser(0.4), est, arrivals, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.SchemeTasks["one"] == 0 || res.SchemeTasks["pipe"] == 0 {
		t.Fatalf("expected both schemes used: %v", res.SchemeTasks)
	}
	// The heavy phase must not blow up: the pipeline keeps pace, so the
	// p95 latency stays within a few traversal times.
	if p95 := res.Percentile(0.95); p95 > 20 {
		t.Fatalf("adaptive p95 latency = %v", p95)
	}
}

// flipChooser returns 0 on the first call, 1 afterwards.
type flipChooser struct{ calls int }

func (f *flipChooser) Choose(float64) int {
	f.calls++
	if f.calls == 1 {
		return 0
	}
	return 1
}

func TestAdaptiveSwitchWaitsForDrain(t *testing.T) {
	// Task 0 runs on scheme a (service 1s). Task 1 arrives at 0.5 and the
	// chooser now demands scheme b — but the cluster must first drain task
	// 0 (until t=1.0), so task 1 starts on b at 1.0 and exits at 1.5.
	a := &ExecProfile{
		Name:            "a",
		Stages:          []StageProfile{{Seconds: 1, DeviceBusy: map[int]float64{0: 1}}},
		DeviceFLOPs:     []float64{1},
		DeviceRedundant: []float64{0},
	}
	b := &ExecProfile{
		Name:            "b",
		Stages:          []StageProfile{{Seconds: 0.5, DeviceBusy: map[int]float64{0: 0.5}}},
		DeviceFLOPs:     []float64{1},
		DeviceRedundant: []float64{0},
	}
	est, err := queueing.NewEstimator(0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunAdaptive([]*ExecProfile{a, b}, &flipChooser{}, est, []float64{0, 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.SchemeTasks["a"] != 1 || res.SchemeTasks["b"] != 1 {
		t.Fatalf("scheme split = %v, want 1/1", res.SchemeTasks)
	}
	// Task 1 latency: wait 0.5 for the drain + 0.5 service = 1.0.
	if math.Abs(res.Latencies[1]-1.0) > 1e-12 {
		t.Fatalf("task 1 latency = %v, want 1.0 (drain bubble)", res.Latencies[1])
	}
	if math.Abs(res.MakespanSeconds-1.5) > 1e-12 {
		t.Fatalf("makespan = %v, want 1.5", res.MakespanSeconds)
	}
}

func TestAdaptiveValidation(t *testing.T) {
	est, err := queueing.NewEstimator(0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunAdaptive(nil, fixedChooser(0), est, []float64{1}, 1); err == nil {
		t.Fatal("no candidates accepted")
	}
	p := twoStageProfile()
	if _, err := RunAdaptive([]*ExecProfile{p}, fixedChooser(5), est, []float64{1}, 2); err == nil {
		t.Fatal("out-of-range chooser accepted")
	}
}

func TestFromPlan(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.PaperHeterogeneous()
	plan, err := core.PlanPipeline(m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prof := FromPlan("PICO", plan)
	if err := prof.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(prof.Period()-plan.PeriodSeconds) > 1e-9 {
		t.Fatalf("profile period %v != plan %v", prof.Period(), plan.PeriodSeconds)
	}
	if math.Abs(prof.Latency()-plan.LatencySeconds) > 1e-9 {
		t.Fatalf("profile latency %v != plan %v", prof.Latency(), plan.LatencySeconds)
	}
	// Per-stage device busy must never exceed the stage time.
	for i, st := range prof.Stages {
		for di, busy := range st.DeviceBusy {
			if busy > st.Seconds+1e-9 {
				t.Fatalf("stage %d device %d busy %v > stage %v", i, di, busy, st.Seconds)
			}
		}
	}
	// Closed-loop utilizations in (0, 1].
	res, err := RunClosedLoop(prof, 100, cl.Size())
	if err != nil {
		t.Fatal(err)
	}
	for k := range cl.Devices {
		u := res.Utilization(k)
		if u < 0 || u > 1+1e-9 {
			t.Fatalf("device %d utilization %v", k, u)
		}
	}
}

func TestClosedLoopLatencyEqualsTraversal(t *testing.T) {
	// Closed-loop admission (first stage free) means no task ever queues,
	// so every latency equals the pipeline traversal time.
	p := twoStageProfile()
	res, err := RunClosedLoop(p, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range res.Latencies {
		if math.Abs(l-p.Latency()) > 1e-12 {
			t.Fatalf("task %d latency %v != traversal %v", i, l, p.Latency())
		}
	}
}

func TestOpenLoopLightLoadNoQueueing(t *testing.T) {
	// Arrivals far apart: every latency is the bare traversal.
	p := twoStageProfile()
	res, err := RunOpenLoop(p, uniformArrivals(100, 1000), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Latencies {
		if math.Abs(l-p.Latency()) > 1e-12 {
			t.Fatalf("light-load latency %v != traversal %v", l, p.Latency())
		}
	}
}

func TestOpenLoopConservation(t *testing.T) {
	// Work conservation: total busy time equals tasks x per-task busy.
	p := twoStageProfile()
	arrivals := PoissonArrivals(0.2, 500, 9)
	res, err := RunOpenLoop(p, arrivals, 2)
	if err != nil {
		t.Fatal(err)
	}
	want0 := 0.8 * float64(len(arrivals))
	want1 := 1.5 * float64(len(arrivals))
	if math.Abs(res.DeviceBusySeconds[0]-want0) > 1e-9 || math.Abs(res.DeviceBusySeconds[1]-want1) > 1e-9 {
		t.Fatalf("busy = %v, want [%v %v]", res.DeviceBusySeconds, want0, want1)
	}
	if res.Completed != len(arrivals) {
		t.Fatalf("completed %d of %d", res.Completed, len(arrivals))
	}
}

func TestAdaptiveWithRealQueueingComponents(t *testing.T) {
	// End-to-end APICO: queueing.Estimator + queueing.Switcher over the
	// simulator, light -> heavy -> light workload. The switcher must ride
	// the load curve in both directions.
	// Light-load ordering needs 2*t_one < p_pipe + t_pipe (Theorem 2's
	// one-stage double count), hence the 1.4s one-stage scheme.
	oneStage := &ExecProfile{
		Name:            "one",
		Stages:          []StageProfile{{Seconds: 1.4, DeviceBusy: map[int]float64{0: 1.4}}},
		DeviceFLOPs:     []float64{1, 0},
		DeviceRedundant: []float64{0, 0},
	}
	pipeline := &ExecProfile{
		Name: "pipe",
		Stages: []StageProfile{
			{Seconds: 1, DeviceBusy: map[int]float64{0: 1}},
			{Seconds: 1, DeviceBusy: map[int]float64{1: 1}},
		},
		DeviceFLOPs:     []float64{0.5, 0.5},
		DeviceRedundant: []float64{0, 0},
	}
	sw, err := queueing.NewSwitcher([]queueing.Candidate{
		{Name: "one", Period: 1.4, Latency: 1.4},
		{Name: "pipe", Period: 1, Latency: 2},
	}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	est, err := queueing.NewEstimator(0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	var arrivals []float64
	arrivals = append(arrivals, PoissonArrivals(0.05, 300, 1)...)
	for _, a := range PoissonArrivals(0.8, 300, 2) {
		arrivals = append(arrivals, 300+a)
	}
	for _, a := range PoissonArrivals(0.05, 300, 3) {
		arrivals = append(arrivals, 600+a)
	}
	res, err := RunAdaptive([]*ExecProfile{oneStage, pipeline}, sw, est, arrivals, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.SchemeTasks["one"] == 0 || res.SchemeTasks["pipe"] == 0 {
		t.Fatalf("scheme usage %v", res.SchemeTasks)
	}
	// The heavy phase would diverge on the one-stage scheme (rate 0.8 >
	// 1/2.5); bounded latency proves the switch to the pipeline happened.
	if p95 := res.Percentile(0.95); p95 > 30 {
		t.Fatalf("p95 = %v: switcher failed to protect the heavy phase", p95)
	}
}

func TestResultAccountsPerScheme(t *testing.T) {
	p := twoStageProfile()
	res, err := RunOpenLoop(p, uniformArrivals(10, 100), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.SchemeTasks["two"] != res.Completed {
		t.Fatalf("SchemeTasks = %v for %d tasks", res.SchemeTasks, res.Completed)
	}
}

func TestLittlesLaw(t *testing.T) {
	// L = lambda * W: the time-average number of tasks in the system must
	// match the arrival rate times the mean sojourn, a law any correct
	// queueing simulator obeys.
	p := &ExecProfile{
		Name: "ll",
		Stages: []StageProfile{
			{Seconds: 0.7, DeviceBusy: map[int]float64{0: 0.7}},
			{Seconds: 1.1, DeviceBusy: map[int]float64{1: 1.1}},
		},
		DeviceFLOPs:     []float64{1, 1},
		DeviceRedundant: []float64{0, 0},
	}
	lambda := 0.5 // stable: 0.5 * 1.1 = 0.55 < 1
	arrivals := PoissonArrivals(lambda, 50000, 17)
	res, err := RunOpenLoop(p, arrivals, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Time-average occupancy: integrate sojourns over the makespan.
	var areaSeconds float64
	for _, l := range res.Latencies {
		areaSeconds += l
	}
	L := areaSeconds / res.MakespanSeconds
	lam := float64(res.Completed) / res.MakespanSeconds
	W := res.AvgLatency()
	if rel := math.Abs(L-lam*W) / L; rel > 0.02 {
		t.Fatalf("Little's law violated: L=%.4f lambda*W=%.4f (rel %.3f)", L, lam*W, rel)
	}
}

// uniformArrivals generates deterministic arrivals at a fixed period, for
// tests that need exact queueing behaviour.
func uniformArrivals(period, duration float64) []float64 {
	if period <= 0 || duration <= 0 {
		return nil
	}
	n := int(math.Floor(duration / period))
	arrivals := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		arrivals = append(arrivals, float64(i)*period)
	}
	return arrivals
}
