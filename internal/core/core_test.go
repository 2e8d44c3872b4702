package core

import (
	"math"
	"strings"
	"testing"

	"pico/internal/cluster"
	"pico/internal/nn"
	"pico/internal/partition"
)

func TestPlanAllModels(t *testing.T) {
	models := []*nn.Model{nn.VGG16(), nn.YOLOv2(), nn.ResNet34(), nn.InceptionV3(), nn.MobileNetV1(), nn.Fig13Toy()}
	clusters := []*cluster.Cluster{
		cluster.Homogeneous(8, 600e6),
		cluster.Homogeneous(4, 1e9),
		cluster.PaperHeterogeneous(),
		cluster.Fig13Heterogeneous(),
	}
	for _, m := range models {
		for _, cl := range clusters {
			plan, err := PlanPipeline(m, cl, Options{})
			if err != nil {
				t.Fatalf("%s on %d devices: %v", m.Name, cl.Size(), err)
			}
			if err := plan.Validate(); err != nil {
				t.Fatalf("%s: invalid plan: %v", m.Name, err)
			}
			if plan.PeriodSeconds <= 0 || plan.LatencySeconds < plan.PeriodSeconds-1e-12 {
				t.Fatalf("%s: period %.4f latency %.4f", m.Name, plan.PeriodSeconds, plan.LatencySeconds)
			}
			if len(plan.Stages) < 1 || len(plan.Stages) > cl.Size() {
				t.Fatalf("%s: %d stages on %d devices", m.Name, len(plan.Stages), cl.Size())
			}
		}
	}
}

func TestPlanBeatsSingleDevice(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.Homogeneous(8, 600e6)
	plan, err := PlanPipeline(m, cl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	single, err := SingleDevice(m, cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	speedup := single.PeriodSeconds / plan.PeriodSeconds
	// The paper reports 1.8–6.2x throughput gains with 8 devices.
	if speedup < 3 || speedup > 8 {
		t.Fatalf("speedup = %.2f, want within [3,8]", speedup)
	}
}

func TestSingleDeviceCost(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.Homogeneous(2, 600e6)
	plan, err := SingleDevice(m, cl, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantComp := float64(m.TotalFLOPs()) / cl.Devices[1].EffectiveSpeed()
	wantComm := float64(m.Input.Bytes()+m.Output().Bytes()) / cl.BandwidthBps
	if math.Abs(plan.Stages[0].CompSeconds-wantComp) > 1e-9 {
		t.Fatalf("comp = %.6f, want %.6f", plan.Stages[0].CompSeconds, wantComp)
	}
	if math.Abs(plan.Stages[0].CommSeconds-wantComm) > 1e-9 {
		t.Fatalf("comm = %.6f, want %.6f", plan.Stages[0].CommSeconds, wantComm)
	}
	if _, err := SingleDevice(m, cl, 5); err == nil {
		t.Fatal("out-of-range device accepted")
	}
}

// bruteOptimalPeriod enumerates every composition of the model into
// contiguous segments with worker counts summing to at most D and returns
// the minimum achievable period with equal strips on the homogenised
// cluster — the exact optimum the DP must match.
func bruteOptimalPeriod(cm *CostModel, speed float64, L, D int) float64 {
	best := math.Inf(1)
	var rec func(from int, left int, period float64)
	rec = func(from int, left int, period float64) {
		if from == L {
			if period < best {
				best = period
			}
			return
		}
		if left == 0 {
			return
		}
		for to := from + 1; to <= L; to++ {
			for q := 1; q <= left; q++ {
				total, _, _ := cm.EqualStageCost(from, to, q, speed)
				p := math.Max(period, total)
				if p < best {
					rec(to, left-q, p)
				}
			}
		}
	}
	rec(0, D, 0)
	return best
}

func TestDPMatchesBruteForce(t *testing.T) {
	cases := []struct {
		model   *nn.Model
		devices int
	}{
		{nn.ToyChain("t6", 6, 3, 8, 32), 3},
		{nn.ToyChain("t5", 5, 0, 12, 24), 4},
		{nn.Fig13Toy(), 3},
	}
	for _, tc := range cases {
		cl := cluster.Homogeneous(tc.devices, 600e6)
		cm := NewCostModel(tc.model, cl)
		speed := cl.AverageEffectiveSpeed()
		pl := newPlanner(cm, speed, tc.devices, 0)
		frontier := pl.solve(tc.model.NumLayers(), tc.devices)
		if len(frontier) == 0 {
			t.Fatalf("%s: empty frontier", tc.model.Name)
		}
		got := frontier[0].period
		want := bruteOptimalPeriod(cm, speed, tc.model.NumLayers(), tc.devices)
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s D=%d: dp period %.6f != brute %.6f", tc.model.Name, tc.devices, got, want)
		}
	}
}

func TestLatencyLimitTradeoff(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.Homogeneous(8, 600e6)
	free, err := PlanPipeline(m, cl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A limit between the one-stage latency and the unconstrained pipeline
	// latency must produce a feasible plan with period >= the free optimum.
	limit := free.LatencySeconds * 0.8
	bounded, err := PlanPipeline(m, cl, Options{LatencyLimit: limit})
	if err != nil {
		t.Fatalf("bounded plan: %v", err)
	}
	if bounded.LatencySeconds > limit+1e-9 {
		t.Fatalf("bounded latency %.4f > limit %.4f", bounded.LatencySeconds, limit)
	}
	if bounded.PeriodSeconds < free.PeriodSeconds-1e-9 {
		t.Fatalf("bounded period %.4f beats unconstrained %.4f", bounded.PeriodSeconds, free.PeriodSeconds)
	}
	// An absurdly tight limit is infeasible.
	if _, err := PlanPipeline(m, cl, Options{LatencyLimit: 1e-6}); err == nil {
		t.Fatal("infeasible limit accepted")
	}
}

func TestGreedyAdaptationHelps(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.PaperHeterogeneous()
	adapted, err := PlanPipeline(m, cl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	positional, err := PlanPipeline(m, cl, Options{NoHeterogeneityAdaptation: true})
	if err != nil {
		t.Fatal(err)
	}
	// Algorithm 2 with balanced strips must not be worse than ignoring
	// heterogeneity (allow 1% numerical slack).
	if adapted.PeriodSeconds > positional.PeriodSeconds*1.01 {
		t.Fatalf("adapted period %.4f > positional %.4f", adapted.PeriodSeconds, positional.PeriodSeconds)
	}
}

func TestPlanDeterministic(t *testing.T) {
	m := nn.YOLOv2()
	cl := cluster.PaperHeterogeneous()
	a, err := PlanPipeline(m, cl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanPipeline(m, cl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Stages) != len(b.Stages) {
		t.Fatalf("stage counts differ: %d vs %d", len(a.Stages), len(b.Stages))
	}
	for i := range a.Stages {
		sa, sb := a.Stages[i], b.Stages[i]
		if sa.From != sb.From || sa.To != sb.To || len(sa.DeviceIdx) != len(sb.DeviceIdx) {
			t.Fatalf("stage %d differs", i)
		}
		for k := range sa.DeviceIdx {
			if sa.DeviceIdx[k] != sb.DeviceIdx[k] || sa.Parts[k] != sb.Parts[k] {
				t.Fatalf("stage %d device %d differs", i, k)
			}
		}
	}
}

func TestNoOverlapModelScalesLinearly(t *testing.T) {
	// A 1x1-kernel chain has zero overlap (the NP-hardness reduction of
	// Theorem 1), so doubling devices should nearly halve the period as
	// long as communication stays negligible.
	layers := make([]nn.Layer, 6)
	for i := range layers {
		layers[i] = nn.Conv1x1("c", 64, nn.ReLU)
	}
	m := &nn.Model{Name: "ones", Input: nn.Shape{C: 64, H: 64, W: 64}, Layers: layers}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Huge bandwidth isolates the compute behaviour.
	mk := func(n int) *cluster.Cluster {
		c := cluster.Homogeneous(n, 600e6)
		c.BandwidthBps = 1e12
		return c
	}
	p2, err := PlanPipeline(m, mk(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p4, err := PlanPipeline(m, mk(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := p2.PeriodSeconds / p4.PeriodSeconds
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("period ratio 2->4 devices = %.3f, want ~2", ratio)
	}
}

func TestPlanStats(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.PaperHeterogeneous()
	plan, err := PlanPipeline(m, cl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cm := NewCostModel(m, cl)
	stats := plan.Stats(cm)
	if got, want := len(stats.DeviceFLOPs), cl.Size(); got != want {
		t.Fatalf("len(DeviceFLOPs) = %d, want %d", got, want)
	}
	total := stats.TotalFLOPs()
	if total < float64(m.TotalFLOPs()) {
		t.Fatalf("stats total %.4g < model total %.4g", total, float64(m.TotalFLOPs()))
	}
	ratio := stats.RedundancyRatio()
	if ratio < 0 || ratio > 0.5 {
		t.Fatalf("redundancy ratio = %.4f", ratio)
	}
	// Busy time per device cannot exceed the pipeline period (steady state
	// each device works on one stage only).
	for k, busy := range stats.DeviceBusySeconds {
		if busy > plan.PeriodSeconds+1e-9 {
			t.Fatalf("device %d busy %.4f > period %.4f", k, busy, plan.PeriodSeconds)
		}
	}
}

func TestDescribe(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.Homogeneous(4, 600e6)
	plan, err := PlanPipeline(m, cl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := plan.Describe()
	if !strings.Contains(d, "pipeline for vgg16") || !strings.Contains(d, "stage 0") {
		t.Fatalf("Describe:\n%s", d)
	}
}

func TestPlanValidateCatchesCorruption(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.Homogeneous(4, 600e6)
	plan, err := PlanPipeline(m, cl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a strip to create overlap.
	if len(plan.Stages[0].Parts) > 0 && plan.Stages[0].Parts[0].Hi > 1 {
		plan.Stages[0].Parts[0].Hi++
		if err := plan.Validate(); err == nil {
			t.Fatal("validator missed overlapping strips")
		}
		plan.Stages[0].Parts[0].Hi--
	}
	// Reuse a device: across stages is a shared-device plan, twice inside
	// one stage is refused.
	if len(plan.Stages) > 1 {
		save := plan.Stages[1].DeviceIdx[0]
		plan.Stages[1].DeviceIdx[0] = plan.Stages[0].DeviceIdx[0]
		if err := plan.Validate(); err != nil {
			t.Fatalf("validator refused a device shared by two stages: %v", err)
		}
		plan.Stages[1].DeviceIdx[0] = save
	}
	if st := &plan.Stages[0]; st.Workers() > 1 {
		save := st.DeviceIdx[1]
		st.DeviceIdx[1] = st.DeviceIdx[0]
		if err := plan.Validate(); err == nil {
			t.Fatal("validator missed a device holding two tiles of one stage")
		}
		st.DeviceIdx[1] = save
	}
	// Break coverage.
	plan.Stages[len(plan.Stages)-1].To--
	if err := plan.Validate(); err == nil {
		t.Fatal("validator missed truncated coverage")
	}
}

func TestStageCostComponents(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.Homogeneous(4, 600e6)
	cm := NewCostModel(m, cl)
	outH := m.OutShape(1).H
	parts := partition.Equal(outH, 4)
	speeds := cm.DeviceSpeeds([]int{0, 1, 2, 3})
	total, comp, comm := cm.StageCost(0, 2, speeds, parts, nil)
	if math.Abs(total-(comp+comm)) > 1e-12 {
		t.Fatalf("total %.6f != comp %.6f + comm %.6f", total, comp, comm)
	}
	if comp <= 0 || comm <= 0 {
		t.Fatalf("components: comp=%.6f comm=%.6f", comp, comm)
	}
	// comp must equal the slowest strip (interior strips have larger
	// receptive fields than boundary strips, so take the max explicitly).
	wantComp := 0.0
	for k, r := range parts {
		if c := float64(cm.Calc.SegmentRegionFLOPs(0, 2, r)) / speeds[k]; c > wantComp {
			wantComp = c
		}
	}
	if math.Abs(comp-wantComp) > 1e-9 {
		t.Fatalf("comp = %.6f, want %.6f", comp, wantComp)
	}
}

func TestEqualStageCostMoreDevicesMoreComm(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.Homogeneous(8, 600e6)
	cm := NewCostModel(m, cl)
	speed := cl.AverageEffectiveSpeed()
	_, _, comm2 := cm.EqualStageCost(0, 5, 2, speed)
	_, _, comm8 := cm.EqualStageCost(0, 5, 8, speed)
	if comm8 <= comm2 {
		t.Fatalf("comm with 8 devices (%.4f) should exceed comm with 2 (%.4f)", comm8, comm2)
	}
	_, comp2, _ := cm.EqualStageCost(0, 5, 2, speed)
	_, comp8, _ := cm.EqualStageCost(0, 5, 8, speed)
	if comp8 >= comp2 {
		t.Fatalf("comp with 8 devices (%.4f) should undercut comp with 2 (%.4f)", comp8, comp2)
	}
}

func TestUsedDevicesSubset(t *testing.T) {
	m := nn.Fig13Toy()
	cl := cluster.Homogeneous(8, 600e6)
	plan, err := PlanPipeline(m, cl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	used := plan.UsedDevices()
	if len(used) == 0 || len(used) > cl.Size() {
		t.Fatalf("used devices = %v", used)
	}
	seen := map[int]bool{}
	for _, di := range used {
		if di < 0 || di >= cl.Size() || seen[di] {
			t.Fatalf("bad used device list %v", used)
		}
		seen[di] = true
	}
}

func TestPlannerRejectsInvalidInputs(t *testing.T) {
	m := &nn.Model{Name: "bad"}
	if _, err := PlanPipeline(m, cluster.Homogeneous(2, 1e9), Options{}); err == nil {
		t.Fatal("invalid model accepted")
	}
	good := nn.VGG16()
	if _, err := PlanPipeline(good, &cluster.Cluster{}, Options{}); err == nil {
		t.Fatal("invalid cluster accepted")
	}
}
