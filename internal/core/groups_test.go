package core

import (
	"bytes"
	"reflect"
	"testing"

	"pico/internal/cluster"
	"pico/internal/nn"
	"pico/internal/partition"
)

// TestDisjointPlansPriceAsSlowestStage: a plan whose stages share no device
// has one serial group per stage, so its period is — bit for bit — the
// slowest stage's seconds and its latency their sum in stage order, exactly
// what plans cost before stages could share devices.
func TestDisjointPlansPriceAsSlowestStage(t *testing.T) {
	for _, m := range []*nn.Model{nn.VGG16(), nn.YOLOv2(), nn.MobileNetV1()} {
		for _, cl := range []*cluster.Cluster{cluster.Homogeneous(8, 600e6), cluster.PaperHeterogeneous()} {
			for _, quant := range []bool{false, true} {
				plan, err := PlanPipeline(m, cl, Options{Quantized: quant})
				if err != nil {
					t.Fatal(err)
				}
				var worst, sum float64
				for i := range plan.Stages {
					worst = max(worst, plan.Stages[i].Seconds())
					sum += plan.Stages[i].Seconds()
				}
				if plan.PeriodSeconds != worst || plan.LatencySeconds != sum {
					t.Fatalf("%s on %d devices (int8 %v): period %g latency %g, slowest stage %g sum %g",
						m.Name, cl.Size(), quant, plan.PeriodSeconds, plan.LatencySeconds, worst, sum)
				}
				if got := len(plan.SerialGroups()); got != len(plan.Stages) {
					t.Fatalf("%s: %d serial groups for %d disjoint stages", m.Name, got, len(plan.Stages))
				}
			}
		}
	}
}

// sharedStages cuts a 6-conv toy into three stages on the given device sets,
// every stage in equal strips.
func sharedStages(m *nn.Model, devices ...[]int) []Stage {
	cuts := []int{0, 2, 4, m.NumLayers()}
	stages := make([]Stage, len(devices))
	for i, idx := range devices {
		stages[i] = Stage{
			From: cuts[i], To: cuts[i+1],
			DeviceIdx: idx,
			Parts:     partition.Equal(m.OutShape(cuts[i+1]-1).H, len(idx)),
		}
	}
	return stages
}

// TestSharedDevicePlanPeriodIsGroupSum: stages linked by a working device
// form one serial group whose summed seconds bound the period; sharing
// between non-adjacent stages serialises everything in between; latency is
// the sum of all stages either way; and the plan survives a save/load,
// re-priced.
func TestSharedDevicePlanPeriodIsGroupSum(t *testing.T) {
	m := nn.ToyChain("sh", 6, 0, 8, 32)
	cl := cluster.PaperHeterogeneous()
	cm := NewCostModel(m, cl)
	for _, tc := range []struct {
		name    string
		devices [][]int
		groups  [][2]int
	}{
		{"disjoint", [][]int{{0, 1}, {2}, {3, 4}}, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
		{"adjacent", [][]int{{0, 1}, {1, 2}, {3}}, [][2]int{{0, 2}, {2, 3}}},
		{"tail pair", [][]int{{0}, {1, 2}, {2, 3}}, [][2]int{{0, 1}, {1, 3}}},
		{"non-adjacent", [][]int{{0, 1}, {2}, {0, 3}}, [][2]int{{0, 3}}},
		{"whole cluster", [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}}, [][2]int{{0, 3}}},
	} {
		plan, err := NewPlan(cm, sharedStages(m, tc.devices...))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := plan.SerialGroups(); !reflect.DeepEqual(got, tc.groups) {
			t.Fatalf("%s: serial groups %v, want %v", tc.name, got, tc.groups)
		}
		var period, latency float64
		for _, g := range tc.groups {
			sum := 0.0
			for i := g[0]; i < g[1]; i++ {
				sum += plan.Stages[i].Seconds()
			}
			period = max(period, sum)
			latency += sum
		}
		if plan.PeriodSeconds != period {
			t.Fatalf("%s: period %g, longest group %g", tc.name, plan.PeriodSeconds, period)
		}
		if diff := plan.LatencySeconds - latency; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("%s: latency %g, stage sum %g", tc.name, plan.LatencySeconds, latency)
		}
		var buf bytes.Buffer
		if err := SavePlan(&buf, plan); err != nil {
			t.Fatalf("%s: save: %v", tc.name, err)
		}
		// The file's aggregates are not trusted: a load re-prices the groups.
		munged := bytes.Replace(buf.Bytes(), []byte(`"period_seconds"`), []byte(`"ignored"`), 1)
		back, err := LoadPlan(bytes.NewReader(munged))
		if err != nil {
			t.Fatalf("%s: load: %v", tc.name, err)
		}
		if back.PeriodSeconds != plan.PeriodSeconds || back.LatencySeconds != plan.LatencySeconds {
			t.Fatalf("%s: reloaded (%g, %g), saved (%g, %g)", tc.name,
				back.PeriodSeconds, back.LatencySeconds, plan.PeriodSeconds, plan.LatencySeconds)
		}
	}

	// An idle listing does not link stages: device 1 holds no rows of the
	// middle stage, so the stages around it stay their own groups.
	stages := sharedStages(m, []int{0}, []int{1, 2}, []int{1})
	stages[1].Parts = []partition.Range{{}, partition.Full(m.OutShape(3).H)}
	plan, err := NewPlan(cm, stages)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.SerialGroups(); len(got) != 3 {
		t.Fatalf("an idle device linked stages: groups %v", got)
	}

	// One device cannot hold two tiles of one stage.
	if _, err := NewPlan(cm, sharedStages(m, []int{0, 0}, []int{1}, []int{2})); err == nil {
		t.Fatal("a device listed twice in one stage was accepted")
	}
}
