package core

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"pico/internal/cluster"
	"pico/internal/nn"
	"pico/internal/partition"
)

// TestQuantizedCommScaling: pricing elements at one byte must shrink the
// transfer term exactly 4x and leave compute untouched.
func TestQuantizedCommScaling(t *testing.T) {
	m := nn.ToyChain("qc", 4, 2, 8, 16)
	cl := cluster.Homogeneous(3, 600e6)
	cmF := NewCostModel(m, cl)
	cmQ := NewCostModel(m, cl)
	cmQ.BytesPerElem = 1
	parts := partition.Equal(m.OutShape(1).H, 3)
	commF := cmF.StageComm(0, 2, parts, nil)
	commQ := cmQ.StageComm(0, 2, parts, nil)
	if commF <= 0 {
		t.Fatal("float comm is zero; test is vacuous")
	}
	if got, want := commQ, commF/4; got < want*0.999 || got > want*1.001 {
		t.Fatalf("quantized comm %g, want %g (float/4)", got, want)
	}
	speeds := []float64{1e9, 1e9, 1e9}
	if cmF.StageComp(0, 2, speeds, parts, nil) != cmQ.StageComp(0, 2, speeds, parts, nil) {
		t.Fatal("quantization changed the compute term")
	}
}

// TestQuantizedPlanNoSlower: with cheaper boundaries the planner can only do
// as well or better on period and latency.
func TestQuantizedPlanNoSlower(t *testing.T) {
	m := nn.ToyChain("qp", 6, 2, 8, 32)
	cl := cluster.Homogeneous(4, 600e6)
	pf, err := PlanPipeline(m, cl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := PlanPipeline(m, cl, Options{Quantized: true})
	if err != nil {
		t.Fatal(err)
	}
	if !pq.Quantized {
		t.Fatal("plan does not record quantized mode")
	}
	if pq.PeriodSeconds > pf.PeriodSeconds*1.0001 {
		t.Fatalf("quantized period %g worse than float %g", pq.PeriodSeconds, pf.PeriodSeconds)
	}
	if pq.LatencySeconds > pf.LatencySeconds*1.0001 {
		t.Fatalf("quantized latency %g worse than float %g", pq.LatencySeconds, pf.LatencySeconds)
	}
}

// TestQuantizedPlanRoundTrip: the quantized flag and int8-priced aggregates
// must survive save/load (LoadPlan reprices with the recorded mode).
func TestQuantizedPlanRoundTrip(t *testing.T) {
	m := nn.ToyChain("qs", 5, 2, 8, 16)
	cl := cluster.Homogeneous(3, 600e6)
	plan, err := PlanPipeline(m, cl, Options{Quantized: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SavePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Quantized {
		t.Fatal("loaded plan lost the quantized flag")
	}
	if back.PeriodSeconds != plan.PeriodSeconds || back.LatencySeconds != plan.LatencySeconds {
		t.Fatalf("loaded aggregates (%g, %g) differ from saved (%g, %g)",
			back.PeriodSeconds, back.LatencySeconds, plan.PeriodSeconds, plan.LatencySeconds)
	}
}

// TestGridPlan: tiles are plan data — a grid stage validates exactly-once
// rect coverage, is priced per tile (a quadrant costs less compute than the
// half-map strip beside it, more halo traffic than no split at all),
// survives save/load, and a plan without columns still serializes without
// the field.
func TestGridPlan(t *testing.T) {
	m := nn.ToyChain("gp", 5, 2, 8, 33)
	cl := cluster.Homogeneous(4, 600e6)
	grid, err := GridPlan(m, cl, 2, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := grid.Stages[0]
	out := m.Output()
	if want := partition.GridPartition(out.H, out.W, 2, 2); !reflect.DeepEqual(st.Tiles(out.W), want) {
		t.Fatalf("tiles %v, want %v", st.Tiles(out.W), want)
	}
	strips, err := GridPlan(m, cl, 2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	single, err := SingleDevice(m, cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(st.CompSeconds < strips.Stages[0].CompSeconds && strips.Stages[0].CompSeconds < single.Stages[0].CompSeconds) {
		t.Fatalf("compute seconds 2x2 %g, 2x1 %g, 1x1 %g: not falling with tile size",
			st.CompSeconds, strips.Stages[0].CompSeconds, single.Stages[0].CompSeconds)
	}
	if st.CommSeconds <= single.Stages[0].CommSeconds {
		t.Fatalf("2x2 grid ships %gs, no more than the unsplit map's %gs", st.CommSeconds, single.Stages[0].CommSeconds)
	}
	// A full-width grid column is the strip it always was, priced alike.
	rows, err := NewPlan(grid.CostModel(), []Stage{{From: 0, To: st.To, DeviceIdx: []int{0, 1}, Parts: strips.Stages[0].Parts}})
	if err != nil {
		t.Fatal(err)
	}
	if rows.Stages[0].CompSeconds != strips.Stages[0].CompSeconds {
		t.Fatalf("a 2x1 grid computes %g, the same strips %g", strips.Stages[0].CompSeconds, rows.Stages[0].CompSeconds)
	}

	// Table I accounting follows the tiles, not their row ranges.
	stats, gs := grid.Stats(grid.CostModel()), NewCostModel(m, cl).Calc.Redundancy(0, st.To, st.Tiles(out.W))
	if stats.TotalFLOPs() != gs.TotalFLOPs || math.Abs(stats.RedundancyRatio()-gs.Ratio()) > 1e-12 {
		t.Fatalf("grid stats: %g FLOPs at %.4f redundancy, tiles do %g at %.4f",
			stats.TotalFLOPs(), stats.RedundancyRatio(), gs.TotalFLOPs, gs.Ratio())
	}

	var buf bytes.Buffer
	if err := SavePlan(&buf, grid); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Stages, grid.Stages) {
		t.Fatalf("grid stage changed across save/load: %+v vs %+v", back.Stages, grid.Stages)
	}
	buf.Reset()
	if err := SavePlan(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "cols") {
		t.Fatal("a strip plan's file mentions cols")
	}

	// Broken tile sets: overlap, a hole, an empty tile, a tile off the map.
	for name, mut := range map[string]func(s *Stage){
		"overlap": func(s *Stage) { s.Cols[1].Lo-- },
		"hole":    func(s *Stage) { s.Cols[1].Lo++ },
		"empty":   func(s *Stage) { s.Cols[3] = partition.Range{} },
		"outside": func(s *Stage) { s.Cols[3].Hi++ },
		"short":   func(s *Stage) { s.Cols = s.Cols[:3] },
	} {
		bad := *grid
		bad.Stages = []Stage{st}
		bad.Stages[0].Cols = append([]partition.Range(nil), st.Cols...)
		mut(&bad.Stages[0])
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: invalid tile set accepted", name)
		}
	}
	if _, err := GridPlan(nn.ToyChain("tiny", 2, 0, 4, 2), cl, 4, 1, Options{}); err == nil {
		t.Error("a 2-row map cut into 4 tile rows accepted")
	}
	if _, err := GridPlan(m, cl, 3, 2, Options{}); err == nil {
		t.Error("six tiles on four devices accepted")
	}
}

// TestGridPlanStatsFollowCells: a grid stage's Table-I numbers are what its
// cells say. On a 3x3 grid of VGG16's fused prefix the centre tile has halo on
// four sides and the corners on two, so the centre's redundancy ratio is the
// highest; the per-device figures still add up to the stage's totals.
func TestGridPlanStatsFollowCells(t *testing.T) {
	trunk := nn.VGG16Conv()
	m := &nn.Model{Name: "vgg16-prefix", Input: trunk.Input, Layers: trunk.Layers[:7]}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	grid, err := GridPlan(m, cluster.Homogeneous(9, 600e6), 3, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cm, st := grid.CostModel(), &grid.Stages[0]
	stats := grid.Stats(cm)
	ratio := func(k int) float64 { return stats.DeviceRedundant[k] / stats.DeviceFLOPs[k] }
	for _, corner := range []int{0, 2, 6, 8} {
		if ratio(4) <= ratio(corner) {
			t.Errorf("centre tile redundancy %.4f not above corner %d's %.4f", ratio(4), corner, ratio(corner))
		}
	}
	var flops, tileFLOPs, redundant float64
	for k := range st.DeviceIdx {
		flops += stats.DeviceFLOPs[k]
		tileFLOPs += cm.TileFLOPs(st, k)
		redundant += stats.DeviceRedundant[k]
	}
	if flops != tileFLOPs {
		t.Errorf("devices do %g MACs, their tiles %g", flops, tileFLOPs)
	}
	want := cm.Calc.Redundancy(0, st.To, st.Tiles(m.Output().W)).RedundantFLOPs
	if math.Abs(redundant-want) > 1e-12*want {
		t.Errorf("devices carry %g redundant MACs, the stage %g", redundant, want)
	}
}
