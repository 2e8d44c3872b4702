package experiments

import (
	"fmt"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/schemes"
	"pico/internal/simulate"
)

// AblationGreedy quantifies Algorithm 2: the pipeline period with the
// greedy device placement + divide-and-conquer strips versus positional
// placement with equal strips, on the heterogeneous cluster.
func AblationGreedy(cfg Config) ([]Table, error) {
	cl := cluster.PaperHeterogeneous()
	t := Table{
		ID:      "ablation-greedy",
		Title:   "Algorithm 2 ablation: pipeline period (s) on the heterogeneous cluster",
		Columns: []string{"model", "greedy+balanced", "positional+equal", "gain"},
	}
	for _, m := range []*nn.Model{nn.VGG16(), nn.YOLOv2(), nn.ResNet34(), nn.InceptionV3()} {
		adapted, err := core.PlanPipeline(m, cl, core.Options{})
		if err != nil {
			return nil, err
		}
		positional, err := core.PlanPipeline(m, cl, core.Options{NoHeterogeneityAdaptation: true})
		if err != nil {
			return nil, err
		}
		t.AddRow(m.Name, secs(adapted.PeriodSeconds), secs(positional.PeriodSeconds),
			f2(positional.PeriodSeconds/adapted.PeriodSeconds)+"x")
	}
	return []Table{t}, nil
}

// AblationBalancedStrips quantifies capacity-aware strip balancing inside a
// fused segment: plain OFL (equal strips, the paper's baseline behaviour)
// versus the capacity-aware variant, on the heterogeneous cluster.
func AblationBalancedStrips(cfg Config) ([]Table, error) {
	cl := cluster.PaperHeterogeneous()
	t := Table{
		ID:      "ablation-strips",
		Title:   "strip balancing ablation: OFL one-task time (s) on the heterogeneous cluster",
		Columns: []string{"model", "equal-strips", "balanced-strips", "gain"},
	}
	for _, m := range []*nn.Model{nn.VGG16(), nn.YOLOv2()} {
		plain, err := schemes.OptimalFusedLayer(m, cl, schemes.OFLOptions{}, core.Options{})
		if err != nil {
			return nil, err
		}
		aware, err := schemes.OptimalFusedLayer(m, cl, schemes.OFLOptions{CapacityAware: true}, core.Options{})
		if err != nil {
			return nil, err
		}
		t.AddRow(m.Name, secs(plain.LatencySeconds), secs(aware.LatencySeconds),
			f2(plain.LatencySeconds/aware.LatencySeconds)+"x")
	}
	return []Table{t}, nil
}

// AblationLatencyBound sweeps T_lim (Eq. 1): tightening the pipeline
// latency bound forces shallower pipelines and raises the achievable period.
func AblationLatencyBound(cfg Config) ([]Table, error) {
	m := nn.VGG16()
	cl := cluster.Homogeneous(8, 600e6)
	free, err := core.PlanPipeline(m, cl, core.Options{})
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:      "ablation-tlim",
		Title:   "latency bound sweep (VGG16, 8x600MHz): period vs T_lim",
		Columns: []string{"T_lim(xfree)", "period(s)", "latency(s)", "stages"},
	}
	t.AddRow("unbounded", secs(free.PeriodSeconds), secs(free.LatencySeconds),
		fmt.Sprintf("%d", len(free.Stages)))
	for _, f := range []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5} {
		limit := free.LatencySeconds * f
		plan, err := core.PlanPipeline(m, cl, core.Options{LatencyLimit: limit})
		if err != nil {
			t.AddRow(f2(f), "infeasible", "-", "-")
			continue
		}
		t.AddRow(f2(f), secs(plan.PeriodSeconds), secs(plan.LatencySeconds),
			fmt.Sprintf("%d", len(plan.Stages)))
	}
	t.Notes = append(t.Notes, "period must be non-increasing as the bound loosens")
	return []Table{t}, nil
}

// AblationEWMA sweeps the estimator's β (Eq. 15) under a workload that
// jumps from light to heavy: too-small β reacts slowly, too-large β chases
// noise; the APICO latency surface is the paper's motivation for exposing β
// as a hyper-parameter.
func AblationEWMA(cfg Config) ([]Table, error) {
	m := nn.VGG16()
	cl := cluster.PaperHeterogeneous()
	sp, err := buildProfiles(m, cl, []string{"OFL", "PICO"})
	if err != nil {
		return nil, err
	}
	capacity := 1 / sp.profiles["OFL"].Period()
	// Light (20%) then heavy (120% of OFL capacity) phases.
	half := cfg.SimSeconds / 2
	var arrivals []float64
	arrivals = append(arrivals, simulate.PoissonArrivals(0.2*capacity, half, 11)...)
	for _, a := range simulate.PoissonArrivals(1.2*capacity, half, 12) {
		arrivals = append(arrivals, half+a)
	}
	t := Table{
		ID:      "ablation-ewma",
		Title:   "EWMA beta sweep (VGG16, light->heavy workload): APICO average latency (s)",
		Columns: []string{"beta", "avg-latency", "p95", "pipeline-share"},
	}
	for _, beta := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		res, err := sp.runAPICO(beta, arrivals)
		if err != nil {
			return nil, err
		}
		share := float64(res.SchemeTasks["PICO"]) / float64(res.Completed)
		t.AddRow(f2(beta), secs(res.AvgLatency()), secs(res.Percentile(0.95)), pct(share))
	}
	return []Table{t}, nil
}

// AblationRFMode quantifies the deviation between the paper's unclamped
// Eq. 3 receptive fields and the boundary-clamped cost model used for
// execution: per-stage work estimates with PaperRF overshoot at tile
// boundaries, inflating the predicted period slightly.
func AblationRFMode(cfg Config) ([]Table, error) {
	t := Table{
		ID:      "ablation-rfmode",
		Title:   "cost-model receptive fields: clamped vs paper Eq.3 (8x600MHz, 8-way fused trunk)",
		Columns: []string{"model", "clamped(G)", "paperRF(G)", "overshoot"},
	}
	for _, m := range []*nn.Model{nn.VGG16Conv(), nn.YOLOv2()} {
		clamped := partition.NewCalc(m)
		paperRF := &partition.Calc{M: m, Mode: partition.PaperRF}
		to := schemes.DefaultFusedPrefix(m, 8)
		outH := m.OutShape(to - 1).H
		var sumC, sumP int64
		for _, p := range partition.Equal(outH, 8) {
			sumC += clamped.SegmentRegionFLOPs(0, to, p)
			sumP += paperRF.SegmentRegionFLOPs(0, to, p)
		}
		t.AddRow(m.Name, gflops(float64(sumC)), gflops(float64(sumP)),
			pct(float64(sumP)/float64(sumC)-1))
	}
	t.Notes = append(t.Notes, "clamping only trims boundary tiles; both modes agree on interior strips")
	return []Table{t}, nil
}

// AblationGrid compares DeepThings-style 2D grid tiles against the paper's
// row strips for a fused VGG16 prefix: per-device input footprint (the
// memory metric DeepThings optimizes), total work and redundancy. The halo
// argument — overlap scales with cut length, so grids win at high tile
// counts on square maps while strips are competitive at low counts — must
// show in the numbers.
func AblationGrid(cfg Config) ([]Table, error) {
	m := nn.VGG16Conv()
	calc := partition.NewCalc(m)
	to := schemes.DefaultFusedPrefix(m, 8)
	outShape := m.OutShape(to - 1)
	t := Table{
		ID:      "ablation-grid",
		Title:   fmt.Sprintf("strips vs 2D grid on the fused VGG16 prefix [0,%d): redundancy and footprint", to),
		Columns: []string{"tiles", "layout", "total(G)", "redundancy", "max-tile(G)", "max-input(MB)"},
	}
	layouts := []struct {
		n, rows, cols int
	}{
		{4, 4, 1}, {4, 2, 2},
		{9, 9, 1}, {9, 3, 3},
		{16, 16, 1}, {16, 4, 4},
	}
	for _, ly := range layouts {
		tiles := partition.GridPartition(outShape.H, outShape.W, ly.rows, ly.cols)
		stats := calc.Redundancy(0, to, tiles)
		label := "strips"
		if ly.cols > 1 {
			label = fmt.Sprintf("%dx%d grid", ly.rows, ly.cols)
		}
		t.AddRow(fmt.Sprintf("%d", ly.n), label,
			gflops(stats.TotalFLOPs), pct(stats.Ratio()),
			gflops(stats.MaxTileFLOPs()), f2(float64(stats.MaxInputBytes)/1e6))
	}
	t.Notes = append(t.Notes,
		"the runtime executes strips (as the paper's PICO); grids are the DeepThings design point")

	// Scheme-level comparison: the paper's strip EFL vs DeepThings' grid
	// EFL, one inference on homogeneous clusters.
	sch := Table{
		ID:      "ablation-grid-efl",
		Title:   "EFL one-task time (s): paper strips vs DeepThings grid",
		Columns: []string{"devices", "strips", "grid", "grid-layout", "redundancy strips/grid"},
	}
	for _, n := range []int{4, 8, 16} {
		cl := cluster.Homogeneous(n, 600e6)
		strips, err := schemes.EarlyFusedLayer(nn.VGG16(), cl, 0, core.Options{})
		if err != nil {
			return nil, err
		}
		rows, cols := schemes.GridShape(n)
		grid, err := schemes.EarlyFusedLayerGrid(nn.VGG16(), cl, 0, rows, cols, core.Options{})
		if err != nil {
			return nil, err
		}
		sch.AddRow(fmt.Sprintf("%d", n), secs(strips.LatencySeconds), secs(grid.LatencySeconds),
			fmt.Sprintf("%dx%d", rows, cols),
			pct(strips.Stats(strips.CostModel()).RedundancyRatio())+" / "+pct(grid.Stats(grid.CostModel()).RedundancyRatio()))
	}
	return []Table{t, sch}, nil
}

// AblationOverlap quantifies the serialized-vs-overlapped communication
// assumption: the paper's Eq. 9 sums T_comp and T_comm (single-radio
// devices idle while the WLAN is busy), while real testbeds overlap some
// transfer with computation. The experiment re-plans with
// T = max(T_comp, T_comm) and reports the period and saturated-cluster
// utilization band — the band that explains the utilization-magnitude gap
// between our Table I and the paper's (see EXPERIMENTS.md).
func AblationOverlap(cfg Config) ([]Table, error) {
	cl := cluster.PaperHeterogeneous()
	t := Table{
		ID:      "ablation-overlap",
		Title:   "comm/comp combination: Eq.9 sum vs overlapped max (heterogeneous cluster)",
		Columns: []string{"model", "period sum", "period max", "util sum", "util max"},
	}
	for _, m := range []*nn.Model{nn.VGG16(), nn.YOLOv2()} {
		row := []string{m.Name}
		var periods []float64
		var utils []float64
		for _, overlap := range []bool{false, true} {
			plan, err := core.PlanPipeline(m, cl, core.Options{OverlapCommCompute: overlap})
			if err != nil {
				return nil, err
			}
			periods = append(periods, plan.PeriodSeconds)
			res, err := simulate.RunClosedLoop(simulate.FromPlan("PICO", plan), cfg.ClosedLoopTasks, cl.Size())
			if err != nil {
				return nil, err
			}
			var sum float64
			for k := range cl.Devices {
				sum += res.Utilization(k)
			}
			utils = append(utils, sum/float64(cl.Size()))
		}
		row = append(row, secs(periods[0]), secs(periods[1]), pct(utils[0]), pct(utils[1]))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"the paper's testbed sits between the two columns; its higher Table-I utilizations are consistent with partial overlap")
	return []Table{t}, nil
}
