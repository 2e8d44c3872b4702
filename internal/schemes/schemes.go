// Package schemes implements the parallelization baselines the paper
// compares PICO against (§V-A):
//
//   - Layer-Wise (LW): MoDNN-style per-layer feature-map partitioning with a
//     scatter/gather round per layer.
//   - Early-Fused-Layer (EFL): DeepThings-style fusion of the early
//     convolution layers across all devices, with the remaining layers on a
//     single device.
//   - Optimal-Fused-Layer (OFL): AOFL-style dynamic programming that cuts
//     the model into fused segments, each executed by the whole cluster.
//   - BFS: the exhaustive optimal pipeline search used as the upper bound in
//     Table II and Fig. 13.
//
// Every scheme returns a core.Plan built by core.NewPlan, so the simulator
// prices and the runtime executes the same object. LW, EFL and OFL are
// one-stage schemes: their stages all use the whole cluster, so the plan is
// one serial group and its period equals its latency.
package schemes

import (
	"fmt"
	"strings"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/queueing"
)

// planners maps every scheme's name to its planner with default parameters:
// the one place a name becomes a plan, for picosim's -scheme, the
// experiments' series and picoserve's plan kinds. "ofl" is the paper's
// capacity-unaware baseline; "fused" is its capacity-aware form, the
// one-stage scheme a serving session runs.
var planners = map[string]func(*nn.Model, *cluster.Cluster, core.Options) (*core.Plan, error){
	"lw":    LayerWise,
	"mednn": MeDNN,
	"efl": func(m *nn.Model, c *cluster.Cluster, opts core.Options) (*core.Plan, error) {
		return EarlyFusedLayer(m, c, 0, opts)
	},
	"efl-grid": func(m *nn.Model, c *cluster.Cluster, opts core.Options) (*core.Plan, error) {
		rows, cols := GridShape(c.Size())
		return EarlyFusedLayerGrid(m, c, 0, rows, cols, opts)
	},
	"ofl": func(m *nn.Model, c *cluster.Cluster, opts core.Options) (*core.Plan, error) {
		return OptimalFusedLayer(m, c, OFLOptions{}, opts)
	},
	"fused": func(m *nn.Model, c *cluster.Cluster, opts core.Options) (*core.Plan, error) {
		return OptimalFusedLayer(m, c, OFLOptions{CapacityAware: true}, opts)
	},
	"pico": core.PlanPipeline,
}

// Plan builds the named scheme's plan (lw, mednn, efl, efl-grid, ofl, fused
// or pico, in any case) for the model on the cluster, priced as opts say.
func Plan(name string, m *nn.Model, c *cluster.Cluster, opts core.Options) (*core.Plan, error) {
	planner, ok := planners[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("schemes: unknown scheme %q", name)
	}
	return planner(m, c, opts)
}

// APICO assembles the paper's adaptive scheme switch (§IV-C) over the given
// plans: one Theorem-2 candidate per plan, named names[i], in a switcher at
// the framework's hysteresis that starts on plans[0] — by convention the
// one-stage scheme, the right choice at λ = 0. The workload estimator stays
// the caller's: its β and window are what the callers differ in.
func APICO(names []string, plans []*core.Plan) (*queueing.Switcher, error) {
	cands := make([]queueing.Candidate, len(plans))
	for i, p := range plans {
		cands[i] = queueing.Candidate{Name: names[i], Period: p.PeriodSeconds, Latency: p.LatencySeconds}
	}
	return queueing.NewSwitcher(cands, queueing.DefaultHysteresis)
}

// allDeviceIdx returns [0, 1, ..., n).
func allDeviceIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// fastestStage runs segment [from, to) whole on the fastest device.
func fastestStage(cm *core.CostModel, from, to int) core.Stage {
	return core.Stage{
		From: from, To: to,
		DeviceIdx: []int{cm.C.SortedBySpeed()[0]},
		Parts:     []partition.Range{partition.Full(cm.M.OutShape(to - 1).H)},
	}
}

// clusterStage spreads segment [from, to) over the whole cluster in equal
// strips — capacity-balanced ones when capacityAware — or, when the segment
// cannot be split (a layer needs the full input map, or the output is a
// single row), runs it on the fastest device.
func clusterStage(cm *core.CostModel, from, to int, capacityAware bool) core.Stage {
	outH := cm.M.OutShape(to - 1).H
	splittable := outH >= 2
	for l := from; l < to; l++ {
		splittable = splittable && !cm.M.Layers[l].NeedsFullInput()
	}
	if !splittable {
		return fastestStage(cm, from, to)
	}
	idx := allDeviceIdx(cm.C.Size())
	parts := partition.Equal(outH, len(idx))
	if capacityAware {
		parts = cm.Calc.Balanced(from, to, cm.DeviceSpeeds(idx))
	}
	return core.Stage{From: from, To: to, DeviceIdx: idx, Parts: parts}
}
