package schemes

import (
	"math"
	"slices"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
)

// OFLOptions configure the Optimal-Fused-Layer baseline.
type OFLOptions struct {
	// CapacityAware balances segment strips by device speed instead of
	// splitting equally. The paper's OFL baseline is capacity-unaware
	// (Table I shows its slow devices saturating first); the aware variant
	// is provided for ablations.
	CapacityAware bool
}

// OptimalFusedLayer plans the AOFL-style scheme: a dynamic program cuts the
// model into consecutive fused segments, each a stage executed across the
// whole cluster with a gather/scatter between segments, minimising the total
// inference time. Segments containing layers that need the full input run
// on the fastest single device.
func OptimalFusedLayer(m *nn.Model, c *cluster.Cluster, ofl OFLOptions, opts core.Options) (*core.Plan, error) {
	cm, err := core.CostModelFor(m, c, opts)
	if err != nil {
		return nil, err
	}
	L := m.NumLayers()

	// segment is fused segment [i, j) across the cluster.
	segment := func(i, j int) core.Stage { return clusterStage(cm, i, j, ofl.CapacityAware) }

	// DP over cut points: best[j] = min_i best[i] + segCost(i, j).
	best := make([]float64, L+1)
	cut := make([]int, L+1)
	for j := 1; j <= L; j++ {
		best[j] = math.Inf(1)
		for i := 0; i < j; i++ {
			st := segment(i, j)
			cost, _, _ := cm.StageCost(i, j, cm.DeviceSpeeds(st.DeviceIdx), st.Parts, nil)
			if t := best[i] + cost; t < best[j] {
				best[j] = t
				cut[j] = i
			}
		}
	}

	// Reconstruct the segments, last to first.
	var stages []core.Stage
	for j := L; j > 0; j = cut[j] {
		stages = append(stages, segment(cut[j], j))
	}
	slices.Reverse(stages)
	return core.NewPlan(cm, stages)
}
