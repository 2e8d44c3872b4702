package schemes

import (
	"math"

	"pico/internal/cluster"
	"pico/internal/nn"
	"pico/internal/partition"
)

// OFLOptions configure the Optimal-Fused-Layer baseline.
type OFLOptions struct {
	// CapacityAware balances segment strips by device speed instead of
	// splitting equally. The paper's OFL baseline is capacity-unaware
	// (Table I shows its slow devices saturating first); the aware variant
	// is provided for ablations.
	CapacityAware bool
}

// OptimalFusedLayer evaluates the AOFL-style scheme: a dynamic program cuts
// the model into consecutive fused segments, each executed across the whole
// cluster with a gather/scatter between segments, minimising the total
// inference time. Segments containing layers that need the full input run
// on the fastest single device.
func OptimalFusedLayer(m *nn.Model, c *cluster.Cluster, opts OFLOptions) (*OneStage, error) {
	ec, err := newEvalContext(m, c)
	if err != nil {
		return nil, err
	}
	n := c.Size()
	if n == 0 {
		return nil, errNoDevices
	}
	L := m.NumLayers()

	// segCost[i][j] is the cost of fused segment [i, j) across the cluster.
	type segPlan struct {
		cost      float64
		deviceIdx []int
		parts     []partition.Range
	}
	plans := make(map[[2]int]segPlan, L*(L+1)/2)
	fastest := fastestDevice(c)
	allIdx := allDeviceIdx(n)
	allSpeeds := ec.cm.DeviceSpeeds(allIdx)
	segment := func(i, j int) segPlan {
		key := [2]int{i, j}
		if sp, ok := plans[key]; ok {
			return sp
		}
		outH := m.OutShape(j - 1).H
		var sp segPlan
		needsFull := false
		for l := i; l < j; l++ {
			if m.Layers[l].NeedsFullInput() {
				needsFull = true
				break
			}
		}
		if needsFull || outH < 2 {
			sp.deviceIdx = []int{fastest}
			sp.parts = []partition.Range{partition.Full(outH)}
			speeds := ec.cm.DeviceSpeeds(sp.deviceIdx)
			sp.cost, _, _ = ec.cm.StageCost(i, j, speeds, sp.parts, nil)
		} else {
			sp.deviceIdx = allIdx
			if opts.CapacityAware {
				sp.parts = ec.cm.Calc.Balanced(i, j, allSpeeds)
			} else {
				sp.parts = partition.Equal(outH, n)
			}
			sp.cost, _, _ = ec.cm.StageCost(i, j, allSpeeds, sp.parts, nil)
		}
		plans[key] = sp
		return sp
	}

	// DP over cut points: best[j] = min_i best[i] + segCost(i, j).
	best := make([]float64, L+1)
	cut := make([]int, L+1)
	for j := 1; j <= L; j++ {
		best[j] = math.Inf(1)
		for i := 0; i < j; i++ {
			if t := best[i] + segment(i, j).cost; t < best[j] {
				best[j] = t
				cut[j] = i
			}
		}
	}

	// Reconstruct segments.
	var bounds [][2]int
	for j := L; j > 0; j = cut[j] {
		bounds = append(bounds, [2]int{cut[j], j})
	}
	out := newOneStage("OFL", n)
	for k := len(bounds) - 1; k >= 0; k-- {
		sp := segment(bounds[k][0], bounds[k][1])
		ec.accumulateSegment(out, bounds[k][0], bounds[k][1], sp.deviceIdx, sp.parts)
	}
	return out, nil
}
