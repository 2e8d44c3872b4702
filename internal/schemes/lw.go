package schemes

import (
	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
)

// LayerWise plans the MoDNN-style layer-wise scheme: every layer is a stage
// of its own whose output feature map is split equally across all devices,
// with a scatter/gather communication round per layer. Layers that cannot be
// spatially partitioned (fully connected, global pooling) run on the
// fastest device.
//
// Partitioning is capacity-unaware (equal tiles), matching the baseline
// behaviour visible in the paper's Table I, where the slow devices of the
// heterogeneous cluster saturate first. For the capacity-aware successor
// see MeDNN.
func LayerWise(m *nn.Model, c *cluster.Cluster, opts core.Options) (*core.Plan, error) {
	return layerWise(m, c, opts, false)
}

// MeDNN plans the MeDNN scheme (Mao et al., the paper's [26]): MoDNN's
// per-layer partitioning with strips sized to each device's capacity, the
// adaptive partition that work contributed for heterogeneous clusters. On a
// homogeneous cluster it coincides with LayerWise.
func MeDNN(m *nn.Model, c *cluster.Cluster, opts core.Options) (*core.Plan, error) {
	return layerWise(m, c, opts, true)
}

func layerWise(m *nn.Model, c *cluster.Cluster, opts core.Options, capacityAware bool) (*core.Plan, error) {
	cm, err := core.CostModelFor(m, c, opts)
	if err != nil {
		return nil, err
	}
	stages := make([]core.Stage, m.NumLayers())
	for i := range stages {
		stages[i] = clusterStage(cm, i, i+1, capacityAware)
	}
	return core.NewPlan(cm, stages)
}
