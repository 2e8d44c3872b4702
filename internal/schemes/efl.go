package schemes

import (
	"fmt"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/partition"
)

// DefaultFusedPrefix returns the layer count the Early-Fused-Layer baseline
// fuses: everything up to and including the deepest pooling layer whose
// output feature map still gives every device at least one row to produce
// (a grid-partitionable fused block, the DeepThings configuration — for
// YOLOv2 on 8 devices this covers the backbone through its fifth pool,
// matching DeepThings' early-layer fusion ahead of the detection head).
// Models without such a pool fuse the first two thirds of their layers.
func DefaultFusedPrefix(m *nn.Model, devices int) int {
	if devices < 1 {
		devices = 1
	}
	best := 0
	for i := range m.Layers {
		switch m.Layers[i].Kind {
		case nn.MaxPool, nn.AvgPool:
			if m.OutShape(i).H >= devices {
				best = i + 1
			}
		}
	}
	if best > 0 && best < m.NumLayers() {
		return best
	}
	f := (m.NumLayers()*2 + 2) / 3
	if f < 1 {
		f = 1
	}
	if f >= m.NumLayers() {
		f = m.NumLayers() - 1
	}
	if f < 1 {
		f = 1
	}
	return f
}

// fusedPrefixFor validates the model, the cluster and an Early-Fused-Layer
// prefix (<= 0 selects DefaultFusedPrefix): it must leave a tail and cross no
// layer that needs the full input map.
func fusedPrefixFor(m *nn.Model, c *cluster.Cluster, fusedPrefix int, opts core.Options) (*core.CostModel, int, error) {
	cm, err := core.CostModelFor(m, c, opts)
	if err != nil {
		return nil, 0, err
	}
	if fusedPrefix <= 0 {
		fusedPrefix = DefaultFusedPrefix(m, c.Size())
	}
	if fusedPrefix >= m.NumLayers() {
		return nil, 0, fmt.Errorf("schemes: fused prefix %d must leave at least one tail layer of %d", fusedPrefix, m.NumLayers())
	}
	for i := 0; i < fusedPrefix; i++ {
		if m.Layers[i].NeedsFullInput() {
			return nil, 0, fmt.Errorf("schemes: fused prefix crosses unsplittable layer %d (%s)", i, m.Layers[i].Name)
		}
	}
	return cm, fusedPrefix, nil
}

// EarlyFusedLayer plans the DeepThings-style scheme: the first fusedPrefix
// layers are fused into one stage partitioned equally across all devices;
// the remaining layers execute on the fastest single device.
// fusedPrefix <= 0 selects DefaultFusedPrefix.
func EarlyFusedLayer(m *nn.Model, c *cluster.Cluster, fusedPrefix int, opts core.Options) (*core.Plan, error) {
	cm, fusedPrefix, err := fusedPrefixFor(m, c, fusedPrefix, opts)
	if err != nil {
		return nil, err
	}
	return core.NewPlan(cm, []core.Stage{
		{
			From: 0, To: fusedPrefix,
			DeviceIdx: allDeviceIdx(c.Size()),
			Parts:     partition.Equal(m.OutShape(fusedPrefix-1).H, c.Size()),
		},
		fastestStage(cm, fusedPrefix, m.NumLayers()),
	})
}

// GridShape chooses a near-square rows x cols factorization of n tiles
// (rows >= cols), the layout DeepThings uses for its fused block.
func GridShape(n int) (rows, cols int) {
	if n < 1 {
		return 1, 1
	}
	cols = 1
	for c := 2; c*c <= n; c++ {
		if n%c == 0 {
			cols = c
		}
	}
	return n / cols, cols
}

// EarlyFusedLayerGrid plans the DeepThings scheme with its original 2D grid
// partition of the fused block (the paper's EFL baseline splits into strips;
// DeepThings itself used grids to cut the per-device footprint). The fused
// prefix is one stage tiled rows x cols across all devices, tile k
// (row-major) on device k; the remaining layers run on the fastest device.
func EarlyFusedLayerGrid(m *nn.Model, c *cluster.Cluster, fusedPrefix, rows, cols int, opts core.Options) (*core.Plan, error) {
	cm, fusedPrefix, err := fusedPrefixFor(m, c, fusedPrefix, opts)
	if err != nil {
		return nil, err
	}
	if rows*cols != c.Size() {
		return nil, fmt.Errorf("schemes: %dx%d grid for %d devices", rows, cols, c.Size())
	}
	out := m.OutShape(fusedPrefix - 1)
	fused := core.Stage{From: 0, To: fusedPrefix, DeviceIdx: allDeviceIdx(c.Size())}
	for _, tile := range partition.GridPartition(out.H, out.W, rows, cols) {
		fused.Parts = append(fused.Parts, tile.Rows)
		fused.Cols = append(fused.Cols, tile.Cols)
	}
	return core.NewPlan(cm, []core.Stage{fused, fastestStage(cm, fusedPrefix, m.NumLayers())})
}
