// Package core implements the paper's contribution: the PICO pipelined
// cooperation planner. It combines the stage cost model (Eq. 2–11), the
// dynamic-programming pipeline optimizer for a homogenised cluster
// (Algorithm 1, Eq. 13) and the greedy adaptation of that pipeline to the
// real heterogeneous cluster (Algorithm 2 with divide-and-conquer strip
// re-balancing).
package core

import (
	"pico/internal/cluster"
	"pico/internal/nn"
	"pico/internal/partition"
)

// CostCombine selects how a stage's computation and communication times
// combine into the stage cost T(S).
type CostCombine int

const (
	// CostSum is the paper's Eq. (9): T = T_comp + T_comm — transfers and
	// computation serialize (single-radio devices that cannot compute
	// while the WLAN is busy).
	CostSum CostCombine = iota + 1
	// CostMax models full comm/compute overlap: T = max(T_comp, T_comm) —
	// the other extreme, where transfers hide behind computation. Real
	// testbeds sit between the two; the ablation-overlap experiment
	// quantifies the band.
	CostMax
)

// CostModel evaluates stage execution times for one model on one cluster,
// implementing §III-B of the paper.
type CostModel struct {
	M    *nn.Model
	C    *cluster.Cluster
	Calc *partition.Calc
	// Combine selects Eq. (9) (CostSum, default) or the overlapped
	// variant (CostMax).
	Combine CostCombine
	// BytesPerElem is the wire size of one feature-map element: 4 for
	// float32 (the default when zero), 1 for the int8 quantized path. The
	// planner's transfer term scales with it, so quantized plans may choose
	// deeper pipelines — stage boundaries cost a quarter as much.
	BytesPerElem int
}

// NewCostModel builds a cost model with clamped receptive fields and the
// paper's serialized comm+comp combination.
func NewCostModel(m *nn.Model, c *cluster.Cluster) *CostModel {
	return &CostModel{M: m, C: c, Calc: partition.NewCalc(m), Combine: CostSum, BytesPerElem: 4}
}

// tile returns device k's output tile of a stage ending at layer to.
func (cm *CostModel) tile(to int, parts, cols []partition.Range, k int) partition.Rect {
	return tileRect(parts, cols, k, cm.M.OutShape(to-1).W)
}

// tileFLOPs returns the work of device k's tile parts[k] x cols[k].
func (cm *CostModel) tileFLOPs(from, to int, parts, cols []partition.Range, k int) int64 {
	return cm.Calc.SegmentRectFLOPs(from, to, cm.tile(to, parts, cols, k))
}

// TileFLOPs returns the work device position k of the stage does per task.
func (cm *CostModel) TileFLOPs(st *Stage, k int) float64 {
	return float64(cm.tileFLOPs(st.From, st.To, st.Parts, st.Cols, k))
}

// StageComp returns T_comp (Eq. 6): the maximum per-device compute time when
// device speeds[k] (effective FLOPs/s, i.e. ϑ/α) produces output rows
// parts[k] — columns cols[k] of them when cols is non-nil — of segment
// [from, to).
func (cm *CostModel) StageComp(from, to int, speeds []float64, parts, cols []partition.Range) float64 {
	worst := 0.0
	for k, r := range parts {
		if r.Empty() || speeds[k] <= 0 {
			continue
		}
		if t := float64(cm.tileFLOPs(from, to, parts, cols, k)) / speeds[k]; t > worst {
			worst = t
		}
	}
	return worst
}

// StageComm returns T_comm (Eq. 7–8): the sum over stage devices of the time
// to transfer each device's input region in and output region out at the
// cluster bandwidth.
func (cm *CostModel) StageComm(from, to int, parts, cols []partition.Range) float64 {
	var bytes int64
	for k, r := range parts {
		if r.Empty() {
			continue
		}
		tile := cm.tile(to, parts, cols, k)
		bytes += cm.Calc.RectBytes(from, cm.Calc.TileRects(from, to, tile)[0]) + cm.Calc.RectBytes(to, tile)
	}
	// Calc prices regions at float32; rescale for the active element size.
	if cm.BytesPerElem > 0 && cm.BytesPerElem != 4 {
		return float64(bytes) * float64(cm.BytesPerElem) / 4 / cm.C.BandwidthBps
	}
	return float64(bytes) / cm.C.BandwidthBps
}

// StageCost returns T(S) (Eq. 9, or its overlapped variant per Combine)
// plus the two components.
func (cm *CostModel) StageCost(from, to int, speeds []float64, parts, cols []partition.Range) (total, comp, comm float64) {
	comp = cm.StageComp(from, to, speeds, parts, cols)
	comm = cm.StageComm(from, to, parts, cols)
	if cm.Combine == CostMax {
		if comp >= comm {
			return comp, comp, comm
		}
		return comm, comp, comm
	}
	return comp + comm, comp, comm
}

// EqualStageCost evaluates a homogeneous stage: p devices of the given
// effective speed with equally partitioned output rows. This is Ts[i][j][p]
// in Algorithm 1.
func (cm *CostModel) EqualStageCost(from, to, p int, speed float64) (total, comp, comm float64) {
	outH := cm.M.OutShape(to - 1).H
	parts := partition.Equal(outH, p)
	speeds := make([]float64, p)
	for i := range speeds {
		speeds[i] = speed
	}
	return cm.StageCost(from, to, speeds, parts, nil)
}

// DeviceSpeeds extracts effective speeds for the given device indices.
func (cm *CostModel) DeviceSpeeds(deviceIdx []int) []float64 {
	speeds := make([]float64, len(deviceIdx))
	for i, di := range deviceIdx {
		speeds[i] = cm.C.Devices[di].EffectiveSpeed()
	}
	return speeds
}

// SegmentWork returns Θ_{i→j} (Eq. 14): the total FLOPs all stage devices
// perform under the given partition, including redundant recomputation.
func (cm *CostModel) SegmentWork(from, to int, parts []partition.Range) float64 {
	var sum float64
	for _, r := range parts {
		if r.Empty() {
			continue
		}
		sum += float64(cm.Calc.SegmentRegionFLOPs(from, to, r))
	}
	return sum
}
