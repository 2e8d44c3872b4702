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
// LW, EFL and OFL are one-stage schemes: the whole cluster serves one task
// at a time, so their pipeline period equals their latency.
package schemes

import (
	"fmt"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/simulate"
)

// SegmentExec records one fused segment of a one-stage scheme: the layer
// range, the devices executing it and their output strips.
type SegmentExec struct {
	From, To  int
	DeviceIdx []int
	Parts     []partition.Range
	// Seconds is the segment's compute-plus-communication time.
	Seconds float64
}

// OneStage is the evaluated execution of a one-stage scheme on one task.
type OneStage struct {
	// Name identifies the scheme ("LW", "EFL", "OFL").
	Name string
	// Seconds is the full inference time — both the scheme's period and
	// its latency.
	Seconds float64
	// Segments are the scheme's fused segments in execution order.
	Segments []SegmentExec
	// DeviceBusySeconds / DeviceFLOPs / DeviceRedundant are per-device
	// totals for one task, indexed by cluster device.
	DeviceBusySeconds []float64
	DeviceFLOPs       []float64
	DeviceRedundant   []float64
}

// Profile reduces the scheme to a single-stage simulator profile.
func (o *OneStage) Profile() *simulate.ExecProfile {
	busy := make(map[int]float64, len(o.DeviceBusySeconds))
	for di, b := range o.DeviceBusySeconds {
		if b > 0 {
			busy[di] = b
		}
	}
	return &simulate.ExecProfile{
		Name:            o.Name,
		Stages:          []simulate.StageProfile{{Seconds: o.Seconds, DeviceBusy: busy}},
		DeviceFLOPs:     o.DeviceFLOPs,
		DeviceRedundant: o.DeviceRedundant,
	}
}

// RedundancyRatio returns the cluster-wide redundant work fraction.
func (o *OneStage) RedundancyRatio() float64 {
	var total, red float64
	for k := range o.DeviceFLOPs {
		total += o.DeviceFLOPs[k]
		red += o.DeviceRedundant[k]
	}
	if total == 0 {
		return 0
	}
	return red / total
}

// evalContext bundles what every baseline needs.
type evalContext struct {
	m  *nn.Model
	c  *cluster.Cluster
	cm *core.CostModel
}

func newEvalContext(m *nn.Model, c *cluster.Cluster) (*evalContext, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &evalContext{m: m, c: c, cm: core.NewCostModel(m, c)}, nil
}

// allDeviceIdx returns [0, 1, ..., n).
func allDeviceIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// fastestDevice returns the index of the fastest device.
func fastestDevice(c *cluster.Cluster) int {
	return c.SortedBySpeed()[0]
}

// accumulateSegment adds one segment's busy/FLOPs/redundancy into the
// result and returns the segment time.
func (ec *evalContext) accumulateSegment(out *OneStage, from, to int, deviceIdx []int, parts []partition.Range) float64 {
	speeds := ec.cm.DeviceSpeeds(deviceIdx)
	total, _, _ := ec.cm.StageCost(from, to, speeds, parts, nil)
	red := ec.cm.Calc.Redundancy(from, to, parts)
	for k, di := range deviceIdx {
		out.DeviceFLOPs[di] += red.PerDeviceFLOPs[k]
		out.DeviceRedundant[di] += red.PerDeviceRedundant[k]
		if speeds[k] > 0 {
			out.DeviceBusySeconds[di] += red.PerDeviceFLOPs[k] / speeds[k]
		}
	}
	out.Segments = append(out.Segments, SegmentExec{
		From: from, To: to,
		DeviceIdx: deviceIdx,
		Parts:     parts,
		Seconds:   total,
	})
	out.Seconds += total
	return total
}

func newOneStage(name string, numDevices int) *OneStage {
	return &OneStage{
		Name:              name,
		DeviceBusySeconds: make([]float64, numDevices),
		DeviceFLOPs:       make([]float64, numDevices),
		DeviceRedundant:   make([]float64, numDevices),
	}
}

var errNoDevices = fmt.Errorf("schemes: cluster has no devices")
