package core

import (
	"fmt"
	"strings"

	"pico/internal/cluster"
	"pico/internal/nn"
	"pico/internal/partition"
)

// Stage is one pipeline stage: a contiguous layer segment replicated over a
// device subset, each device producing one output tile.
type Stage struct {
	// From, To delimit the model segment [From, To).
	From, To int
	// DeviceIdx are indices into the cluster's device slice.
	DeviceIdx []int
	// Parts are the per-device output row ranges, parallel to DeviceIdx.
	// Empty ranges mark devices that idle in this stage.
	Parts []partition.Range
	// Cols, when non-nil, is parallel to Parts and narrows device k's tile to
	// the rectangle Parts[k] x Cols[k] — a DeepThings-style 2D grid tile.
	// Nil means every tile spans the full width: the row strips the planners
	// build.
	Cols []partition.Range
	// CompSeconds is T_comp (Eq. 6) for this stage.
	CompSeconds float64
	// CommSeconds is the stage's communication contribution to T(S):
	// the full T_comm (Eq. 8) under the paper's serialized cost model,
	// or only the portion not hidden behind computation when the plan was
	// built with OverlapCommCompute.
	CommSeconds float64
}

// Seconds returns the stage execution time T(S) = T_comp + T_comm (Eq. 9).
func (s *Stage) Seconds() float64 { return s.CompSeconds + s.CommSeconds }

// Tiles returns the per-device output rectangles, parallel to DeviceIdx, on
// a stage output outW columns wide.
func (s *Stage) Tiles(outW int) []partition.Rect {
	tiles := make([]partition.Rect, len(s.Parts))
	for k := range s.Parts {
		tiles[k] = tileRect(s.Parts, s.Cols, k, outW)
	}
	return tiles
}

// tileRect is the tile parts[k] x cols[k] on a map outW columns wide; nil
// cols mean every tile spans the full width.
func tileRect(parts, cols []partition.Range, k, outW int) partition.Rect {
	if cols == nil {
		return partition.Rect{Rows: parts[k], Cols: partition.Full(outW)}
	}
	return partition.Rect{Rows: parts[k], Cols: cols[k]}
}

// tileLabel renders device k's tile for plan summaries.
func (s *Stage) tileLabel(k int) string {
	if s.Cols == nil {
		return fmt.Sprintf("rows %v", s.Parts[k])
	}
	return fmt.Sprintf("rows %v cols %v", s.Parts[k], s.Cols[k])
}

// Workers returns how many devices hold a non-empty strip.
func (s *Stage) Workers() int {
	n := 0
	for _, p := range s.Parts {
		if !p.Empty() {
			n++
		}
	}
	return n
}

// Plan is a complete pipelined cooperation scheme for one model on one
// cluster.
type Plan struct {
	Model   *nn.Model
	Cluster *cluster.Cluster
	Stages  []Stage
	// PeriodSeconds is P(M, D, S) (Eq. 10): the slowest serial group's
	// summed stage times (see SerialGroups; the slowest stage when no two
	// stages share a device) — the reciprocal of steady-state throughput.
	PeriodSeconds float64
	// LatencySeconds is T(M, D, S) (Eq. 11): the sum of stage times — the
	// time one task spends traversing the pipeline.
	LatencySeconds float64
	// Quantized records that the plan was costed for (and must execute on)
	// the int8 runtime: one wire byte per element and the quantized
	// kernels. The runtime reads this to pick the transport precision.
	Quantized bool
}

// CostModel returns the cost model matching the plan's execution mode —
// the one re-pricing and any re-balancing must price transfers with.
func (p *Plan) CostModel() *CostModel {
	cm := NewCostModel(p.Model, p.Cluster)
	if p.Quantized {
		cm.BytesPerElem = 1
	}
	return cm
}

// NewPlan is the one constructor every plan source ends in — the PICO
// planner, the baseline schemes, the exhaustive search and plan files alike:
// the stages are validated, each is priced with cm (the cost model of the
// mode the plan will execute in, see CostModelFor), and the period and
// latency are aggregated over the plan's serial groups.
func NewPlan(cm *CostModel, stages []Stage) (*Plan, error) {
	p := &Plan{Model: cm.M, Cluster: cm.C, Stages: stages, Quantized: cm.BytesPerElem == 1}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for i := range p.Stages {
		st := &p.Stages[i]
		total, comp, _ := cm.StageCost(st.From, st.To, cm.DeviceSpeeds(st.DeviceIdx), st.Parts, st.Cols)
		st.CompSeconds = comp
		st.CommSeconds = total - comp
		p.LatencySeconds += st.Seconds()
	}
	for _, g := range p.SerialGroups() {
		t := 0.0
		for i := g[0]; i < g[1]; i++ {
			t += p.Stages[i].Seconds()
		}
		p.PeriodSeconds = max(p.PeriodSeconds, t)
	}
	return p, nil
}

// SerialGroups cuts the stages into the maximal runs [lo, hi) a task
// traverses before the next task can enter: a device executes one tile at a
// time, so two stages that share a working device cannot overlap, and the
// stages between them are kept in the same run (contiguous groups, each one
// server of a tandem queue; conservative when the sharing stages are not
// adjacent). A device-disjoint plan — every plan the PICO planner builds —
// has one group per stage; a one-stage scheme whose segments all run on the
// whole cluster (LW, EFL, OFL) is one group.
func (p *Plan) SerialGroups() [][2]int {
	last := make(map[int]int) // device -> last stage it works in
	for i, st := range p.Stages {
		for k, di := range st.DeviceIdx {
			if !st.Parts[k].Empty() {
				last[di] = i
			}
		}
	}
	var groups [][2]int
	lo, end := 0, 0
	for i, st := range p.Stages {
		for k, di := range st.DeviceIdx {
			if !st.Parts[k].Empty() {
				end = max(end, last[di])
			}
		}
		if i == end {
			groups = append(groups, [2]int{lo, i + 1})
			lo, end = i+1, i+1
		}
	}
	return groups
}

// Throughput returns the steady-state tasks per second, 1/period.
func (p *Plan) Throughput() float64 {
	if p.PeriodSeconds <= 0 {
		return 0
	}
	return 1 / p.PeriodSeconds
}

// UsedDevices returns the indices of devices holding at least one non-empty
// strip in any stage, in first-use order.
func (p *Plan) UsedDevices() []int {
	seen := make(map[int]bool)
	var used []int
	for _, st := range p.Stages {
		for k, di := range st.DeviceIdx {
			if !st.Parts[k].Empty() && !seen[di] {
				seen[di] = true
				used = append(used, di)
			}
		}
	}
	return used
}

// Stats aggregates per-device work and redundancy over one task traversal —
// the quantities behind the paper's Table I.
type Stats struct {
	// DeviceFLOPs[k] is the work device k performs per task.
	DeviceFLOPs []float64
	// DeviceRedundant[k] is the overlap-attributed redundant portion.
	DeviceRedundant []float64
	// DeviceBusySeconds[k] is device k's compute-busy time per task.
	DeviceBusySeconds []float64
}

// TotalFLOPs returns the work all devices perform per task.
func (s *Stats) TotalFLOPs() float64 {
	var sum float64
	for _, f := range s.DeviceFLOPs {
		sum += f
	}
	return sum
}

// RedundancyRatio returns the cluster-wide redundant fraction.
func (s *Stats) RedundancyRatio() float64 {
	total := s.TotalFLOPs()
	if total == 0 {
		return 0
	}
	var red float64
	for _, r := range s.DeviceRedundant {
		red += r
	}
	return red / total
}

// Stats computes per-device work, redundancy and busy time for one task.
func (p *Plan) Stats(cm *CostModel) *Stats {
	n := len(p.Cluster.Devices)
	st := &Stats{
		DeviceFLOPs:       make([]float64, n),
		DeviceRedundant:   make([]float64, n),
		DeviceBusySeconds: make([]float64, n),
	}
	for _, stage := range p.Stages {
		red := cm.Calc.Redundancy(stage.From, stage.To, stage.Tiles(p.Model.OutShape(stage.To-1).W))
		for k, di := range stage.DeviceIdx {
			flops := red.PerDeviceFLOPs[k]
			st.DeviceFLOPs[di] += flops
			st.DeviceRedundant[di] += red.PerDeviceRedundant[k]
			speed := p.Cluster.Devices[di].EffectiveSpeed()
			if speed > 0 {
				st.DeviceBusySeconds[di] += flops / speed
			}
		}
	}
	return st
}

// Describe renders a human-readable multi-line plan summary.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline for %s on %d devices: %d stages, period %.3fs, latency %.3fs\n",
		p.Model.Name, p.Cluster.Size(), len(p.Stages), p.PeriodSeconds, p.LatencySeconds)
	for i, st := range p.Stages {
		fmt.Fprintf(&b, "  stage %d: layers [%d,%d) on %d device(s), comp %.3fs + comm %.3fs\n",
			i, st.From, st.To, st.Workers(), st.CompSeconds, st.CommSeconds)
		for k, di := range st.DeviceIdx {
			if st.Parts[k].Empty() {
				continue
			}
			fmt.Fprintf(&b, "    %-18s %s\n", p.Cluster.Devices[di].ID, st.tileLabel(k))
		}
	}
	return b.String()
}

// Validate checks structural consistency: contiguous full-model coverage,
// no device holding two tiles of one stage (stages may share devices; such
// stages execute serially, see SerialGroups), tiles covering each stage
// output exactly once.
func (p *Plan) Validate() error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("core: plan has no stages")
	}
	if p.Stages[0].From != 0 || p.Stages[len(p.Stages)-1].To != p.Model.NumLayers() {
		return fmt.Errorf("core: plan does not cover the model: [%d,%d)",
			p.Stages[0].From, p.Stages[len(p.Stages)-1].To)
	}
	for i, st := range p.Stages {
		if i > 0 && st.From != p.Stages[i-1].To {
			return fmt.Errorf("core: stage %d starts at %d, previous ended at %d", i, st.From, p.Stages[i-1].To)
		}
		if len(st.DeviceIdx) != len(st.Parts) {
			return fmt.Errorf("core: stage %d has %d devices but %d parts", i, len(st.DeviceIdx), len(st.Parts))
		}
		if st.Workers() == 0 {
			return fmt.Errorf("core: stage %d has no working device", i)
		}
		working := make(map[int]bool, len(st.DeviceIdx))
		for k, di := range st.DeviceIdx {
			if st.Parts[k].Empty() {
				continue
			}
			if working[di] {
				return fmt.Errorf("core: device %d holds two tiles of stage %d", di, i)
			}
			working[di] = true
		}
		if st.Cols != nil && len(st.Cols) != len(st.Parts) {
			return fmt.Errorf("core: stage %d has %d parts but %d column ranges", i, len(st.Parts), len(st.Cols))
		}
		// A layer that consumes the whole feature map (fully connected,
		// global average pool) back-propagates every tile to the full input,
		// so a segment holding one runs as a single tile or not at all.
		for l := st.From; st.Workers() > 1 && l < st.To; l++ {
			if p.Model.Layers[l].NeedsFullInput() {
				return fmt.Errorf("core: stage %d layer %d (%s) needs the full input map and cannot be partitioned across %d tiles; split the segment before it",
					i, l, p.Model.Layers[l].Name, st.Workers())
			}
		}
		// Tiles must cover the stage output exactly once: inside the map,
		// pairwise disjoint, areas summing to the map's.
		out := p.Model.OutShape(st.To - 1)
		tiles := st.Tiles(out.W)
		cells := 0
		for k, r := range tiles {
			if r.Empty() {
				if st.Cols != nil {
					return fmt.Errorf("core: stage %d tile %d is empty", i, k)
				}
				continue
			}
			if !partition.Full(out.H).Contains(r.Rows) || !partition.Full(out.W).Contains(r.Cols) {
				return fmt.Errorf("core: stage %d tile %v outside %dx%d", i, r, out.H, out.W)
			}
			for _, o := range tiles[:k] {
				if !o.Rows.Intersect(r.Rows).Empty() && !o.Cols.Intersect(r.Cols).Empty() {
					return fmt.Errorf("core: stage %d tiles %v and %v overlap", i, o, r)
				}
			}
			cells += r.Cells()
		}
		if cells != out.H*out.W {
			return fmt.Errorf("core: stage %d tiles cover %d of %d output cells", i, cells, out.H*out.W)
		}
	}
	return nil
}
