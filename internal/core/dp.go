package core

import (
	"fmt"
	"math"
	"sort"

	"pico/internal/cluster"
	"pico/internal/nn"
	"pico/internal/partition"
)

// Options configure the PICO planner.
type Options struct {
	// LatencyLimit is T_lim: pipeline latencies above it are pruned
	// (Eq. 1). Zero means unbounded.
	LatencyLimit float64
	// NoHeterogeneityAdaptation skips Algorithm 2 and maps the
	// homogenised plan positionally onto the real devices with equal
	// strips — the ablation baseline for the greedy adaptation.
	NoHeterogeneityAdaptation bool
	// OverlapCommCompute plans with T = max(T_comp, T_comm) instead of
	// the paper's sum — devices that transfer while computing.
	OverlapCommCompute bool
	// Quantized plans for the int8 runtime: stage boundaries ship one byte
	// per element instead of four, so the transfer term shrinks 4x and the
	// DP may afford deeper pipelines. The produced Plan records the choice
	// so the runtime executes it in the matching mode.
	Quantized bool
}

// homStage is a stage of the homogeneous solution: segment [From, To) on
// Workers average devices.
type homStage struct {
	From, To int
	Workers  int
}

// dpPoint is one Pareto-optimal (period, latency) trade-off for a
// (prefix length, device budget) state, with the last-stage choice recorded
// for reconstruction (the R/S arrays of Algorithm 1): the final stage is
// [cut, j) holding a budget of `budget` devices of which `workers` carry
// strips. cut == -1 means the whole prefix is a single stage.
//
// The paper's Algorithm 1 memoises a single (period, latency) per state and
// prunes with the remaining T_lim, which can wrongly declare tight latency
// bounds infeasible (the memoised min-period solution may bust a bound that
// a higher-period/lower-latency solution meets). We strengthen the memo to
// the full Pareto frontier, making the latency constraint exact at the same
// asymptotic cost.
type dpPoint struct {
	period  float64
	latency float64
	cut     int
	budget  int
	workers int
	subIdx  int
}

// planner runs Algorithm 1 on the homogenised cluster.
type planner struct {
	cm       *CostModel
	speed    float64 // homogenised per-device effective speed
	L        int
	D        int
	limit    float64
	memo     [][]dpPoint
	memoSet  []bool
	tsMemo   []float64 // Ts[from][to][p], -1 when unset
	tsBest   []float64 // min over q <= p of Ts[from][to][q]
	tsBestQ  []int     // the q achieving tsBest
	maxParts int
	// scratch is the candidate buffer shared across DP states: each state
	// gathers its candidate points here, filters them into a compact
	// frontier, and leaves the grown capacity behind for the next state
	// instead of reallocating per state.
	scratch []dpPoint
}

func newPlanner(cm *CostModel, speed float64, devices int, limit float64) *planner {
	p := &planner{
		cm:       cm,
		speed:    speed,
		L:        cm.M.NumLayers(),
		D:        devices,
		limit:    limit,
		maxParts: devices,
	}
	p.memo = make([][]dpPoint, (p.L+1)*(p.D+1))
	p.memoSet = make([]bool, (p.L+1)*(p.D+1))
	n := p.L * (p.L + 1) * (p.D + 1)
	p.tsMemo = make([]float64, n)
	p.tsBest = make([]float64, n)
	p.tsBestQ = make([]int, n)
	for i := range p.tsMemo {
		p.tsMemo[i] = -1
		p.tsBest[i] = -1
	}
	return p
}

func (p *planner) tsIdx(from, to, q int) int {
	return (from*(p.L+1)+to)*(p.D+1) + q
}

// ts returns Ts[from][to][q]: the cost of segment [from, to) equally split
// over q average devices (Eq. 9 on the homogenised cluster).
func (p *planner) ts(from, to, q int) float64 {
	idx := p.tsIdx(from, to, q)
	if v := p.tsMemo[idx]; v >= 0 {
		return v
	}
	total, _, _ := p.cm.EqualStageCost(from, to, q, p.speed)
	p.tsMemo[idx] = total
	return total
}

// tsMin returns the best stage cost for [from, to) using at most pMax
// devices, and the device count achieving it. Allowing a stage to idle part
// of its device budget is what lets PICO "use a subset of edge devices
// instead of the entire cluster" (§V-B).
func (p *planner) tsMin(from, to, pMax int) (float64, int) {
	idx := p.tsIdx(from, to, pMax)
	if v := p.tsBest[idx]; v >= 0 {
		return v, p.tsBestQ[idx]
	}
	best := math.Inf(1)
	bestQ := 1
	for q := 1; q <= pMax; q++ {
		if t := p.ts(from, to, q); t < best-1e-15 {
			best = t
			bestQ = q
		}
	}
	p.tsBest[idx] = best
	p.tsBestQ[idx] = bestQ
	return best, bestQ
}

// solve computes the Pareto frontier of (period, latency) for pipelines over
// layers [0, j) with a budget of d devices, implementing the recurrence of
// Eq. (13) with memoisation and exact T_lim pruning. The returned frontier
// is sorted by increasing period (and strictly decreasing latency); it is
// empty when no pipeline meets the latency limit.
//
// States are filled bottom-up in prefix-length order — every (s, *) state a
// split consults is complete before (jj, *) starts — which lets all states
// share one candidate scratch buffer instead of allocating per recursive
// call.
func (p *planner) solve(j, d int) []dpPoint {
	mi := j*(p.D+1) + d
	if p.memoSet[mi] {
		return p.memo[mi]
	}
	for jj := 1; jj <= j; jj++ {
		for dd := 1; dd <= d; dd++ {
			si := jj*(p.D+1) + dd
			if p.memoSet[si] {
				continue
			}
			p.memo[si] = p.solveState(jj, dd)
			p.memoSet[si] = true
		}
	}
	return p.memo[mi]
}

// solveState evaluates one DP state, gathering candidates into the shared
// scratch buffer. All (s < j, *) states must already be memoised.
func (p *planner) solveState(j, d int) []dpPoint {
	candidates := p.scratch[:0]
	// Base: the whole prefix as one stage.
	base, baseQ := p.tsMin(0, j, d)
	if p.limit <= 0 || base <= p.limit {
		candidates = append(candidates, dpPoint{period: base, latency: base, cut: -1, budget: d, workers: baseQ})
	}
	// Split: prefix [0, s) with d-q devices, final stage [s, j) with q.
	for s := 1; s < j; s++ {
		for q := 1; q < d; q++ {
			stage, stageQ := p.tsMin(s, j, q)
			if p.limit > 0 && stage > p.limit {
				continue
			}
			for si, sub := range p.memo[s*(p.D+1)+(d-q)] {
				lat := sub.latency + stage
				if p.limit > 0 && lat > p.limit {
					continue
				}
				candidates = append(candidates, dpPoint{
					period:  math.Max(sub.period, stage),
					latency: lat,
					cut:     s, budget: q, workers: stageQ, subIdx: si,
				})
			}
		}
	}
	frontier := paretoFilter(candidates)
	p.scratch = candidates[:0] // keep the grown capacity for the next state
	return frontier
}

// paretoFilter keeps the non-dominated (period, latency) points, sorted by
// increasing period. The result is a fresh slice (points may be a shared
// scratch buffer); its capacity is bounded by a frontier-size guess so the
// memo doesn't pin large candidate-sized arrays.
func paretoFilter(points []dpPoint) []dpPoint {
	if len(points) == 0 {
		return nil
	}
	sort.Slice(points, func(a, b int) bool {
		if points[a].period != points[b].period {
			return points[a].period < points[b].period
		}
		return points[a].latency < points[b].latency
	})
	frontier := make([]dpPoint, 0, min(len(points), 16))
	bestLat := math.Inf(1)
	for _, pt := range points {
		if pt.latency < bestLat-1e-15 {
			frontier = append(frontier, pt)
			bestLat = pt.latency
		}
	}
	return frontier
}

// reconstruct builds the homogeneous stage list for frontier point pi of
// state (j, d) — the BuildStrategy walk of Algorithm 1.
func (p *planner) reconstruct(j, d, pi int) []homStage {
	if !p.memoSet[j*(p.D+1)+d] {
		panic("core: reconstruct before solve")
	}
	pt := p.memo[j*(p.D+1)+d][pi]
	if pt.cut < 0 {
		return []homStage{{From: 0, To: j, Workers: pt.workers}}
	}
	stages := p.reconstruct(pt.cut, d-pt.budget, pt.subIdx)
	return append(stages, homStage{From: pt.cut, To: j, Workers: pt.workers})
}

// CostModelFor validates the model and the cluster and builds the cost model
// the options select: every planner entry point — here and in schemes —
// prices its plan in the mode the plan will execute in.
func CostModelFor(m *nn.Model, c *cluster.Cluster, opts Options) (*CostModel, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cm := NewCostModel(m, c)
	if opts.OverlapCommCompute {
		cm.Combine = CostMax
	}
	if opts.Quantized {
		cm.BytesPerElem = 1
	}
	return cm, nil
}

// PlanPipeline runs the full PICO planner (Algorithms 1 + 2) and returns the
// pipelined cooperation plan for the model on the cluster.
func PlanPipeline(m *nn.Model, c *cluster.Cluster, opts Options) (*Plan, error) {
	cm, err := CostModelFor(m, c, opts)
	if err != nil {
		return nil, err
	}

	// Step 1 (Eq. 12 + Alg. 1): optimise on the homogenised cluster.
	avgSpeed := c.AverageEffectiveSpeed()
	pl := newPlanner(cm, avgSpeed, c.Size(), opts.LatencyLimit)
	frontier := pl.solve(m.NumLayers(), c.Size())
	if len(frontier) == 0 {
		return nil, fmt.Errorf("core: no pipeline meets the latency limit %.3fs", opts.LatencyLimit)
	}
	homStages := pl.reconstruct(m.NumLayers(), c.Size(), 0)

	// Step 2 (Alg. 2): adapt the stage set to the heterogeneous devices.
	if opts.NoHeterogeneityAdaptation {
		return NewPlan(cm, assignPositional(cm, homStages))
	}
	return NewPlan(cm, adaptToHeterogeneity(cm, homStages))
}

// assignPositional maps homogeneous stages onto devices in index order with
// equal strips (the no-adaptation ablation).
func assignPositional(cm *CostModel, homStages []homStage) []Stage {
	var stages []Stage
	next := 0
	for _, hs := range homStages {
		outH := cm.M.OutShape(hs.To - 1).H
		stages = append(stages, Stage{
			From: hs.From, To: hs.To,
			DeviceIdx: firstDevices(next, hs.Workers),
			Parts:     partition.Equal(outH, hs.Workers),
		})
		next += hs.Workers
	}
	return stages
}

// firstDevices returns the n consecutive device indices starting at lo.
func firstDevices(lo, n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = lo + i
	}
	return idx
}

// SingleDevice builds the trivial plan that runs the whole model on one
// device — the 1-device baseline of the speedup figures.
func SingleDevice(m *nn.Model, c *cluster.Cluster, deviceIdx int) (*Plan, error) {
	cm, err := CostModelFor(m, c, Options{})
	if err != nil {
		return nil, err
	}
	if deviceIdx < 0 || deviceIdx >= c.Size() {
		return nil, fmt.Errorf("core: device index %d out of range", deviceIdx)
	}
	return NewPlan(cm, []Stage{{
		From: 0, To: m.NumLayers(),
		DeviceIdx: []int{deviceIdx},
		Parts:     []partition.Range{partition.Full(m.Output().H)},
	}})
}

// GridPlan builds the one-stage plan that cuts the model's output map into a
// rows x cols grid of DeepThings-style tiles, tile k (row-major) on device k.
// Validation rejects grids the runtime cannot execute: empty tiles (a small
// map over-partitioned) and several tiles over a layer that needs the whole
// input map.
func GridPlan(m *nn.Model, c *cluster.Cluster, rows, cols int, opts Options) (*Plan, error) {
	cm, err := CostModelFor(m, c, opts)
	if err != nil {
		return nil, err
	}
	if rows < 1 || cols < 1 || rows*cols > c.Size() {
		return nil, fmt.Errorf("core: a %dx%d grid does not fit %d devices", rows, cols, c.Size())
	}
	out := m.Output()
	tiles := partition.GridPartition(out.H, out.W, rows, cols)
	parts := make([]partition.Range, len(tiles))
	colRanges := make([]partition.Range, len(tiles))
	for k, t := range tiles {
		parts[k], colRanges[k] = t.Rows, t.Cols
	}
	return NewPlan(cm, []Stage{{
		From: 0, To: m.NumLayers(),
		DeviceIdx: firstDevices(0, len(tiles)),
		Parts:     parts,
		Cols:      colRanges,
	}})
}
