package schemes

import (
	"errors"
	"fmt"
	"math"
	"time"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/partition"
)

// ErrBudgetExceeded is returned when the exhaustive search runs past its
// time budget — the analogue of the paper's "> 1h" Table II entries.
var ErrBudgetExceeded = errors.New("schemes: BFS search budget exceeded")

// BFSOptions configure the exhaustive optimal search.
type BFSOptions struct {
	// Budget bounds the wall-clock search time; zero means unlimited.
	Budget time.Duration
}

// BFSOptimal exhaustively searches every pipeline configuration — all
// contiguous layer segmentations crossed with all assignments of device
// subsets to stages — and returns the minimum-period plan. Within each
// candidate stage the output strips are capacity-balanced, so the result is
// the optimum the paper's BFS baseline approximates (Table II, Fig. 13).
//
// The state space is exponential in the device count, which is the point:
// PICO's heuristic must get close to this optimum at a vanishing fraction of
// its cost. Clusters beyond 16 devices are rejected outright.
func BFSOptimal(m *nn.Model, c *cluster.Cluster, opts BFSOptions) (*core.Plan, error) {
	cm, err := core.CostModelFor(m, c, core.Options{})
	if err != nil {
		return nil, err
	}
	n := c.Size()
	if n > 16 {
		return nil, fmt.Errorf("schemes: BFS on %d devices is intractable (max 16)", n)
	}
	L := m.NumLayers()
	full := 1<<uint(n) - 1

	deadline := time.Time{}
	if opts.Budget > 0 {
		deadline = time.Now().Add(opts.Budget)
	}
	evals := 0
	checkBudget := func() error {
		evals++
		if evals%256 == 0 && !deadline.IsZero() && time.Now().After(deadline) {
			return ErrBudgetExceeded
		}
		return nil
	}

	// Stage cost cache over (from, to, subset).
	type stageKey struct {
		from, to, subset int
	}
	type stageVal struct {
		cost  float64
		parts []partition.Range
		idx   []int
	}
	stageCache := make(map[stageKey]stageVal)
	stageCost := func(from, to, subset int) (stageVal, error) {
		key := stageKey{from, to, subset}
		if v, ok := stageCache[key]; ok {
			return v, nil
		}
		if err := checkBudget(); err != nil {
			return stageVal{}, err
		}
		var idx []int
		for d := 0; d < n; d++ {
			if subset&(1<<uint(d)) != 0 {
				idx = append(idx, d)
			}
		}
		speeds := cm.DeviceSpeeds(idx)
		parts := cm.Calc.Balanced(from, to, speeds)
		cost, _, _ := cm.StageCost(from, to, speeds, parts, nil)
		v := stageVal{cost: cost, parts: parts, idx: idx}
		stageCache[key] = v
		return v, nil
	}

	// Search over (from, available-device mask) states.
	type searchKey struct {
		from, mask int
	}
	type searchVal struct {
		period  float64
		to      int
		subset  int
		visited bool
	}
	memo := make(map[searchKey]searchVal)
	var solve func(from, mask int) (searchVal, error)
	solve = func(from, mask int) (searchVal, error) {
		if from == L {
			return searchVal{period: 0, visited: true}, nil
		}
		key := searchKey{from, mask}
		if v, ok := memo[key]; ok {
			return v, nil
		}
		best := searchVal{period: math.Inf(1), visited: true}
		if mask == 0 {
			memo[key] = best
			return best, nil
		}
		for to := from + 1; to <= L; to++ {
			// Enumerate non-empty submasks of mask.
			for sub := mask; sub > 0; sub = (sub - 1) & mask {
				sv, err := stageCost(from, to, sub)
				if err != nil {
					return searchVal{}, err
				}
				if sv.cost >= best.period {
					continue // cannot improve the bottleneck
				}
				rest, err := solve(to, mask&^sub)
				if err != nil {
					return searchVal{}, err
				}
				period := math.Max(sv.cost, rest.period)
				if period < best.period {
					best = searchVal{period: period, to: to, subset: sub, visited: true}
				}
			}
		}
		memo[key] = best
		return best, nil
	}

	root, err := solve(0, full)
	if err != nil {
		return nil, err
	}
	if math.IsInf(root.period, 1) {
		return nil, fmt.Errorf("schemes: BFS found no feasible pipeline")
	}

	// Reconstruct the plan.
	var stages []core.Stage
	from, mask := 0, full
	for from < L {
		v := memo[searchKey{from, mask}]
		sv, err := stageCost(from, v.to, v.subset)
		if err != nil {
			return nil, err
		}
		stages = append(stages, core.Stage{
			From: from, To: v.to,
			DeviceIdx: sv.idx,
			Parts:     sv.parts,
		})
		mask &^= v.subset
		from = v.to
	}
	return core.NewPlan(cm, stages)
}
