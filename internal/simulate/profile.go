// Package simulate provides the cluster simulator substituting for the
// paper's 8-Raspberry-Pi testbed: deterministic pipeline stage servers in
// tandem, open-loop Poisson and closed-loop (back-to-back) task arrivals,
// and the per-device utilization/redundancy accounting behind the paper's
// Figures 8–13 and Table I.
//
// Any cooperation scheme — a PICO pipeline or a one-stage fused baseline —
// is reduced to an ExecProfile: per-stage occupancy times plus per-device
// busy work for one task. Because every stage is a deterministic FIFO
// server with unbounded buffers, the tandem-queue recursion
//
//	finish[s][n] = max(finish[s-1][n], finish[s][n-1]) + T_s
//
// is exact, so no event heap is needed.
package simulate

import (
	"fmt"

	"pico/internal/core"
)

// StageProfile is one pipeline stage's per-task footprint.
type StageProfile struct {
	// Seconds is the stage's total occupancy per task (compute plus
	// communication) — the stage service time.
	Seconds float64
	// DeviceBusy maps cluster device index to compute-busy seconds per
	// task, used for CPU utilization accounting (communication does not
	// burn CPU in the paper's utilization metric).
	DeviceBusy map[int]float64
}

// ExecProfile is a cooperation scheme reduced to what the simulator needs
// (see FromPlan). A one-stage scheme (layer-wise, fused-layer) has exactly
// one stage whose Seconds equals the whole inference time.
type ExecProfile struct {
	// Name identifies the scheme ("PICO", "EFL", ...).
	Name string
	// Stages are the pipeline stages in order.
	Stages []StageProfile
	// DeviceFLOPs is each device's work per task (for redundancy ratios).
	DeviceFLOPs []float64
	// DeviceRedundant is each device's overlap-attributed redundant work.
	DeviceRedundant []float64
}

// Period returns the slowest stage time — the steady-state inter-completion
// gap (Eq. 10).
func (p *ExecProfile) Period() float64 {
	worst := 0.0
	for _, s := range p.Stages {
		if s.Seconds > worst {
			worst = s.Seconds
		}
	}
	return worst
}

// Latency returns the sum of stage times — one task's traversal time
// (Eq. 11).
func (p *ExecProfile) Latency() float64 {
	var sum float64
	for _, s := range p.Stages {
		sum += s.Seconds
	}
	return sum
}

// Validate checks the profile is simulatable.
func (p *ExecProfile) Validate() error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("simulate: profile %q has no stages", p.Name)
	}
	for i, s := range p.Stages {
		if s.Seconds <= 0 {
			return fmt.Errorf("simulate: profile %q stage %d has non-positive time %v", p.Name, i, s.Seconds)
		}
	}
	return nil
}

// FromPlan reduces a plan — a PICO pipeline or a baseline scheme — to an
// ExecProfile: one simulator stage per serial group of the plan (see
// core.Plan.SerialGroups), holding the group's summed stage seconds and
// summed per-device busy time. A device-disjoint pipeline keeps one stage
// per plan stage; a one-stage scheme collapses to the single server whose
// service time is its whole inference time.
func FromPlan(name string, plan *core.Plan) *ExecProfile {
	cm := core.NewCostModel(plan.Model, plan.Cluster)
	stats := plan.Stats(cm)
	prof := &ExecProfile{
		Name:            name,
		DeviceFLOPs:     stats.DeviceFLOPs,
		DeviceRedundant: stats.DeviceRedundant,
	}
	for _, g := range plan.SerialGroups() {
		sp := StageProfile{DeviceBusy: make(map[int]float64)}
		for i := g[0]; i < g[1]; i++ {
			st := &plan.Stages[i]
			sp.Seconds += st.Seconds()
			for k, di := range st.DeviceIdx {
				if st.Parts[k].Empty() {
					continue
				}
				if speed := plan.Cluster.Devices[di].EffectiveSpeed(); speed > 0 {
					sp.DeviceBusy[di] += cm.TileFLOPs(st, k) / speed
				}
			}
		}
		prof.Stages = append(prof.Stages, sp)
	}
	return prof
}
