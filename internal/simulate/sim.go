package simulate

import (
	"fmt"
	"math"
	"sort"
)

// Result aggregates one simulation run.
type Result struct {
	// Completed is the number of finished tasks.
	Completed int
	// MakespanSeconds is the time the last task finished (or the last
	// arrival, whichever is later).
	MakespanSeconds float64
	// Latencies are per-task sojourn times (waiting + pipeline traversal)
	// in completion order.
	Latencies []float64
	// DeviceBusySeconds is per-device accumulated compute time.
	DeviceBusySeconds []float64
	// DeviceFLOPs / DeviceRedundant are per-device accumulated work.
	DeviceFLOPs     []float64
	DeviceRedundant []float64
	// SchemeTasks counts tasks per scheme name (interesting for adaptive
	// runs; single-scheme runs have one entry).
	SchemeTasks map[string]int
}

// Throughput returns completed tasks per second.
func (r *Result) Throughput() float64 {
	if r.MakespanSeconds <= 0 {
		return 0
	}
	return float64(r.Completed) / r.MakespanSeconds
}

// AvgLatency returns the mean task latency.
func (r *Result) AvgLatency() float64 {
	if len(r.Latencies) == 0 {
		return 0
	}
	var sum float64
	for _, l := range r.Latencies {
		sum += l
	}
	return sum / float64(len(r.Latencies))
}

// Percentile returns the q-quantile (0 < q <= 1) of task latency.
func (r *Result) Percentile(q float64) float64 {
	if len(r.Latencies) == 0 {
		return 0
	}
	sorted := make([]float64, len(r.Latencies))
	copy(sorted, r.Latencies)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Utilization returns device k's busy fraction of the makespan.
func (r *Result) Utilization(k int) float64 {
	if r.MakespanSeconds <= 0 {
		return 0
	}
	return r.DeviceBusySeconds[k] / r.MakespanSeconds
}

// RedundancyRatio returns device k's redundant fraction of performed work.
func (r *Result) RedundancyRatio(k int) float64 {
	if r.DeviceFLOPs[k] == 0 {
		return 0
	}
	return r.DeviceRedundant[k] / r.DeviceFLOPs[k]
}

// state is the mutable tandem-queue state for one profile.
type state struct {
	prof       *ExecProfile
	prevFinish []float64
}

func newState(p *ExecProfile) *state {
	return &state{prof: p, prevFinish: make([]float64, len(p.Stages))}
}

// admit pushes one task arriving at time a through the tandem pipeline and
// returns its exit time.
func (s *state) admit(a float64) float64 {
	tIn := a
	for i, st := range s.prof.Stages {
		start := math.Max(tIn, s.prevFinish[i])
		finish := start + st.Seconds
		s.prevFinish[i] = finish
		tIn = finish
	}
	return tIn
}

// lastExit returns the time the pipeline fully drains.
func (s *state) lastExit() float64 {
	worst := 0.0
	for _, f := range s.prevFinish {
		if f > worst {
			worst = f
		}
	}
	return worst
}

// justInTime returns the latest admission time at which a new task flows
// through every stage without waiting: max over stages of (stage free time
// minus the traversal time to reach that stage). Admitting then keeps the
// bottleneck saturated (completions every period) while each task's latency
// stays exactly the pipeline traversal.
func (s *state) justInTime() float64 {
	at := 0.0
	cum := 0.0
	for i, st := range s.prof.Stages {
		if t := s.prevFinish[i] - cum; t > at {
			at = t
		}
		cum += st.Seconds
	}
	return at
}

func (r *Result) account(p *ExecProfile) {
	for _, st := range p.Stages {
		for di, busy := range st.DeviceBusy {
			r.DeviceBusySeconds[di] += busy
		}
	}
	for di, f := range p.DeviceFLOPs {
		r.DeviceFLOPs[di] += f
	}
	for di, f := range p.DeviceRedundant {
		r.DeviceRedundant[di] += f
	}
	r.SchemeTasks[p.Name]++
}

func newResult(numDevices int) *Result {
	return &Result{
		DeviceBusySeconds: make([]float64, numDevices),
		DeviceFLOPs:       make([]float64, numDevices),
		DeviceRedundant:   make([]float64, numDevices),
		SchemeTasks:       make(map[string]int),
	}
}

// RunOpenLoop simulates the profile under the given arrival times (ascending
// seconds) and returns per-task and per-device metrics.
func RunOpenLoop(p *ExecProfile, arrivals []float64, numDevices int) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return runArrivals([]*ExecProfile{p}, arrivals, numDevices, func(float64) int { return 0 })
}

// RunClosedLoop simulates back-to-back arrivals keeping the pipeline
// exactly full: each task is admitted at the latest time that lets it flow
// through every stage without queueing, so completions come one per period
// (the bottleneck stays saturated) and each latency is the bare traversal.
// This measures the maximum throughput (the paper's "cluster capacity"
// arrival scheme).
func RunClosedLoop(p *ExecProfile, tasks, numDevices int) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if tasks <= 0 {
		return nil, fmt.Errorf("simulate: non-positive task count %d", tasks)
	}
	res := newResult(numDevices)
	st := newState(p)
	last := 0.0
	for i := 0; i < tasks; i++ {
		a := st.justInTime()
		exit := st.admit(a)
		res.Latencies = append(res.Latencies, exit-a)
		res.Completed++
		res.account(p)
		if exit > last {
			last = exit
		}
	}
	res.MakespanSeconds = last
	return res, nil
}

// WorkloadEstimator consumes arrival timestamps and estimates the current
// task rate λ (tasks per second). Implemented by queueing.Estimator.
type WorkloadEstimator interface {
	Observe(t float64)
	Rate() float64
}

// SchemeChooser selects a candidate profile index for an estimated rate.
// Implemented by queueing.Switcher.
type SchemeChooser interface {
	Choose(rate float64) int
}

// RunAdaptive simulates the APICO front-end: for each arrival the estimator
// is updated and the chooser picks a scheme. Schemes share devices, so a
// reconfiguration cannot preempt running work: when the choice changes, the
// old configuration stops receiving tasks and drains, and the new
// configuration's stages only become available once the drain completes
// (a switch "bubble"). The paper's framework keeps every device holding all
// segment replicas, so the reconfiguration itself is a control-plane
// decision with no redeployment cost.
func RunAdaptive(cands []*ExecProfile, chooser SchemeChooser, est WorkloadEstimator, arrivals []float64, numDevices int) (*Result, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("simulate: no candidate profiles")
	}
	for _, p := range cands {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	return runArrivals(cands, arrivals, numDevices, func(a float64) int {
		est.Observe(a)
		return chooser.Choose(est.Rate())
	})
}

// runArrivals admits each arrival (ascending seconds) into the candidate
// pick returns for it, starting on cands[0]. A new pick opens only once the
// previous candidate has drained, the switch bubble RunAdaptive describes.
func runArrivals(cands []*ExecProfile, arrivals []float64, numDevices int, pick func(a float64) int) (*Result, error) {
	res := newResult(numDevices)
	cur := 0
	st := newState(cands[cur])
	last := 0.0
	for i, a := range arrivals {
		if i > 0 && a < arrivals[i-1] {
			return nil, fmt.Errorf("simulate: arrivals not sorted at index %d", i)
		}
		want := pick(a)
		if want < 0 || want >= len(cands) {
			return nil, fmt.Errorf("simulate: chooser picked %d of %d candidates", want, len(cands))
		}
		if want != cur {
			drain := st.lastExit()
			cur = want
			st = newState(cands[cur])
			// The new configuration's servers are blocked until every
			// previously dispatched task has left the cluster.
			for s := range st.prevFinish {
				st.prevFinish[s] = drain
			}
		}
		exit := st.admit(a)
		res.Latencies = append(res.Latencies, exit-a)
		res.Completed++
		res.account(cands[cur])
		if exit > last {
			last = exit
		}
		if a > last {
			last = a
		}
	}
	res.MakespanSeconds = last
	return res, nil
}
