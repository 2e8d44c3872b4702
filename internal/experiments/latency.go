package experiments

import (
	"pico/internal/cluster"
	"pico/internal/nn"
	"pico/internal/simulate"
)

// latencySchemes are the series of Figures 10 and 11 (the paper drops
// layer-wise here "due to its poor performance" and adds APICO).
var latencySchemes = []string{"EFL", "OFL", "PICO", "APICO"}

// latencyFigure reproduces one of Figures 10/11: average inference latency
// (waiting + processing) under Poisson arrivals at 40%–150% of cluster
// capacity, where capacity is defined — as in the paper — as the throughput
// of the Early-Fused-Layer scheme. Expected shape: EFL blows up first
// (longest period), OFL later, PICO/APICO stay near-flat, and APICO matches
// the best scheme at every workload by switching.
func latencyFigure(figID string, m *nn.Model, cfg Config) ([]Table, error) {
	cl := cluster.PaperHeterogeneous()
	sp, err := buildProfiles(m, cl, []string{"EFL", "OFL", "PICO"})
	if err != nil {
		return nil, err
	}
	// Cluster capacity := EFL throughput (paper §V-A).
	capacity := 1 / sp.profiles["EFL"].Period()

	avg := Table{
		ID:      figID + "a",
		Title:   m.Name + " average inference latency (s) vs workload (x EFL capacity), 8 heterogeneous devices",
		Columns: append([]string{"workload"}, latencySchemes...),
	}
	for _, w := range cfg.Workloads {
		rate := w * capacity
		row := []string{pct(w)}
		for _, name := range latencySchemes {
			var sum float64
			for _, seed := range cfg.Seeds {
				arrivals := simulate.PoissonArrivals(rate, cfg.SimSeconds, seed)
				var res *simulate.Result
				var err error
				if name == "APICO" {
					res, err = sp.runAPICO(0.5, arrivals)
				} else {
					res, err = simulate.RunOpenLoop(sp.profiles[name], arrivals, cl.Size())
				}
				if err != nil {
					return nil, err
				}
				sum += res.AvgLatency()
			}
			row = append(row, secs(sum/float64(len(cfg.Seeds))))
		}
		avg.AddRow(row...)
	}
	avg.Notes = append(avg.Notes,
		"paper reports 1.7–6.5x average latency reduction under heavy workloads")

	// Panel (b): the latency distribution at 100% workload per scheme.
	dist := Table{
		ID:      figID + "b",
		Title:   m.Name + " latency at 100% workload: mean / p50 / p95 (s)",
		Columns: []string{"scheme", "mean", "p50", "p95", "throughput(/min)"},
	}
	rate := 1.0 * capacity
	for _, name := range latencySchemes {
		arrivals := simulate.PoissonArrivals(rate, cfg.SimSeconds, cfg.Seeds[0])
		var res *simulate.Result
		var err error
		if name == "APICO" {
			res, err = sp.runAPICO(0.5, arrivals)
		} else {
			res, err = simulate.RunOpenLoop(sp.profiles[name], arrivals, cl.Size())
		}
		if err != nil {
			return nil, err
		}
		dist.AddRow(name, secs(res.AvgLatency()), secs(res.Percentile(0.5)),
			secs(res.Percentile(0.95)), perMin(res.Throughput()))
	}
	return []Table{avg, dist}, nil
}

// Fig10 reproduces Figure 10 (VGG16 latency under workload).
func Fig10(cfg Config) ([]Table, error) { return latencyFigure("fig10", nn.VGG16(), cfg) }

// Fig11 reproduces Figure 11 (YOLOv2 latency under workload).
func Fig11(cfg Config) ([]Table, error) { return latencyFigure("fig11", nn.YOLOv2(), cfg) }
