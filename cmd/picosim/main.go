// Command picosim runs ad-hoc cluster simulations: pick a model, a cluster
// shape, a parallelization scheme and a workload, and read off the latency
// and utilization metrics the paper plots.
//
//	picosim -model vgg16 -devices 8 -freq 600e6 -scheme pico -workload 0.8
//	picosim -model yolov2 -cluster paper -scheme apico -workload 1.2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pico"
	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/schemes"
	"pico/internal/simulate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("picosim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		modelName   = fs.String("model", "vgg16", strings.Join(nn.Names(), " | "))
		clusterKind = fs.String("cluster", "homogeneous", "homogeneous | paper")
		devices     = fs.Int("devices", 8, "device count (homogeneous cluster)")
		freq        = fs.Float64("freq", 600e6, "CPU frequency in Hz (homogeneous cluster)")
		bandwidth   = fs.Float64("bandwidth", cluster.WiFi50MbpsBps, "WLAN bandwidth in bytes/sec")
		scheme      = fs.String("scheme", "pico", "lw | mednn | efl | efl-grid | ofl | fused | pico | apico")
		workload    = fs.Float64("workload", 0, "Poisson rate as a fraction of EFL capacity; 0 = closed loop")
		duration    = fs.Float64("duration", 600, "simulated seconds (open loop)")
		tasks       = fs.Int("tasks", 500, "task count (closed loop)")
		seed        = fs.Int64("seed", 1, "arrival seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	m, err := nn.ByName(*modelName)
	if err != nil {
		fmt.Fprintf(stderr, "picosim: %v\n", err)
		return 1
	}
	cl, err := cluster.ByName(*clusterKind, *devices, *freq, *bandwidth)
	if err != nil {
		fmt.Fprintf(stderr, "picosim: %v\n", err)
		return 1
	}

	efl, err := schemes.EarlyFusedLayer(m, cl, 0, core.Options{})
	if err != nil {
		fmt.Fprintf(stderr, "picosim: %v\n", err)
		return 1
	}
	capacity := 1 / efl.PeriodSeconds

	res, err := runScheme(*scheme, m, cl, capacity, *workload, *duration, *tasks, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "picosim: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "model=%s cluster=%s devices=%d scheme=%s\n", m.Name, *clusterKind, cl.Size(), *scheme)
	fmt.Fprintf(stdout, "completed=%d makespan=%.1fs throughput=%.2f/min\n",
		res.Completed, res.MakespanSeconds, res.Throughput()*60)
	fmt.Fprintf(stdout, "latency: mean=%.3fs p50=%.3fs p95=%.3fs max=%.3fs\n",
		res.AvgLatency(), res.Percentile(0.5), res.Percentile(0.95), res.Percentile(1))
	for k, d := range cl.Devices {
		fmt.Fprintf(stdout, "  %-16s util=%6.2f%%  redundancy=%6.2f%%\n",
			d.ID, res.Utilization(k)*100, res.RedundancyRatio(k)*100)
	}
	return 0
}

func runScheme(scheme string, m *nn.Model, cl *cluster.Cluster, capacity, workload, duration float64, tasks int, seed int64) (*simulate.Result, error) {
	if scheme == "apico" {
		if workload <= 0 {
			return nil, fmt.Errorf("apico needs -workload > 0")
		}
		cands, sw, est, err := pico.NewAPICO(m, cl, 0.5, 10)
		if err != nil {
			return nil, err
		}
		arrivals := simulate.PoissonArrivals(workload*capacity, duration, seed)
		return simulate.RunAdaptive(cands, sw, est, arrivals, cl.Size())
	}

	plan, err := schemes.Plan(scheme, m, cl, core.Options{})
	if err != nil {
		return nil, err
	}
	prof := simulate.FromPlan(scheme, plan)
	if workload <= 0 {
		return simulate.RunClosedLoop(prof, tasks, cl.Size())
	}
	arrivals := simulate.PoissonArrivals(workload*capacity, duration, seed)
	return simulate.RunOpenLoop(prof, arrivals, cl.Size())
}
