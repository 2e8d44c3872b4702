// Command picoplan runs the PICO planner standalone: pick a model and a
// cluster shape, optionally bound the pipeline latency, inspect the stage
// structure and the predicted gains over the baselines, and save the plan
// as JSON for later execution with picorun -loadplan.
//
//	picoplan -model vgg16 -devices 8 -freq 600e6
//	picoplan -model yolov2 -cluster paper -tlim 8.5 -out plan.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/schemes"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("picoplan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		modelName   = fs.String("model", "vgg16", strings.Join(nn.Names(), " | "))
		clusterKind = fs.String("cluster", "homogeneous", "homogeneous | paper")
		devices     = fs.Int("devices", 8, "device count (homogeneous cluster)")
		freq        = fs.Float64("freq", 600e6, "CPU frequency in Hz (homogeneous cluster)")
		bandwidth   = fs.Float64("bandwidth", cluster.WiFi50MbpsBps, "WLAN bandwidth in bytes/sec")
		tlim        = fs.Float64("tlim", 0, "pipeline latency bound T_lim in seconds (0 = unbounded)")
		out         = fs.String("out", "", "save the plan as JSON to this file")
		compare     = fs.Bool("compare", true, "print the baseline comparison")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	m, err := nn.ByName(*modelName)
	if err != nil {
		fmt.Fprintf(stderr, "picoplan: %v\n", err)
		return 1
	}
	cl, err := cluster.ByName(*clusterKind, *devices, *freq, *bandwidth)
	if err != nil {
		fmt.Fprintf(stderr, "picoplan: %v\n", err)
		return 1
	}

	plan, err := core.PlanPipeline(m, cl, core.Options{LatencyLimit: *tlim})
	if err != nil {
		fmt.Fprintf(stderr, "picoplan: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, plan.Describe())

	if *compare {
		single, err := core.SingleDevice(m, cl, cl.SortedBySpeed()[0])
		if err != nil {
			fmt.Fprintf(stderr, "picoplan: %v\n", err)
			return 1
		}
		ofl, err := schemes.OptimalFusedLayer(m, cl, schemes.OFLOptions{}, core.Options{})
		if err != nil {
			fmt.Fprintf(stderr, "picoplan: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nthroughput: %.2f tasks/min (%.1fx single device, %.1fx optimal-fused)\n",
			plan.Throughput()*60,
			single.PeriodSeconds/plan.PeriodSeconds,
			ofl.PeriodSeconds/plan.PeriodSeconds)
	}

	if *out != "" {
		if err := core.SavePlanFile(*out, plan); err != nil {
			fmt.Fprintf(stderr, "picoplan: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "plan saved to %s\n", *out)
	}
	return 0
}
