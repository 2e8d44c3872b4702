// Quickstart: plan a PICO pipeline for VGG16 on an 8-device edge cluster,
// compare it against the baselines, and read the paper's headline numbers
// off your own machine.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"pico"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// The paper's testbed: 8 Raspberry Pi 4Bs pinned to one 600 MHz core
	// behind a 50 Mbps WiFi access point.
	model := pico.VGG16()
	cl := pico.Homogeneous(8, 600e6)
	fmt.Printf("model: %v\ncluster: %d devices, %.1f GMAC/s total, %.0f Mbps WLAN\n\n",
		model, cl.Size(), cl.TotalCapacity()/1e9, cl.BandwidthBps*8/1e6)

	// Plan the pipeline (Algorithm 1 + 2).
	plan, err := pico.PlanPipeline(model, cl, pico.PlanOptions{})
	if err != nil {
		return err
	}
	fmt.Print(plan.Describe())

	// Compare with the baselines the paper evaluates.
	single, err := pico.SingleDevice(model, cl, 0)
	if err != nil {
		return err
	}
	lw, err := pico.LayerWise(model, cl, pico.PlanOptions{})
	if err != nil {
		return err
	}
	efl, err := pico.EarlyFusedLayer(model, cl, 0, pico.PlanOptions{})
	if err != nil {
		return err
	}
	ofl, err := pico.OptimalFusedLayer(model, cl, pico.OFLOptions{}, pico.PlanOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("\n%-22s %10s %12s\n", "scheme", "period(s)", "tasks/min")
	for _, row := range []struct {
		name   string
		period float64
	}{
		{"single device", single.PeriodSeconds},
		{"layer-wise (MoDNN)", lw.PeriodSeconds},
		{"early-fused (DeepThings)", efl.PeriodSeconds},
		{"optimal-fused (AOFL)", ofl.PeriodSeconds},
		{"PICO pipeline", plan.PeriodSeconds},
	} {
		fmt.Printf("%-22s %10.3f %12.1f\n", row.name, row.period, 60/row.period)
	}
	fmt.Printf("\nPICO throughput gain: %.1fx over single device, %.1fx over the best fused baseline\n",
		single.PeriodSeconds/plan.PeriodSeconds, ofl.PeriodSeconds/plan.PeriodSeconds)

	// Simulate a saturated cluster and report utilization/redundancy (the
	// paper's Table I metrics).
	prof := pico.ProfileFromPlan("PICO", plan)
	res, err := pico.RunClosedLoop(prof, 200, cl.Size())
	if err != nil {
		return err
	}
	fmt.Println("\nsaturated-cluster device report:")
	for k, d := range cl.Devices {
		fmt.Printf("  %-8s util=%5.1f%%  redundancy=%4.1f%%\n",
			d.ID, res.Utilization(k)*100, res.RedundancyRatio(k)*100)
	}
	return nil
}
