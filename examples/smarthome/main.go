// Smart home: the paper's motivating scenario for adaptive switching
// (§II, §IV-C). A camera cluster is idle while the occupants are at work
// and busy in the evening; APICO watches the arrival rate with an EWMA and
// switches between the one-stage fused scheme (best latency when idle) and
// the PICO pipeline (best throughput when busy).
//
//	go run ./examples/smarthome
package main

import (
	"fmt"
	"math"
	"os"

	"pico"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "smarthome: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	model := pico.VGG16()
	cl := pico.PaperHeterogeneous()

	profiles, switcher, estimator, err := pico.NewAPICO(model, cl, 0.5, 10)
	if err != nil {
		return err
	}
	oneStage, pipeline := profiles[0], profiles[1]
	fmt.Printf("one-stage (OFL): period = latency = %.2fs\n", oneStage.Period())
	fmt.Printf("pipeline (PICO): period %.2fs, latency %.2fs\n\n", pipeline.Period(), pipeline.Latency())

	// A day in simulated seconds (compressed 1:60 — one simulated hour per
	// minute): quiet overnight, a morning bump, near-zero while everyone
	// is at work, then a heavy evening peak above the one-stage capacity.
	day := 24 * 60.0
	peak := 1.2 / oneStage.Period()
	rateAt := func(t float64) float64 {
		hour := t / 60
		switch {
		case hour < 7:
			return 0.05 * peak
		case hour < 9:
			return 0.5 * peak
		case hour < 17:
			return 0.1 * peak
		case hour < 23:
			return peak * (0.8 + 0.2*math.Sin((hour-17)/6*math.Pi))
		default:
			return 0.2 * peak
		}
	}
	arrivals, err := pico.VariableRatePoisson(rateAt, peak, day, 7)
	if err != nil {
		return err
	}
	fmt.Printf("day cycle: %d tasks over %.0f simulated minutes, evening peak %.2f tasks/s\n",
		len(arrivals), day, peak)

	adaptive, err := pico.RunAdaptive(profiles, switcher, estimator, arrivals, cl.Size())
	if err != nil {
		return err
	}

	// Compare against running either scheme all day.
	static := make(map[string]float64, 2)
	for _, prof := range profiles {
		res, err := pico.RunOpenLoop(prof, arrivals, cl.Size())
		if err != nil {
			return err
		}
		static[prof.Name] = res.AvgLatency()
	}

	fmt.Printf("\n%-18s %12s %12s\n", "policy", "avg lat (s)", "p95 (s)")
	fmt.Printf("%-18s %12.2f %12s\n", "always OFL", static["OFL"], "-")
	fmt.Printf("%-18s %12.2f %12s\n", "always PICO", static["PICO"], "-")
	fmt.Printf("%-18s %12.2f %12.2f\n", "APICO (adaptive)", adaptive.AvgLatency(), adaptive.Percentile(0.95))
	fmt.Printf("\nscheme usage: %v\n", adaptive.SchemeTasks)
	best := math.Min(static["OFL"], static["PICO"])
	if adaptive.AvgLatency() <= best*1.05 {
		fmt.Println("APICO matches or beats the better static policy across the whole day.")
	}
	return nil
}
