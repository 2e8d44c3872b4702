// Grid tiles: the DeepThings-style 2D partition, executed for real. The
// fused early layers of a VGG-like model run as a 2x2 tile grid across four
// TCP workers; the example compares the grid against 4 row strips on the
// metrics DeepThings optimizes (per-device input footprint) and the one the
// paper optimizes (redundant work), then runs the grid as a one-stage plan
// through the same Pipeline that runs strips — deadlines, retry, redial and
// telemetry included — and verifies the output bit-for-bit against local
// inference.
//
//	go run ./examples/gridtiles
package main

import (
	"fmt"
	"os"
	"time"

	"pico"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "gridtiles: %v\n", err)
		os.Exit(1)
	}
}

// vggish is a scaled-down VGG-style stack: enough depth for overlap halos
// to matter, small enough to run in seconds.
func vggish() (*pico.Model, error) {
	m := &pico.Model{
		Name:  "vggish",
		Input: pico.Shape{C: 3, H: 96, W: 96},
		Layers: []pico.Layer{
			pico.Conv3x3("c1a", 8, pico.ReLU),
			pico.Conv3x3("c1b", 8, pico.ReLU),
			pico.MaxPool2x2("p1"),
			pico.Conv3x3("c2a", 16, pico.ReLU),
			pico.Conv3x3("c2b", 16, pico.ReLU),
			pico.MaxPool2x2("p2"),
			pico.Conv3x3("c3a", 32, pico.ReLU),
			pico.Conv3x3("c3b", 32, pico.ReLU),
		},
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func run() error {
	model, err := vggish()
	if err != nil {
		return err
	}
	L := model.NumLayers()
	out := model.Output()
	calc := pico.NewPartitionCalc(model)

	// Analytics first: strips vs grid on the fused stack.
	strips := calc.Redundancy(0, L, pico.GridPartition(out.H, out.W, 4, 1))
	grid := calc.Redundancy(0, L, pico.GridPartition(out.H, out.W, 2, 2))
	fmt.Printf("fused %d-layer stack, output %v, 4 devices:\n", L, out)
	fmt.Printf("  %-10s total %6.2f GMACs  redundancy %5.1f%%  max tile input %6.2f KB\n",
		"4 strips", strips.TotalFLOPs/1e9, strips.Ratio()*100, float64(strips.MaxInputBytes)/1e3)
	fmt.Printf("  %-10s total %6.2f GMACs  redundancy %5.1f%%  max tile input %6.2f KB\n",
		"2x2 grid", grid.TotalFLOPs/1e9, grid.Ratio()*100, float64(grid.MaxInputBytes)/1e3)

	// Now run the grid for real over four worker processes.
	lc, err := pico.StartLocalCluster(4, nil)
	if err != nil {
		return err
	}
	defer lc.Close()
	const seed = 77
	plan, err := pico.GridPlan(model, pico.Homogeneous(4, 600e6), 2, 2, pico.PlanOptions{})
	if err != nil {
		return err
	}
	pipe, err := pico.NewPipeline(plan, lc.Addrs, pico.PipelineOptions{Seed: seed})
	if err != nil {
		return err
	}
	defer pipe.Close()

	ref, err := pico.NewExecutor(model, seed)
	if err != nil {
		return err
	}
	fmt.Println("\ndistributing 5 frames as 2x2 tile grids:")
	for task := int64(1); task <= 5; task++ {
		in := pico.RandomInput(model.Input, task)
		start := time.Now()
		if _, err := pipe.Submit(in); err != nil {
			return err
		}
		res := <-pipe.Results()
		if res.Err != nil {
			return res.Err
		}
		got := res.Output
		want, err := ref.Run(in)
		if err != nil {
			return err
		}
		if !pico.TensorsEqual(want, got) {
			return fmt.Errorf("frame %d: grid output differs from local reference", task)
		}
		fmt.Printf("  frame %d: %dx%dx%d stitched in %v (bit-exact)\n",
			task, got.C, got.H, got.W, time.Since(start).Round(time.Millisecond))
	}
	fmt.Println("\nevery stitched grid matches single-device inference exactly.")
	return nil
}
