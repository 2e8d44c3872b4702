package pico_test

import (
	"fmt"

	"pico"
)

// ExamplePlanPipeline plans the paper's headline configuration: VGG16 on
// eight 600 MHz Raspberry Pi cores behind 50 Mbps WiFi.
func ExamplePlanPipeline() {
	model := pico.VGG16()
	cl := pico.Homogeneous(8, 600e6)
	plan, err := pico.PlanPipeline(model, cl, pico.PlanOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("stages: %d\n", len(plan.Stages))
	fmt.Printf("period: %.3fs\n", plan.PeriodSeconds)
	fmt.Printf("latency: %.3fs\n", plan.LatencySeconds)
	// Output:
	// stages: 4
	// period: 2.357s
	// latency: 7.810s
}

// ExampleTheorem2Latency evaluates the paper's M/D/1 estimate used by the
// APICO switcher: a pipeline with period 1s and traversal 4s under 0.5
// tasks/second.
func ExampleTheorem2Latency() {
	fmt.Printf("%.3fs\n", pico.Theorem2Latency(0.5, 1, 4))
	// Output:
	// 5.500s
}

// ExampleLayerWise shows why the per-layer scheme loses: one VGG16
// inference on 8 devices spends almost everything on communication.
func ExampleLayerWise() {
	lw, err := pico.LayerWise(pico.VGG16(), pico.Homogeneous(8, 600e6), pico.PlanOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("layer-wise inference: %.1fs\n", lw.LatencySeconds)
	fmt.Printf("rounds: %d\n", len(lw.Stages))
	// Output:
	// layer-wise inference: 22.4s
	// rounds: 21
}

// ExampleCluster_Homogenize shows Eq. 12: the planner's averaged cluster.
func ExampleCluster_Homogenize() {
	het := pico.PaperHeterogeneous()
	hom := het.Homogenize()
	fmt.Printf("devices: %d, average capacity: %.2f GMAC/s\n",
		hom.Size(), hom.AverageCapacity()/1e9)
	// Output:
	// devices: 8, average capacity: 1.60 GMAC/s
}

// ExampleGridPartition tiles a feature map the DeepThings way.
func ExampleGridPartition() {
	for _, tile := range pico.GridPartition(6, 6, 2, 2) {
		fmt.Println(tile)
	}
	// Output:
	// [0,3)x[0,3)
	// [0,3)x[3,6)
	// [3,6)x[0,3)
	// [3,6)x[3,6)
}

// ExampleOptimalFusedLayer demonstrates Fig. 4's motivation: fusing the
// whole deep network into a single all-device stage recomputes so much
// overlap that eight devices barely beat one (12.6s vs 14.9s on YOLOv2).
// The optimal one-stage scheme cuts the model into five fused segments and
// still serves one task at a time; the pipeline reaches a 2.4s period at the
// price of traversal latency.
func ExampleOptimalFusedLayer() {
	model := pico.YOLOv2()
	cl := pico.Homogeneous(8, 600e6)
	single, _ := pico.SingleDevice(model, cl, 0)
	full, _ := pico.GridPlan(model, cl, 8, 1, pico.PlanOptions{})
	ofl, _ := pico.OptimalFusedLayer(model, cl, pico.OFLOptions{}, pico.PlanOptions{})
	pipe, _ := pico.PlanPipeline(model, cl, pico.PlanOptions{})
	fmt.Printf("single device:  %.1fs\n", single.PeriodSeconds)
	fmt.Printf("full fusion:    period %.1fs latency %.1fs\n", full.PeriodSeconds, full.LatencySeconds)
	fmt.Printf("optimal fusion: period %.1fs latency %.1fs in %d segments\n", ofl.PeriodSeconds, ofl.LatencySeconds, len(ofl.Stages))
	fmt.Printf("pipeline:       period %.1fs latency %.1fs\n", pipe.PeriodSeconds, pipe.LatencySeconds)
	// Output:
	// single device:  14.9s
	// full fusion:    period 12.6s latency 12.6s
	// optimal fusion: period 5.2s latency 5.2s in 5 segments
	// pipeline:       period 2.4s latency 11.2s
}
