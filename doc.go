// Package pico is a Go implementation of PICO — the pipelined cooperation
// scheme for CNN inference on heterogeneous IoT edge clusters from "Towards
// Efficient Inference: Adaptively Cooperate in Heterogeneous IoT Edge
// Cluster" (ICDCS 2021) — together with every substrate its evaluation
// needs: the baseline parallelization schemes (layer-wise / MoDNN,
// early-fused-layer / DeepThings, optimal-fused-layer / AOFL, exhaustive
// BFS), a cluster simulator, an M/D/1-based adaptive scheme switcher
// (APICO), a pure-Go CNN tensor engine with bit-exact partitioned
// execution, and a TCP runtime that executes pipelines across worker
// processes.
//
// # The problem
//
// A CNN inference on one IoT device is slow; splitting every feature map
// across a cluster (layer-wise) drowns in per-layer WiFi transfers; fusing
// many layers so devices compute independently (fused-layer) recomputes the
// overlapping receptive-field halos over and over. PICO instead cuts the
// network into contiguous layer segments, assigns each segment to a device
// subset (a pipeline stage), and partitions only within a stage — the
// pipeline period, not the end-to-end latency, bounds throughput.
//
// # Quick start
//
//	model := pico.VGG16()
//	cl := pico.Homogeneous(8, 600e6) // 8 Raspberry Pi 4Bs at 600 MHz
//	plan, err := pico.PlanPipeline(model, cl, pico.PlanOptions{})
//	if err != nil { ... }
//	fmt.Println(plan.Describe())     // stages, strips, period, latency
//
// A plan can be analysed (plan.PeriodSeconds, plan.Stats), simulated under
// a workload (simulate via Profile/RunOpenLoop), or executed for real over
// TCP workers (StartLocalCluster + NewPipeline + Submit). Pipeline is the
// one coordinator: a stage's tiles are row strips or, from GridPlan, a 2D
// grid; Pipeline.Swap replaces the running plan at a task boundary, which is
// how the serving gateway's plan=apico sessions switch between the pipeline
// and the one-stage scheme (§IV-C) under load.
//
// The baselines (LayerWise, MeDNN, EarlyFusedLayer, EarlyFusedLayerGrid,
// OptimalFusedLayer, BFSOptimal; PlanScheme by name) return plans of the
// same type, so they are analysed, simulated and executed the same way. Their
// stages share the cluster's devices, which makes a plan one serial group:
// tasks do not overlap and the period equals the latency.
//
// See the runnable programs under examples/, the experiment regenerators
// behind cmd/picobench, which rebuild every table and figure of the paper's
// evaluation (and nothing else), and bench/, the end-to-end serving
// benchmark every performance number comes from.
package pico
