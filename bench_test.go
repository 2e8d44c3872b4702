package pico_test

// bench_test.go regenerates every table and figure of the paper under
// testing.B, one benchmark per experiment (see DESIGN.md's per-experiment
// index), plus micro-benchmarks for the planner, the partition math, the
// tensor engine, the wire codec and the TCP runtime. The figure benchmarks
// report the experiment's headline quantity via b.ReportMetric so a bench
// run doubles as a shape check:
//
//	go test -bench=. -benchmem
//
// Full-scale regeneration (paper durations, 60s BFS budgets) is
// cmd/picobench's only job; benchmarks use the Quick configuration. Served
// performance is measured by the traced end-to-end benchmark under bench/
// (BENCHMARK.json); the kernel-kind sweeps here cover the layer shapes no
// workload of it contains.

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
	"time"

	"pico"
	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/experiments"
	"pico/internal/nn"
	"pico/internal/partition"
	"pico/internal/runtime"
	"pico/internal/schemes"
	"pico/internal/simulate"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// runExperiment is the shared driver for figure/table benchmarks.
func runExperiment(b *testing.B, id string) []experiments.Table {
	b.Helper()
	cfg := experiments.Quick()
	var tables []experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tables, err = experiments.Run(id, cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	return tables
}

func BenchmarkFig2LayerProfile(b *testing.B)    { runExperiment(b, "fig2") }
func BenchmarkFig4FusedRedundancy(b *testing.B) { runExperiment(b, "fig4") }

func BenchmarkFig8VGG16Capacity(b *testing.B) {
	runExperiment(b, "fig8")
	reportCapacityMetrics(b, nn.VGG16())
}

func BenchmarkFig9YOLOv2Capacity(b *testing.B) {
	runExperiment(b, "fig9")
	reportCapacityMetrics(b, nn.YOLOv2())
}

// reportCapacityMetrics attaches the headline Fig. 8/9 numbers: the PICO
// period on 8x600MHz and its throughput gain over EFL.
func reportCapacityMetrics(b *testing.B, m *nn.Model) {
	b.Helper()
	cl := cluster.Homogeneous(8, 600e6)
	plan, err := core.PlanPipeline(m, cl, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	efl, err := schemes.EarlyFusedLayer(m, cl, 0, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(plan.PeriodSeconds, "pico-period-s")
	b.ReportMetric(efl.PeriodSeconds/plan.PeriodSeconds, "gain-vs-efl")
}

func BenchmarkFig10VGG16Latency(b *testing.B) {
	tables := runExperiment(b, "fig10")
	reportLatencyMetrics(b, tables)
}

func BenchmarkFig11YOLOv2Latency(b *testing.B) {
	tables := runExperiment(b, "fig11")
	reportLatencyMetrics(b, tables)
}

// reportLatencyMetrics attaches the heaviest-workload EFL/APICO latency
// ratio (the paper's 1.7–6.5x claim).
func reportLatencyMetrics(b *testing.B, tables []experiments.Table) {
	b.Helper()
	if len(tables) == 0 || len(tables[0].Rows) == 0 {
		b.Fatal("empty latency tables")
	}
	last := tables[0].Rows[len(tables[0].Rows)-1]
	efl := atofCell(b, last[1])
	apico := atofCell(b, last[4])
	b.ReportMetric(efl/apico, "latency-reduction-x")
}

func BenchmarkFig12GraphSpeedup(b *testing.B) {
	runExperiment(b, "fig12")
	cl := cluster.Homogeneous(8, 600e6)
	for _, m := range []*nn.Model{nn.ResNet34(), nn.InceptionV3()} {
		plan, err := core.PlanPipeline(m, cl, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		single, err := core.SingleDevice(m, cl, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(single.PeriodSeconds/plan.PeriodSeconds, m.Name+"-speedup-x")
	}
}

func BenchmarkTable1Utilization(b *testing.B) {
	runExperiment(b, "table1")
	// Headline: PICO's average utilization on the heterogeneous cluster.
	cl := cluster.PaperHeterogeneous()
	plan, err := core.PlanPipeline(nn.VGG16(), cl, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := simulate.RunClosedLoop(simulate.FromPlan("PICO", plan), 100, cl.Size())
	if err != nil {
		b.Fatal(err)
	}
	var sum float64
	for k := range cl.Devices {
		sum += res.Utilization(k)
	}
	b.ReportMetric(sum/float64(cl.Size()), "pico-avg-util")
}

func BenchmarkTable2PlannerCost(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkFig13PICOvsBFS(b *testing.B)    { runExperiment(b, "fig13") }
func BenchmarkBandwidthSweep(b *testing.B)    { runExperiment(b, "bandwidth") }

func BenchmarkAblationGreedy(b *testing.B)         { runExperiment(b, "ablation-greedy") }
func BenchmarkAblationBalancedStrips(b *testing.B) { runExperiment(b, "ablation-strips") }
func BenchmarkAblationLatencyBound(b *testing.B)   { runExperiment(b, "ablation-tlim") }
func BenchmarkAblationEWMA(b *testing.B)           { runExperiment(b, "ablation-ewma") }
func BenchmarkAblationRFMode(b *testing.B)         { runExperiment(b, "ablation-rfmode") }

// --- Micro-benchmarks on the core machinery ---

func BenchmarkPlannerVGG16x8(b *testing.B) {
	m := nn.VGG16()
	cl := cluster.PaperHeterogeneous()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanPipeline(m, cl, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlannerInceptionV3x8(b *testing.B) {
	m := nn.InceptionV3()
	cl := cluster.Homogeneous(8, 600e6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanPipeline(m, cl, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBalancedPartition(b *testing.B) {
	m := nn.VGG16Conv()
	calc := partition.NewCalc(m)
	weights := []float64{2.4e9, 2.4e9, 1.6e9, 1.6e9, 1.2e9, 1.2e9, 1.2e9, 1.2e9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calc.Balanced(0, 10, weights)
	}
}

func BenchmarkRegionFLOPs(b *testing.B) {
	m := nn.YOLOv2()
	calc := partition.NewCalc(m)
	outH := m.OutShape(17).H
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calc.SegmentRegionFLOPs(0, 18, partition.Range{Lo: 0, Hi: outH / 8})
	}
}

func BenchmarkConvForwardTile(b *testing.B) {
	m := nn.ToyChain("bench", 4, 2, 16, 64)
	exec, err := tensor.NewExecutor(m, 1)
	if err != nil {
		b.Fatal(err)
	}
	in := tensor.RandomInput(m.Input, 1)
	outH := m.Output().H
	part := partition.Range{Lo: 0, Hi: outH / 2}
	inR := exec.InputRange(0, m.NumLayers(), part)
	tile := in.SliceRows(inR.Lo, inR.Hi)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.RunSegment(0, m.NumLayers(), tile, part); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireTensorCodec(b *testing.B) {
	t := tensor.RandomInput(nn.Shape{C: 64, H: 56, W: 56}, 1)
	b.SetBytes(int64(4 * t.Elems()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := wire.EncodeTensor(t)
		if _, err := wire.DecodeTensor(t.C, t.H, t.W, payload); err != nil {
			b.Fatal(err)
		}
		wire.PutBuffer(payload)
	}
}

// BenchmarkWireTensorCodecPortable is the per-element reference codec — the
// baseline the zero-copy fast path in BenchmarkWireTensorCodec is measured
// against.
func BenchmarkWireTensorCodecPortable(b *testing.B) {
	t := tensor.RandomInput(nn.Shape{C: 64, H: 56, W: 56}, 1)
	b.SetBytes(int64(4 * t.Elems()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload := wire.EncodeTensorPortable(t)
		if _, err := wire.DecodeTensorPortable(t.C, t.H, t.W, payload); err != nil {
			b.Fatal(err)
		}
		wire.PutBuffer(payload)
	}
}

func BenchmarkSimulatorOpenLoop(b *testing.B) {
	cl := cluster.PaperHeterogeneous()
	plan, err := core.PlanPipeline(nn.VGG16(), cl, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	prof := simulate.FromPlan("PICO", plan)
	arrivals := simulate.PoissonArrivals(0.3, 3600, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.RunOpenLoop(prof, arrivals, cl.Size()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuntimePipelineThroughput(b *testing.B) {
	m := nn.ToyChain("bench-rt", 6, 2, 8, 32)
	cl := cluster.Homogeneous(3, 600e6)
	plan, err := core.PlanPipeline(m, cl, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	lc, err := runtime.StartLocalCluster(3, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	p, err := runtime.NewPipeline(plan, lc.Addrs, runtime.PipelineOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	in := tensor.RandomInput(m.Input, 1)
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			res := <-p.Results()
			if res.Err != nil {
				b.Errorf("task %d: %v", res.ID, res.Err)
				return
			}
		}
	}()
	for i := 0; i < b.N; i++ {
		if _, err := p.Submit(in); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}

// BenchmarkSessionOpen measures what opening a session costs a cluster that
// has never seen the model, per precision: StartLocalCluster (3 one-core
// workers) -> NewPipeline on MobileNetV1's three single-device stages -> the
// first result. That is weight generation on every stage plus, for int8, the
// coordinator's one calibration and the workers' weight quantization; B/op
// is what the boot allocates. open-ms is NewPipeline alone (calibration, the
// concurrent dials and the loads that build each stage's weights) and
// first-result-ms the first task after it, so work moved between the two
// shows as a shift rather than as a saving. bench/'s setup_s is the same path
// behind the gateway.
func BenchmarkSessionOpen(b *testing.B) {
	m := nn.MobileNetV1()
	cl := &cluster.Cluster{BandwidthBps: 1e10}
	for i := 0; i < 3; i++ {
		cl.Devices = append(cl.Devices, cluster.Device{ID: fmt.Sprintf("w-%d", i), Capacity: 4e10, Alpha: 1})
	}
	in := tensor.RandomInput(m.Input, 1)
	for _, quant := range []bool{false, true} {
		name := "float32"
		if quant {
			name = "int8"
		}
		b.Run(name, func(b *testing.B) {
			plan, err := core.PlanPipeline(m, cl, core.Options{Quantized: quant})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var open, first time.Duration
			for i := 0; i < b.N; i++ {
				lc, err := runtime.StartLocalCluster(3, nil, runtime.WithParallelism(1))
				if err != nil {
					b.Fatal(err)
				}
				t0 := time.Now()
				p, err := runtime.NewPipeline(plan, lc.Addrs, runtime.PipelineOptions{Seed: 1, Quantized: quant})
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if _, err := p.Submit(in); err != nil {
					b.Fatal(err)
				}
				if res := <-p.Results(); res.Err != nil {
					b.Fatal(res.Err)
				}
				open, first = open+t1.Sub(t0), first+time.Since(t1)
				b.StopTimer()
				if err := p.Close(); err != nil {
					b.Fatal(err)
				}
				if err := lc.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
			b.ReportMetric(open.Seconds()*1e3/float64(b.N), "open-ms")
			b.ReportMetric(first.Seconds()*1e3/float64(b.N), "first-result-ms")
		})
	}
}

// BenchmarkRuntimeFaultToleranceOverhead measures no-fault pipeline
// throughput with the fault-tolerance machinery armed, as it always is:
// per-call deadline timers, slot indirection, retry bookkeeping, write
// deadlines. The timer is armed once per tile, off the per-byte path.
func BenchmarkRuntimeFaultToleranceOverhead(b *testing.B) {
	m := nn.ToyChain("bench-ft", 6, 2, 8, 32)
	cl := cluster.Homogeneous(3, 600e6)
	plan, err := core.PlanPipeline(m, cl, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	lc, err := runtime.StartLocalCluster(3, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	p, err := runtime.NewPipeline(plan, lc.Addrs, runtime.PipelineOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	in := tensor.RandomInput(m.Input, 1)
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			res := <-p.Results()
			if res.Err != nil {
				b.Errorf("task %d: %v", res.ID, res.Err)
				return
			}
		}
	}()
	for i := 0; i < b.N; i++ {
		if _, err := p.Submit(in); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}

func BenchmarkAdaptiveSwitcher(b *testing.B) {
	profiles, sw, est, err := pico.NewAPICO(nn.VGG16(), cluster.PaperHeterogeneous(), 0.5, 10)
	if err != nil {
		b.Fatal(err)
	}
	_ = profiles
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Observe(float64(i) * 0.7)
		sw.Choose(est.Rate())
	}
}

// atofCell parses a formatted seconds cell.
func atofCell(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("bad cell %q: %v", s, err)
	}
	return v
}

func BenchmarkAblationGrid(b *testing.B) { runExperiment(b, "ablation-grid") }

func BenchmarkExtMobileNet(b *testing.B) { runExperiment(b, "ext-mobilenet") }

// BenchmarkGridPlanRemote times one task through a 2x2 grid stage on four
// loopback workers: slice four rects, four exec round trips, stitch.
func BenchmarkGridPlanRemote(b *testing.B) {
	m := nn.ToyChain("bench-grid", 4, 2, 8, 32)
	lc, err := runtime.StartLocalCluster(4, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	plan, err := core.GridPlan(m, cluster.Homogeneous(4, 600e6), 2, 2, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	p, err := runtime.NewPipeline(plan, lc.Addrs, runtime.PipelineOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	in := tensor.RandomInput(m.Input, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Submit(in); err != nil {
			b.Fatal(err)
		}
		if res := <-p.Results(); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkRunTileRect times the segment walker on a partial-width tile (one
// quadrant of a 2x2 grid): the gathered GEMM walker and per-cell pools.
func BenchmarkRunTileRect(b *testing.B) {
	m := nn.ToyChain("bench-rect", 4, 2, 16, 64)
	exec, err := tensor.NewExecutor(m, 1)
	if err != nil {
		b.Fatal(err)
	}
	out := m.Output()
	tile := partition.Rect{
		Rows: partition.Range{Lo: 0, Hi: out.H / 2},
		Cols: partition.Range{Lo: 0, Hi: out.W / 2},
	}
	need := partition.NewCalc(m).TileRects(0, m.NumLayers(), tile)[0]
	sub := tensor.MapOf(tensor.RandomInput(m.Input, 1)).SliceRect(need)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.RunTile(0, m.NumLayers(), sub, tile); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanSaveLoad(b *testing.B) {
	plan, err := core.PlanPipeline(nn.VGG16(), cluster.PaperHeterogeneous(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := core.SavePlan(&buf, plan); err != nil {
			b.Fatal(err)
		}
		if _, err := core.LoadPlan(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlannerMobileNetV1(b *testing.B) {
	m := nn.MobileNetV1()
	cl := cluster.Homogeneous(8, 600e6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanPipeline(m, cl, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationOverlap(b *testing.B) { runExperiment(b, "ablation-overlap") }

// conv1x1Chain is a pointwise-conv model exercising the stride-1 fast path
// with single-tap kernel rows (the 1x1 regime of MobileNet/Inception).
func conv1x1Chain() *nn.Model {
	return &nn.Model{
		Name:  "bench1x1",
		Input: nn.Shape{C: 32, H: 64, W: 64},
		Layers: []nn.Layer{
			nn.Conv1x1("pw1", 32, nn.ReLU),
			nn.Conv1x1("pw2", 32, nn.ReLU),
			nn.Conv1x1("pw3", 32, nn.ReLU),
		},
	}
}

// BenchmarkConvForwardParallel measures the kernels' per-call fan-out across
// parallelism settings, for 3x3 and 1x1 convolution regimes. On a
// multi-core host throughput should scale with p; on a single-core host the
// p>1 variants measure fan-out overhead.
func BenchmarkConvForwardParallel(b *testing.B) {
	cases := []struct {
		name string
		m    *nn.Model
	}{
		{"k3", nn.ToyChain("benchk3", 4, 2, 16, 64)},
		{"k1", conv1x1Chain()},
	}
	for _, tc := range cases {
		in := tensor.RandomInput(tc.m.Input, 1)
		outH := tc.m.Output().H
		part := partition.Range{Lo: 0, Hi: outH}
		for _, par := range []int{1, 2, 4, 8} {
			exec, err := tensor.NewExecutor(tc.m, 1, tensor.WithParallelism(par))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(tc.name+"/p"+strconv.Itoa(par), func(b *testing.B) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err := exec.RunSegment(0, tc.m.NumLayers(), in, part)
					if err != nil {
						b.Fatal(err)
					}
					tensor.Recycle(out)
				}
			})
		}
	}
}

// kernelShape is one single-layer model of the per-kind kernel sweeps.
type kernelShape struct {
	name string
	in   nn.Shape
	l    nn.Layer
}

// kernelShapes is the one shape table behind BenchmarkKernelKinds and
// BenchmarkQuantKernelKinds, so every kind runs on every engine (reference,
// float32 blocked, int8). Shapes are drawn from the evaluation models:
// VGG-style 3x3 stacks, Inception's 1x7 and 1x1 mixers, MobileNet's
// depthwise separables.
var kernelShapes = []kernelShape{
	{"conv3x3", nn.Shape{C: 64, H: 28, W: 28},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 64, Act: nn.ReLU}},
	{"conv3x3s2", nn.Shape{C: 64, H: 56, W: 56},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1, OutC: 128, Act: nn.ReLU}},
	{"conv1x7", nn.Shape{C: 64, H: 17, W: 17},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 1, KW: 7, SH: 1, SW: 1, PH: 0, PW: 3, OutC: 64, Act: nn.ReLU, BatchNorm: true}},
	{"pointwise", nn.Shape{C: 128, H: 28, W: 28},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: 128, Act: nn.ReLU, BatchNorm: true}},
	{"depthwise", nn.Shape{C: 128, H: 28, W: 28},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 128, Groups: 128, Act: nn.ReLU, BatchNorm: true}},
	// MobileNetV1's two awkward depthwise shapes: the big stride-2
	// reduction and the small planes whose rows are barely two vectors.
	{"depthwise-s2", nn.Shape{C: 64, H: 112, W: 112},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1, OutC: 64, Groups: 64, Act: nn.ReLU, BatchNorm: true}},
	{"depthwise14", nn.Shape{C: 512, H: 14, W: 14},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 512, Groups: 512, Act: nn.ReLU, BatchNorm: true}},
	{"pool", nn.Shape{C: 64, H: 28, W: 28},
		nn.Layer{Name: "p", Kind: nn.MaxPool, KH: 2, KW: 2, SH: 2, SW: 2}},
	{"gap", nn.Shape{C: 256, H: 16, W: 16},
		nn.Layer{Name: "g", Kind: nn.GlobalAvgPool}},
	{"fc", nn.Shape{C: 256, H: 4, W: 4},
		nn.Layer{Name: "f", Kind: nn.FullyConnected, OutF: 512, Act: nn.ReLU}},
	// The int8 GEMM walker's gather on MobileNetV1's stem (27 taps at
	// stride 2 under 32 channels: gather-bound) and on a VGG-style layer
	// (576 taps: tile-bound), and the depthwise row tiles at the widest
	// and narrowest MobileNetV1 planes (7 steps vs one masked step a row).
	{"stem224x3-32-s2", nn.Shape{C: 3, H: 224, W: 224},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1, OutC: 32, Act: nn.ReLU, BatchNorm: true}},
	{"conv3x3-56x64-128", nn.Shape{C: 64, H: 56, W: 56},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 128, Act: nn.ReLU}},
	// ResNet34's stem: 147 taps at stride 2, the widest kernel the float
	// walker gathers in the paper's models.
	{"stem224x3-64-7x7s2", nn.Shape{C: 3, H: 224, W: 224},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 7, KW: 7, SH: 2, SW: 2, PH: 3, PW: 3, OutC: 64, Act: nn.ReLU, BatchNorm: true}},
	{"depthwise112", nn.Shape{C: 32, H: 112, W: 112},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 32, Groups: 32, Act: nn.ReLU, BatchNorm: true}},
	{"depthwise7", nn.Shape{C: 1024, H: 7, W: 7},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 1024, Groups: 1024, Act: nn.ReLU, BatchNorm: true}},
	// MobileNetV1's pointwise layers, one per resolution (two at 56x56):
	// together they walk both GEMM walkers' pack, tile and epilogue from a
	// 32-channel reduction over 12 544 columns to a 1024-channel one over 49.
	{"pointwise112x32-64", nn.Shape{C: 32, H: 112, W: 112},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: 64, Act: nn.ReLU, BatchNorm: true}},
	{"pointwise56x64-128", nn.Shape{C: 64, H: 56, W: 56},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: 128, Act: nn.ReLU, BatchNorm: true}},
	{"pointwise56x128-128", nn.Shape{C: 128, H: 56, W: 56},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: 128, Act: nn.ReLU, BatchNorm: true}},
	{"pointwise28x256-256", nn.Shape{C: 256, H: 28, W: 28},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: 256, Act: nn.ReLU, BatchNorm: true}},
	{"pointwise14x512-512", nn.Shape{C: 512, H: 14, W: 14},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: 512, Act: nn.ReLU, BatchNorm: true}},
	{"pointwise7x1024-1024", nn.Shape{C: 1024, H: 7, W: 7},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: 1024, Act: nn.ReLU, BatchNorm: true}},
	// The 14x14 layer as a 3-device pipeline stage runs it: a 3-row strip,
	// 42 columns — one whole 32-column float tile and a ragged one.
	{"pointwise14x512-512-rows3", nn.Shape{C: 512, H: 3, W: 14},
		nn.Layer{Name: "c", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: 512, Act: nn.ReLU, BatchNorm: true}},
}

// BenchmarkKernelKinds measures every layer-kind kernel as ref (the
// pre-blocking loops) vs blocked (the cache-blocked engine) pairs at par=1,
// one sub-benchmark per kernelShapes entry, reporting GMAC/s:
//
//	go test -bench 'KernelKinds' -benchtime=10x .
func BenchmarkKernelKinds(b *testing.B) {
	engines := []struct {
		name string
		opts []tensor.ExecutorOption
	}{
		{"ref", []tensor.ExecutorOption{tensor.WithParallelism(1), tensor.WithReferenceKernels()}},
		{"blocked", []tensor.ExecutorOption{tensor.WithParallelism(1)}},
	}
	for _, tc := range kernelShapes {
		m := &nn.Model{Name: "bk-" + tc.name, Input: tc.in, Layers: []nn.Layer{tc.l}}
		macs := float64(m.TotalFLOPs()) // the paper's FLOPs are multiply-accumulates
		in := tensor.RandomInput(m.Input, 1)
		for _, eng := range engines {
			exec, err := tensor.NewExecutor(m, 1, eng.opts...)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(tc.name+"/"+eng.name, func(b *testing.B) {
				// Warm the weight cache and arena out of the timed region.
				if out, err := exec.Run(in); err != nil {
					b.Fatal(err)
				} else {
					tensor.Recycle(out)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out, err := exec.Run(in)
					if err != nil {
						b.Fatal(err)
					}
					tensor.Recycle(out)
				}
				b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}

// BenchmarkQuantKernelKinds measures every layer-kind kernel float32-blocked
// vs int8-vectorized at par=1 and par=2 over the same kernelShapes table,
// reporting GMAC/s:
//
//	go test -bench 'QuantKernelKinds' -benchtime=10x .
func BenchmarkQuantKernelKinds(b *testing.B) {
	for _, tc := range kernelShapes {
		m := &nn.Model{Name: "bq-" + tc.name, Input: tc.in, Layers: []nn.Layer{tc.l}}
		macs := float64(m.TotalFLOPs()) // the paper's FLOPs are multiply-accumulates
		in := tensor.RandomInput(m.Input, 1)
		// par2 rows show how each kind's walker splits its work: one that
		// scales worse than pointwise on the same run is leaving a core idle.
		for _, par := range []int{1, 2} {
			suffix := ""
			if par > 1 {
				suffix = fmt.Sprintf("-par%d", par)
			}
			fexec, err := tensor.NewExecutor(m, 1, tensor.WithParallelism(par))
			if err != nil {
				b.Fatal(err)
			}
			qexec, err := tensor.NewExecutor(m, 1, tensor.WithParallelism(par), tensor.WithQuantized())
			if err != nil {
				b.Fatal(err)
			}
			bench := func(name string, forward func() error) {
				b.Run(name+suffix, func(b *testing.B) {
					if err := forward(); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := forward(); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
				})
			}
			bench(tc.name+"/float", func() error {
				out, err := fexec.Run(in)
				tensor.Recycle(out)
				return err
			})
			bench(tc.name+"/int8", func() error {
				out, err := qexec.RunQ(in)
				tensor.RecycleQ(out)
				return err
			})
		}
	}
}

// BenchmarkRunSegmentAlloc tracks steady-state allocations of the segment
// hot path: with the arena recycling outputs, allocs/op should be near zero
// after warm-up.
func BenchmarkRunSegmentAlloc(b *testing.B) {
	m := nn.ToyChain("benchalloc", 4, 2, 16, 64)
	exec, err := tensor.NewExecutor(m, 1)
	if err != nil {
		b.Fatal(err)
	}
	in := tensor.RandomInput(m.Input, 1)
	outH := m.Output().H
	part := partition.Range{Lo: 0, Hi: outH / 2}
	inR := exec.InputRange(0, m.NumLayers(), part)
	tile := in.SliceRows(inR.Lo, inR.Hi)
	// Warm the weight cache and the arena size classes.
	if out, err := exec.RunSegment(0, m.NumLayers(), tile, part); err != nil {
		b.Fatal(err)
	} else {
		tensor.Recycle(out)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := exec.RunSegment(0, m.NumLayers(), tile, part)
		if err != nil {
			b.Fatal(err)
		}
		tensor.Recycle(out)
	}
}
