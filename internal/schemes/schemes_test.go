package schemes

import (
	"errors"
	"math"
	"testing"
	"time"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/queueing"
	"pico/internal/simulate"
)

// redundancy is the plan's cluster-wide redundant work fraction (Table I).
func redundancy(p *core.Plan) float64 { return p.Stats(p.CostModel()).RedundancyRatio() }

func TestLayerWiseStructure(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.Homogeneous(8, 600e6)
	lw, err := LayerWise(m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One stage per layer, all of them one serial group.
	if got, want := len(lw.Stages), m.NumLayers(); got != want {
		t.Fatalf("stages = %d, want %d", got, want)
	}
	if lw.PeriodSeconds != lw.LatencySeconds {
		t.Fatalf("LW period %g != latency %g", lw.PeriodSeconds, lw.LatencySeconds)
	}
	for i, seg := range lw.Stages {
		if seg.From != i || seg.To != i+1 {
			t.Fatalf("segment %d covers [%d,%d)", i, seg.From, seg.To)
		}
	}
	// The fc layers must run on a single device.
	for _, seg := range lw.Stages[18:] {
		if seg.Workers() != 1 {
			t.Fatalf("fc segment on %d devices", seg.Workers())
		}
	}
	// Per-layer splitting computes each output row once: no redundancy.
	if r := redundancy(lw); r != 0 {
		t.Fatalf("LW redundancy = %v, want 0", r)
	}
	if lw.LatencySeconds <= 0 {
		t.Fatal("non-positive LW time")
	}
}

func TestLayerWiseIsCommunicationBound(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.Homogeneous(8, 600e6)
	lw, err := LayerWise(m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With 1000x the bandwidth LW collapses to near pure compute: the
	// paper's premise that LW is killed by per-layer communication.
	fat := cluster.Homogeneous(8, 600e6)
	fat.BandwidthBps = cl.BandwidthBps * 1000
	lwFat, err := LayerWise(m, fat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lw.LatencySeconds < 3*lwFat.LatencySeconds {
		t.Fatalf("LW on WiFi %.2fs vs infinite bandwidth %.2fs: not communication bound", lw.LatencySeconds, lwFat.LatencySeconds)
	}
}

func TestDefaultFusedPrefix(t *testing.T) {
	vgg := nn.VGG16()
	// On 8 devices: deepest pool with >= 8 output rows is pool4 (14x14),
	// layer index 13, so the prefix is 14.
	if got := DefaultFusedPrefix(vgg, 8); got != 14 {
		t.Fatalf("VGG16 prefix = %d, want 14", got)
	}
	yolo := nn.YOLOv2()
	// YOLOv2's pool5 outputs 14x14 >= 8 rows: prefix 18 — DeepThings'
	// early-layer fusion covering the backbone ahead of the head.
	if got := DefaultFusedPrefix(yolo, 8); got != 18 {
		t.Fatalf("YOLOv2 prefix = %d, want 18", got)
	}
	// A pool-free toy model falls back to the 2/3 rule.
	toy := nn.ToyChain("t", 6, 0, 8, 32)
	if got := DefaultFusedPrefix(toy, 4); got != 4 {
		t.Fatalf("toy prefix = %d, want 4", got)
	}
}

func TestEarlyFusedLayer(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.Homogeneous(8, 600e6)
	efl, err := EarlyFusedLayer(m, cl, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(efl.Stages) != 2 {
		t.Fatalf("EFL must have exactly 2 segments, got %d", len(efl.Stages))
	}
	if got := efl.Stages[1].Workers(); got != 1 {
		t.Fatalf("EFL tail on %d devices, want 1", got)
	}
	// Fusing deep across 8 devices must produce substantial redundancy.
	if r := redundancy(efl); r < 0.1 {
		t.Fatalf("EFL redundancy = %.3f, want > 0.1", r)
	}
	// Invalid prefixes.
	if _, err := EarlyFusedLayer(m, cl, m.NumLayers(), core.Options{}); err == nil {
		t.Fatal("full-model prefix accepted")
	}
	if _, err := EarlyFusedLayer(m, cl, 20, core.Options{}); err == nil {
		t.Fatal("prefix crossing fc accepted")
	}
}

func TestOptimalFusedLayerBeatsEFL(t *testing.T) {
	for _, m := range []*nn.Model{nn.VGG16(), nn.YOLOv2()} {
		for _, cl := range []*cluster.Cluster{cluster.Homogeneous(8, 600e6), cluster.PaperHeterogeneous()} {
			efl, err := EarlyFusedLayer(m, cl, 0, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ofl, err := OptimalFusedLayer(m, cl, OFLOptions{}, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ofl.LatencySeconds > efl.LatencySeconds+1e-9 {
				t.Fatalf("%s: OFL %.3fs worse than EFL %.3fs", m.Name, ofl.LatencySeconds, efl.LatencySeconds)
			}
			if len(ofl.Stages) < 2 {
				t.Fatalf("%s: OFL found only %d segments", m.Name, len(ofl.Stages))
			}
		}
	}
}

func TestOFLSegmentsAreContiguous(t *testing.T) {
	m := nn.YOLOv2()
	cl := cluster.Homogeneous(8, 600e6)
	ofl, err := OptimalFusedLayer(m, cl, OFLOptions{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	at := 0
	for _, seg := range ofl.Stages {
		if seg.From != at {
			t.Fatalf("segment starts at %d, want %d", seg.From, at)
		}
		at = seg.To
	}
	if at != m.NumLayers() {
		t.Fatalf("segments end at %d, want %d", at, m.NumLayers())
	}
}

func TestOFLCapacityAwareNotWorse(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.PaperHeterogeneous()
	plain, err := OptimalFusedLayer(m, cl, OFLOptions{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := OptimalFusedLayer(m, cl, OFLOptions{CapacityAware: true}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if aware.LatencySeconds > plain.LatencySeconds*1.001 {
		t.Fatalf("capacity-aware OFL %.3fs worse than plain %.3fs", aware.LatencySeconds, plain.LatencySeconds)
	}
}

func TestSchemeOrderingMatchesPaper(t *testing.T) {
	// Fig. 8/9 shape: LW slowest by far, then EFL, then OFL, and the PICO
	// pipeline period beats them all.
	for _, m := range []*nn.Model{nn.VGG16(), nn.YOLOv2()} {
		cl := cluster.Homogeneous(8, 600e6)
		lw, err := LayerWise(m, cl, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		efl, err := EarlyFusedLayer(m, cl, 0, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ofl, err := OptimalFusedLayer(m, cl, OFLOptions{}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pico, err := core.PlanPipeline(m, cl, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !(lw.LatencySeconds > efl.LatencySeconds && efl.LatencySeconds > ofl.LatencySeconds && ofl.LatencySeconds > pico.PeriodSeconds) {
			t.Fatalf("%s ordering broken: LW %.2f EFL %.2f OFL %.2f PICO %.2f",
				m.Name, lw.LatencySeconds, efl.LatencySeconds, ofl.LatencySeconds, pico.PeriodSeconds)
		}
	}
}

func TestRedundancyOrderingMatchesTable1(t *testing.T) {
	// Table I shape: redundancy LW < PICO < OFL < EFL.
	m := nn.YOLOv2()
	cl := cluster.PaperHeterogeneous()
	lw, err := LayerWise(m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	efl, err := EarlyFusedLayer(m, cl, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ofl, err := OptimalFusedLayer(m, cl, OFLOptions{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pico, err := core.PlanPipeline(m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	picoRed := redundancy(pico)
	if !(redundancy(lw) <= picoRed && picoRed < redundancy(ofl) && redundancy(ofl) < redundancy(efl)) {
		t.Fatalf("redundancy ordering broken: LW %.3f PICO %.3f OFL %.3f EFL %.3f",
			redundancy(lw), picoRed, redundancy(ofl), redundancy(efl))
	}
}

// TestFromPlanCollapsesBaselines: simulate.FromPlan is the one way into the
// simulator. Every baseline is one serial group, so it reduces to a single
// server whose service time is the whole inference; a PICO plan keeps one
// simulator stage per plan stage.
func TestFromPlanCollapsesBaselines(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.Homogeneous(4, 600e6)
	for _, name := range []string{"lw", "mednn", "efl", "efl-grid", "ofl", "fused"} {
		plan, err := Plan(name, m, cl, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prof := simulate.FromPlan(name, plan)
		if err := prof.Validate(); err != nil {
			t.Fatal(err)
		}
		if len(prof.Stages) != 1 || len(plan.Stages) < 2 {
			t.Fatalf("%s: %d plan stages reduced to %d simulator stages, want several to one",
				name, len(plan.Stages), len(prof.Stages))
		}
		if prof.Period() != plan.LatencySeconds || prof.Latency() != plan.LatencySeconds || plan.PeriodSeconds != plan.LatencySeconds {
			t.Fatalf("%s: profile period %g latency %g, plan period %g latency %g: all four must agree",
				name, prof.Period(), prof.Latency(), plan.PeriodSeconds, plan.LatencySeconds)
		}
		stats := plan.Stats(plan.CostModel())
		for di, busy := range stats.DeviceBusySeconds {
			if got := prof.Stages[0].DeviceBusy[di]; math.Abs(got-busy) > 1e-9*busy {
				t.Fatalf("%s: device %d busy %g in the profile, %g in the plan", name, di, got, busy)
			}
		}
		// Closed-loop throughput equals 1/latency.
		res, err := simulate.RunClosedLoop(prof, 50, cl.Size())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(1/res.Throughput()-plan.LatencySeconds) > 0.05*plan.LatencySeconds {
			t.Fatalf("%s: closed-loop period %.3f, want %.3f", name, 1/res.Throughput(), plan.LatencySeconds)
		}
	}
	pico, err := Plan("PICO", m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prof := simulate.FromPlan("PICO", pico)
	if len(prof.Stages) != len(pico.Stages) || prof.Period() != pico.PeriodSeconds {
		t.Fatalf("PICO: %d simulator stages at period %g for %d plan stages at %g",
			len(prof.Stages), prof.Period(), len(pico.Stages), pico.PeriodSeconds)
	}
	if _, err := Plan("bogus", m, cl, core.Options{}); err == nil {
		t.Fatal("unknown scheme name accepted")
	}
}

// TestFusedPlan: the capacity-aware optimal-fused-layer plan is the one-stage
// arm APICO switches to — period == latency, most of the cluster at work,
// latency at or below the pipeline's and period at or above it. Its search
// contains the single whole-model segment, and on a model with an
// unsplittable tail it fuses the prefix across the cluster ahead of a
// one-device tail instead of collapsing to one device.
func TestFusedPlan(t *testing.T) {
	m := nn.Fig13Toy()
	cl := cluster.Fig13Heterogeneous()
	plan, err := Plan("fused", m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.PeriodSeconds != plan.LatencySeconds || len(plan.SerialGroups()) != 1 {
		t.Fatal("one-stage plan must be one serial group with period == latency")
	}
	// Most devices participate; the balancer may idle the slowest ones
	// when the output map has too few rows to be worth sharing.
	if got := len(plan.UsedDevices()); got < cl.Size()/2 {
		t.Fatalf("used only %d of %d devices", got, cl.Size())
	}
	cm := plan.CostModel()
	all := allDeviceIdx(cl.Size())
	whole, _, _ := cm.StageCost(0, m.NumLayers(), cm.DeviceSpeeds(all), cm.Calc.Balanced(0, m.NumLayers(), cm.DeviceSpeeds(all)), nil)
	if plan.LatencySeconds > whole+1e-12 {
		t.Fatalf("fused latency %.6f above the single whole-model segment's %.6f", plan.LatencySeconds, whole)
	}
	pipe, err := core.PlanPipeline(m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.PeriodSeconds < pipe.PeriodSeconds-1e-9 {
		t.Fatalf("one-stage period %.4f beats pipeline %.4f", plan.PeriodSeconds, pipe.PeriodSeconds)
	}
	if plan.LatencySeconds > pipe.LatencySeconds+1e-9 {
		t.Fatalf("one-stage latency %.4f above pipeline %.4f", plan.LatencySeconds, pipe.LatencySeconds)
	}

	vgg, err := Plan("fused", nn.VGG16(), cluster.PaperHeterogeneous(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := vgg.Stages[len(vgg.Stages)-1]
	if len(vgg.Stages) < 2 || vgg.Stages[0].Workers() < 2 || last.Workers() != 1 {
		t.Fatalf("VGG16 fused plan: %d stages, first on %d devices, tail on %d",
			len(vgg.Stages), vgg.Stages[0].Workers(), last.Workers())
	}
}

// TestQuantizedFusedPlanPricedInInt8: every segment's input and output tiles
// cross the link, so an int8 one-stage plan is priced at one byte per element
// like any other int8 plan — each stage's transfer term equals a re-price
// under plan.CostModel() and the plan undercuts the float one.
func TestQuantizedFusedPlanPricedInInt8(t *testing.T) {
	m := nn.ToyChain("q1", 5, 2, 8, 32)
	cl := cluster.PaperHeterogeneous()
	pf, err := Plan("fused", m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := Plan("fused", m, cl, core.Options{Quantized: true})
	if err != nil {
		t.Fatal(err)
	}
	if !pq.Quantized || pf.Quantized {
		t.Fatalf("quantized flags: int8 plan %v, float plan %v", pq.Quantized, pf.Quantized)
	}
	cm := pq.CostModel()
	var commQ, commF float64
	for _, st := range pq.Stages {
		_, _, comm := cm.StageCost(st.From, st.To, cm.DeviceSpeeds(st.DeviceIdx), st.Parts, nil)
		if math.Abs(st.CommSeconds-comm) > 1e-15 {
			t.Fatalf("int8 stage [%d,%d) comm %g, a re-price under plan.CostModel() says %g", st.From, st.To, st.CommSeconds, comm)
		}
		commQ += st.CommSeconds
	}
	for _, st := range pf.Stages {
		commF += st.CommSeconds
	}
	if commQ <= 0 || commQ >= commF {
		t.Fatalf("int8 comm %g not below float comm %g", commQ, commF)
	}
	if pq.PeriodSeconds >= pf.PeriodSeconds {
		t.Fatalf("int8 period %g not below float period %g", pq.PeriodSeconds, pf.PeriodSeconds)
	}
}

// TestAPICOSwitcher: the one APICO assembly names and prices candidate i from
// plans[i], starts on the first and runs at the framework hysteresis.
func TestAPICOSwitcher(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.PaperHeterogeneous()
	names := []string{"OFL", "PICO"}
	plans := make([]*core.Plan, len(names))
	for i, name := range names {
		var err error
		if plans[i], err = Plan(name, m, cl, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	sw, err := APICO(names, plans)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Hysteresis != queueing.DefaultHysteresis || sw.Current() != 0 {
		t.Fatalf("switcher at hysteresis %g on candidate %d", sw.Hysteresis, sw.Current())
	}
	for i, c := range sw.Candidates {
		if c.Name != names[i] || c.Period != plans[i].PeriodSeconds || c.Latency != plans[i].LatencySeconds {
			t.Fatalf("candidate %d = %+v, plan period %g latency %g", i, c, plans[i].PeriodSeconds, plans[i].LatencySeconds)
		}
	}
	// Light load keeps the one-stage scheme, load past its capacity leaves it.
	if got := sw.Choose(0.01 / plans[0].PeriodSeconds); got != 0 {
		t.Fatalf("light load chose candidate %d", got)
	}
	if got := sw.Choose(1.1 / plans[0].PeriodSeconds); got != 1 {
		t.Fatalf("overload chose candidate %d", got)
	}
	if _, err := APICO(nil, nil); err == nil {
		t.Fatal("a switcher without candidates was built")
	}
}

func TestBFSOptimalMatchesPlannerBound(t *testing.T) {
	toy := nn.Fig13Toy()
	cl := cluster.Fig13Heterogeneous()
	bfs, err := BFSOptimal(toy, cl, BFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bfs.Validate(); err != nil {
		t.Fatalf("invalid BFS plan: %v", err)
	}
	pico, err := core.PlanPipeline(toy, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// BFS is the optimum: PICO cannot beat it, and the heuristic gap the
	// paper accepts (Fig. 13) is small.
	if pico.PeriodSeconds < bfs.PeriodSeconds-1e-9 {
		t.Fatalf("PICO %.6f beats 'optimal' BFS %.6f", pico.PeriodSeconds, bfs.PeriodSeconds)
	}
	if pico.PeriodSeconds > bfs.PeriodSeconds*1.25 {
		t.Fatalf("PICO gap too large: %.6f vs %.6f", pico.PeriodSeconds, bfs.PeriodSeconds)
	}
}

func TestBFSBudget(t *testing.T) {
	// A large search with a microscopic budget must abort cleanly.
	m := nn.ToyChain("t12", 12, 4, 24, 64)
	cl := cluster.Homogeneous(8, 600e6)
	_, err := BFSOptimal(m, cl, BFSOptions{Budget: time.Microsecond})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestBFSRejectsHugeClusters(t *testing.T) {
	m := nn.Fig13Toy()
	cl := cluster.Homogeneous(17, 600e6)
	if _, err := BFSOptimal(m, cl, BFSOptions{}); err == nil {
		t.Fatal("17-device BFS accepted")
	}
}

func TestSchemesRejectInvalidInputs(t *testing.T) {
	bad := &nn.Model{Name: "bad"}
	cl := cluster.Homogeneous(2, 600e6)
	if _, err := LayerWise(bad, cl, core.Options{}); err == nil {
		t.Fatal("LW accepted invalid model")
	}
	if _, err := EarlyFusedLayer(bad, cl, 0, core.Options{}); err == nil {
		t.Fatal("EFL accepted invalid model")
	}
	if _, err := OptimalFusedLayer(bad, cl, OFLOptions{}, core.Options{}); err == nil {
		t.Fatal("OFL accepted invalid model")
	}
	if _, err := BFSOptimal(bad, cl, BFSOptions{}); err == nil {
		t.Fatal("BFS accepted invalid model")
	}
	good := nn.Fig13Toy()
	badCl := &cluster.Cluster{}
	if _, err := LayerWise(good, badCl, core.Options{}); err == nil {
		t.Fatal("LW accepted invalid cluster")
	}
}

func TestGraphModelSchemes(t *testing.T) {
	// Baselines must handle block-structured models too.
	m := nn.ResNet34()
	cl := cluster.Homogeneous(8, 600e6)
	lw, err := LayerWise(m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ofl, err := OptimalFusedLayer(m, cl, OFLOptions{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(lw.LatencySeconds > ofl.LatencySeconds) {
		t.Fatalf("resnet34: LW %.2f <= OFL %.2f", lw.LatencySeconds, ofl.LatencySeconds)
	}
}

func TestGridShape(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 4: {2, 2}, 6: {3, 2}, 8: {4, 2}, 9: {3, 3}, 7: {7, 1}}
	for n, want := range cases {
		r, c := GridShape(n)
		if r != want[0] || c != want[1] {
			t.Fatalf("GridShape(%d) = %dx%d, want %dx%d", n, r, c, want[0], want[1])
		}
		if r*c != n && n >= 1 {
			t.Fatalf("GridShape(%d) does not cover n", n)
		}
	}
}

func TestEarlyFusedLayerGrid(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.Homogeneous(8, 600e6)
	strips, err := EarlyFusedLayer(m, cl, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := GridShape(cl.Size())
	grid, err := EarlyFusedLayerGrid(m, cl, 0, rows, cols, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if grid.LatencySeconds <= 0 {
		t.Fatal("non-positive grid EFL time")
	}
	// DeepThings' point: at 8 tiles the 4x2 grid wastes less work than 8
	// skinny strips, so the grid variant must not be slower (and its
	// redundancy must be lower).
	if grid.LatencySeconds > strips.LatencySeconds*1.02 {
		t.Fatalf("grid EFL %.3fs slower than strip EFL %.3fs", grid.LatencySeconds, strips.LatencySeconds)
	}
	if redundancy(grid) >= redundancy(strips) {
		t.Fatalf("grid redundancy %.3f >= strips %.3f", redundancy(grid), redundancy(strips))
	}
	if grid.Stages[0].Cols == nil || grid.Stages[1].Workers() != 1 {
		t.Fatal("grid EFL must be a grid stage ahead of a one-device tail")
	}
	// Mismatched grid rejected.
	if _, err := EarlyFusedLayerGrid(m, cl, 0, 3, 2, core.Options{}); err == nil {
		t.Fatal("3x2 grid for 8 devices accepted")
	}
}

func TestMeDNNBeatsLWOnHeterogeneous(t *testing.T) {
	m := nn.VGG16()
	het := cluster.PaperHeterogeneous()
	lw, err := LayerWise(m, het, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mednn, err := MeDNN(m, het, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// MeDNN's capacity-aware strips shorten each layer's bottleneck.
	if mednn.LatencySeconds >= lw.LatencySeconds {
		t.Fatalf("MeDNN %.3fs not faster than LW %.3fs on the heterogeneous cluster",
			mednn.LatencySeconds, lw.LatencySeconds)
	}
	// On a homogeneous cluster the two must be within a hair (the
	// balancer may shave boundary rows differently).
	hom := cluster.Homogeneous(8, 600e6)
	lwHom, err := LayerWise(m, hom, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mednnHom, err := MeDNN(m, hom, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := mednnHom.LatencySeconds/lwHom.LatencySeconds - 1; diff > 0.02 || diff < -0.02 {
		t.Fatalf("homogeneous MeDNN %.3fs vs LW %.3fs differ by %.1f%%",
			mednnHom.LatencySeconds, lwHom.LatencySeconds, diff*100)
	}
	if redundancy(mednn) != 0 {
		t.Fatalf("per-layer MeDNN redundancy = %v, want 0", redundancy(mednn))
	}
}
