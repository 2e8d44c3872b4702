package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"pico/internal/cluster"
	"pico/internal/nn"
	"pico/internal/partition"
)

// TestPlanInvariants checks, across many (model, cluster) pairs, that the
// plan aggregates obey their definitions: period = max stage time,
// latency = sum of stage times, and every stage time = comp + comm.
func TestPlanInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	models := []*nn.Model{nn.VGG16(), nn.YOLOv2(), nn.ResNet34(), nn.Fig13Toy(), nn.TinyGraph()}
	for trial := 0; trial < 12; trial++ {
		m := models[trial%len(models)]
		n := 2 + rng.Intn(7)
		var cl *cluster.Cluster
		if trial%2 == 0 {
			cl = cluster.Homogeneous(n, 400e6+rng.Float64()*1e9)
		} else {
			cl = cluster.Homogeneous(n, 600e6)
			for i := range cl.Devices {
				cl.Devices[i].Capacity *= 0.5 + rng.Float64()*1.5
			}
		}
		plan, err := PlanPipeline(m, cl, Options{})
		if err != nil {
			t.Fatalf("trial %d (%s, %d devices): %v", trial, m.Name, n, err)
		}
		var sum, worst float64
		for _, st := range plan.Stages {
			sum += st.Seconds()
			if st.Seconds() > worst {
				worst = st.Seconds()
			}
			if st.CompSeconds < 0 || st.CommSeconds < 0 {
				t.Fatalf("negative stage components: %+v", st)
			}
		}
		if math.Abs(plan.PeriodSeconds-worst) > 1e-12 {
			t.Fatalf("period %.9f != max stage %.9f", plan.PeriodSeconds, worst)
		}
		if math.Abs(plan.LatencySeconds-sum) > 1e-9 {
			t.Fatalf("latency %.9f != stage sum %.9f", plan.LatencySeconds, sum)
		}
	}
}

// TestParetoFrontierProperties checks the DP memo's structural invariants:
// sorted by period, strictly decreasing latency, no dominated points.
func TestParetoFrontierProperties(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.Homogeneous(8, 600e6)
	cm := NewCostModel(m, cl)
	pl := newPlanner(cm, cl.AverageEffectiveSpeed(), cl.Size(), 0)
	frontier := pl.solve(m.NumLayers(), cl.Size())
	if len(frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for i := 1; i < len(frontier); i++ {
		if frontier[i].period <= frontier[i-1].period {
			t.Fatalf("frontier not sorted by period at %d", i)
		}
		if frontier[i].latency >= frontier[i-1].latency {
			t.Fatalf("frontier latency not strictly decreasing at %d", i)
		}
	}
	// The min-period point is the plan the planner returns; the min-latency
	// point is the last.
	first, last := frontier[0], frontier[len(frontier)-1]
	if first.period > last.period || first.latency < last.latency {
		t.Fatal("frontier endpoints inconsistent")
	}
	// Every frontier point must be reconstructible into a valid plan.
	for pi := range frontier {
		stages := pl.reconstruct(m.NumLayers(), cl.Size(), pi)
		at := 0
		workers := 0
		for _, hs := range stages {
			if hs.From != at {
				t.Fatalf("point %d: discontiguous stages", pi)
			}
			at = hs.To
			workers += hs.Workers
		}
		if at != m.NumLayers() || workers > cl.Size() {
			t.Fatalf("point %d: bad reconstruction (to=%d, workers=%d)", pi, at, workers)
		}
	}
}

// TestLatencyLimitSelectsFrontierPoint sweeps T_lim across the frontier's
// latency range: each bound must return the min-period point whose latency
// fits.
func TestLatencyLimitSelectsFrontierPoint(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.Homogeneous(8, 600e6)
	free, err := PlanPipeline(m, cl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prevPeriod := free.PeriodSeconds
	for _, f := range []float64{0.95, 0.9, 0.85, 0.8} {
		limit := free.LatencySeconds * f
		plan, err := PlanPipeline(m, cl, Options{LatencyLimit: limit})
		if err != nil {
			continue // bound tighter than any feasible plan
		}
		if plan.LatencySeconds > limit+1e-9 {
			t.Fatalf("f=%.2f: latency %.4f > limit %.4f", f, plan.LatencySeconds, limit)
		}
		if plan.PeriodSeconds < prevPeriod-1e-9 {
			t.Fatalf("f=%.2f: period %.4f fell as the bound tightened", f, plan.PeriodSeconds)
		}
		prevPeriod = plan.PeriodSeconds
	}
}

// TestMoreDevicesNeverHurt: with communication priced in, the planner may
// idle extra devices, so the optimal period must be non-increasing in the
// cluster size.
func TestMoreDevicesNeverHurt(t *testing.T) {
	m := nn.VGG16()
	prev := math.Inf(1)
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		cl := cluster.Homogeneous(n, 600e6)
		plan, err := PlanPipeline(m, cl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.PeriodSeconds > prev+1e-9 {
			t.Fatalf("period rose from %.4f to %.4f at %d devices", prev, plan.PeriodSeconds, n)
		}
		prev = plan.PeriodSeconds
	}
}

// TestFasterClusterFasterPlan: doubling every device's speed must not slow
// the pipeline down.
func TestFasterClusterFasterPlan(t *testing.T) {
	m := nn.YOLOv2()
	slow := cluster.Homogeneous(8, 600e6)
	fast := cluster.Homogeneous(8, 1.2e9)
	ps, err := PlanPipeline(m, slow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := PlanPipeline(m, fast, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pf.PeriodSeconds >= ps.PeriodSeconds {
		t.Fatalf("faster cluster got period %.4f >= %.4f", pf.PeriodSeconds, ps.PeriodSeconds)
	}
}

func TestSegmentWorkMatchesRegionSums(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.Homogeneous(4, 600e6)
	cm := NewCostModel(m, cl)
	plan, err := PlanPipeline(m, cl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range plan.Stages {
		work := cm.SegmentWork(st.From, st.To, st.Parts)
		var want float64
		for _, p := range st.Parts {
			if p.Empty() {
				continue
			}
			want += float64(cm.Calc.SegmentRegionFLOPs(st.From, st.To, p))
		}
		if math.Abs(work-want) > 1e-6*want {
			t.Fatalf("SegmentWork %.6g != sum %.6g", work, want)
		}
	}
}

func TestPlanSaveLoadRoundTrip(t *testing.T) {
	m := nn.YOLOv2()
	cl := cluster.PaperHeterogeneous()
	plan, err := PlanPipeline(m, cl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SavePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Model.Name != m.Name || back.Cluster.Size() != cl.Size() {
		t.Fatal("round trip changed model/cluster")
	}
	if len(back.Stages) != len(plan.Stages) {
		t.Fatalf("stage count %d != %d", len(back.Stages), len(plan.Stages))
	}
	for i := range plan.Stages {
		a, b := plan.Stages[i], back.Stages[i]
		if a.From != b.From || a.To != b.To {
			t.Fatalf("stage %d bounds differ", i)
		}
		for k := range a.Parts {
			if a.Parts[k] != b.Parts[k] || a.DeviceIdx[k] != b.DeviceIdx[k] {
				t.Fatalf("stage %d assignment differs", i)
			}
		}
	}
	if math.Abs(back.PeriodSeconds-plan.PeriodSeconds) > 1e-12 {
		t.Fatalf("period %.9f != %.9f after reload", back.PeriodSeconds, plan.PeriodSeconds)
	}
	// A recomputed aggregate must override a tampered value in the file.
	var tampered bytes.Buffer
	if err := SavePlan(&tampered, plan); err != nil {
		t.Fatal(err)
	}
	munged := bytes.Replace(tampered.Bytes(),
		[]byte(`"period_seconds"`), []byte(`"period_seconds_ignored"`), 1)
	back2, err := LoadPlan(bytes.NewReader(munged))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(back2.PeriodSeconds-plan.PeriodSeconds) > 1e-12 {
		t.Fatal("LoadPlan trusted the file's aggregates")
	}
}

func TestLoadPlanRejectsGarbage(t *testing.T) {
	if _, err := LoadPlan(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadPlan(bytes.NewReader([]byte(`{"version": 99}`))); err == nil {
		t.Fatal("wrong version accepted")
	}
	// Valid JSON, invalid plan (no stages).
	if _, err := LoadPlan(bytes.NewReader([]byte(
		`{"version":1,"model":{"name":"x","input":{"C":1,"H":4,"W":4},"layers":[{"Name":"c","Kind":1,"KH":1,"KW":1,"SH":1,"SW":1,"OutC":2,"Act":1}]},"cluster":{"devices":[{"ID":"d","Capacity":1e9,"Alpha":1}],"bandwidth_bps":1e6},"stages":[]}`,
	))); err == nil {
		t.Fatal("stage-free plan accepted")
	}
}

func TestOverlapCostModeNeverWorse(t *testing.T) {
	cl := cluster.PaperHeterogeneous()
	for _, m := range []*nn.Model{nn.VGG16(), nn.YOLOv2(), nn.ResNet34()} {
		sum, err := PlanPipeline(m, cl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		max, err := PlanPipeline(m, cl, Options{OverlapCommCompute: true})
		if err != nil {
			t.Fatal(err)
		}
		if max.PeriodSeconds > sum.PeriodSeconds+1e-9 {
			t.Fatalf("%s: overlapped period %.4f worse than serialized %.4f",
				m.Name, max.PeriodSeconds, sum.PeriodSeconds)
		}
		// Stage accounting: Seconds() must equal max(comp, comm') where
		// comm' is the unhidden share; i.e. comp+comm' = the stage total.
		for _, st := range max.Stages {
			if st.CommSeconds < -1e-12 {
				t.Fatalf("%s: negative unhidden comm %.6f", m.Name, st.CommSeconds)
			}
		}
	}
}

func TestCostCombineMax(t *testing.T) {
	m := nn.VGG16()
	cl := cluster.Homogeneous(4, 600e6)
	cm := NewCostModel(m, cl)
	cm.Combine = CostMax
	outH := m.OutShape(1).H
	parts := partition.Equal(outH, 4)
	speeds := cm.DeviceSpeeds([]int{0, 1, 2, 3})
	total, comp, comm := cm.StageCost(0, 2, speeds, parts, nil)
	want := comp
	if comm > want {
		want = comm
	}
	if math.Abs(total-want) > 1e-12 {
		t.Fatalf("CostMax total %.6f != max(%.6f, %.6f)", total, comp, comm)
	}
}
