package pico_test

import (
	"math"
	"strings"
	"testing"

	"pico"
)

// TestPublicAPIQuickstart walks the README's quickstart through the public
// facade: build a model and a cluster, plan, inspect, simulate.
func TestPublicAPIQuickstart(t *testing.T) {
	model := pico.VGG16()
	cl := pico.Homogeneous(8, 600e6)
	plan, err := pico.PlanPipeline(model, cl, pico.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.PeriodSeconds <= 0 {
		t.Fatal("non-positive period")
	}
	if !strings.Contains(plan.Describe(), "vgg16") {
		t.Fatal("Describe missing model name")
	}
	single, err := pico.SingleDevice(model, cl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if single.PeriodSeconds/plan.PeriodSeconds < 2 {
		t.Fatalf("speedup %.2f too small", single.PeriodSeconds/plan.PeriodSeconds)
	}

	prof := pico.ProfileFromPlan("PICO", plan)
	res, err := pico.RunClosedLoop(prof, 50, cl.Size())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(1/res.Throughput()-plan.PeriodSeconds) > 0.1*plan.PeriodSeconds {
		t.Fatalf("simulated period %.3f vs planned %.3f", 1/res.Throughput(), plan.PeriodSeconds)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	model := pico.YOLOv2()
	cl := pico.PaperHeterogeneous()
	lw, err := pico.LayerWise(model, cl, pico.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	efl, err := pico.EarlyFusedLayer(model, cl, 0, pico.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ofl, err := pico.OptimalFusedLayer(model, cl, pico.OFLOptions{}, pico.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !(lw.PeriodSeconds > efl.PeriodSeconds && efl.PeriodSeconds > ofl.PeriodSeconds) {
		t.Fatalf("baseline ordering broken: %.2f / %.2f / %.2f", lw.PeriodSeconds, efl.PeriodSeconds, ofl.PeriodSeconds)
	}
}

func TestPublicAPIAdaptive(t *testing.T) {
	profiles, sw, est, err := pico.NewAPICO(pico.VGG16(), pico.PaperHeterogeneous(), 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 2 {
		t.Fatalf("want 2 candidates, got %d", len(profiles))
	}
	// Heavy workload must choose the pipeline (index 1).
	heavy := 0.9 / profiles[1].Period()
	arrivals := pico.PoissonArrivals(heavy, 300, 1)
	res, err := pico.RunAdaptive(profiles, sw, est, arrivals, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.SchemeTasks["PICO"] == 0 {
		t.Fatalf("pipeline never chosen under heavy load: %v", res.SchemeTasks)
	}
}

func TestPublicAPIDistributed(t *testing.T) {
	model := pico.ToyChain("api", 4, 2, 6, 32)
	cl := pico.Homogeneous(2, 600e6)
	plan, err := pico.PlanPipeline(model, cl, pico.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lc, err := pico.StartLocalCluster(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	p, err := pico.NewPipeline(plan, lc.Addrs, pico.PipelineOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	exec, err := pico.NewExecutor(model, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := pico.RandomInput(model.Input, 2)
	want, err := exec.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Submit(in); err != nil {
		t.Fatal(err)
	}
	res := <-p.Results()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !pico.TensorsEqual(want, res.Output) {
		t.Fatal("distributed result differs from local reference")
	}
}

func TestPublicAPICalibration(t *testing.T) {
	d := pico.RPi4B("cal", 1e9)
	samples := []pico.CalibrationSample{
		{Flops: 1e9, Seconds: 0.6},
		{Flops: 2e9, Seconds: 1.2},
	}
	fitted, err := pico.Calibrate(d, samples)
	if err != nil {
		t.Fatal(err)
	}
	// 2 GMAC/s nominal running 1e9 MACs in 0.6s -> alpha 1.2.
	if math.Abs(fitted.Alpha-1.2) > 1e-9 {
		t.Fatalf("alpha = %v, want 1.2", fitted.Alpha)
	}
}

func TestPublicAPITheorem2(t *testing.T) {
	lat := pico.Theorem2Latency(0.1, 2, 5)
	if lat <= 5 || math.IsInf(lat, 1) {
		t.Fatalf("Theorem2Latency = %v", lat)
	}
}
