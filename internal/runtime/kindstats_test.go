package runtime

import (
	"maps"
	"testing"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/tensor"
)

// TestKindSecondsAttribution runs a model that exercises conv, pool, and fc
// layers through a live pipeline and checks the per-kind kernel seconds the
// exec replies carried into Health: every device reports every kind, all
// zero before any task; afterwards conv time is non-zero and no kind is
// negative. Health reads only the pipeline's own series, so the snapshot is
// still complete, and unchanged, once every worker is gone.
func TestKindSecondsAttribution(t *testing.T) {
	m := nn.ToyChain("kinds", 4, 2, 6, 32)
	cl := cluster.Homogeneous(2, 600e6)
	plan, err := core.PlanPipeline(m, cl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lc := startCluster(t, 2, nil)
	p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	complete := func(kinds map[int]map[string]float64) {
		t.Helper()
		for _, di := range plan.UsedDevices() {
			if len(kinds[di]) != tensor.NumKinds {
				t.Fatalf("device %d reports %v, want all %d kinds", di, kinds[di], tensor.NumKinds)
			}
		}
	}
	kinds := p.Health().KindSeconds
	complete(kinds)
	for di, ks := range kinds {
		for kind, sec := range ks {
			if sec != 0 {
				t.Fatalf("device %d: %s has %gs before any task", di, kind, sec)
			}
		}
	}

	const tasks = 3
	in := tensor.RandomInput(m.Input, 1)
	go func() {
		for i := 0; i < tasks; i++ {
			if _, err := p.Submit(in); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
		}
	}()
	for i := 0; i < tasks; i++ {
		if res := <-p.Results(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}

	kinds = p.Health().KindSeconds
	complete(kinds)
	var conv float64
	for di, ks := range kinds {
		for kind, sec := range ks {
			if sec < 0 {
				t.Fatalf("device %d: negative %s seconds", di, kind)
			}
		}
		conv += ks["conv"]
	}
	if conv <= 0 {
		t.Fatal("conv layers executed but no conv seconds attributed")
	}

	for _, w := range lc.Workers {
		_ = w.Abort()
	}
	after := p.Health().KindSeconds
	complete(after)
	for di, ks := range kinds {
		if !maps.Equal(ks, after[di]) {
			t.Fatalf("device %d: %v with its worker gone, %v before", di, after[di], ks)
		}
	}
}
