package runtime

import (
	"testing"

	"pico/internal/tensor"
)

// TestPipelineParallelWorkersBitIdentical runs the same plan over serial and
// multi-core workers: outputs must match the local serial reference exactly,
// and the run doubles as race coverage for the kernels' fan-out, arena, and
// wire buffer pool under `go test -race`.
func TestPipelineParallelWorkersBitIdentical(t *testing.T) {
	plan := testPlan(t, 3)
	const seed = 91
	ref, err := tensor.NewExecutor(plan.Model, seed, tensor.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 4} {
		lc, err := StartLocalCluster(3, nil, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{Seed: seed})
		if err != nil {
			_ = lc.Close()
			t.Fatal(err)
		}
		const tasks = 4
		inputs := make([]tensor.Tensor, tasks)
		for i := range inputs {
			inputs[i] = tensor.RandomInput(plan.Model.Input, int64(100+i))
		}
		go func() {
			for _, in := range inputs {
				if _, err := p.Submit(in); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
		got := 0
		for res := range p.Results() {
			if res.Err != nil {
				t.Fatalf("parallelism %d, task %d: %v", par, res.ID, res.Err)
			}
			want, err := ref.Run(inputs[res.ID-1])
			if err != nil {
				t.Fatal(err)
			}
			if !tensor.Equal(want, res.Output) {
				t.Fatalf("parallelism %d, task %d: output differs by %g",
					par, res.ID, tensor.MaxAbsDiff(want, res.Output))
			}
			got++
			if got == tasks {
				break
			}
		}
		if err := p.Close(); err != nil {
			t.Errorf("pipeline close: %v", err)
		}
		if err := lc.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	}
}
