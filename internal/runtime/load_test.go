package runtime

import (
	"strings"
	"sync"
	"testing"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// executor returns the executor the worker holds for (name, seed): the one
// its latest load of that model registered.
func (w *Worker) executor(name string, seed int64) (*tensor.Executor, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.execs[execKey{name: name, seed: seed}]
	return e, ok
}

// warmedSets is how many weight sets a fresh executor holds after warming
// the given segments in one precision: what a worker loaded for them must
// hold.
func warmedSets(t *testing.T, m *nn.Model, seed int64, quant bool, segs ...[2]int) int {
	t.Helper()
	opts, dt := []tensor.ExecutorOption{}, tensor.Float32
	if quant {
		opts, dt = append(opts, tensor.WithQuantized()), tensor.Int8
	}
	e, err := tensor.NewExecutor(m, seed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		if err := e.Warm(s[0], s[1], dt); err != nil {
			t.Fatal(err)
		}
	}
	return e.WeightSets()
}

// TestLoadSegment pins the load frame's segment contract in both precisions:
// the segment is required, so an empty one — [0,0), the zero value, among
// them — or an out-of-range one is refused with a typed error frame,
// registers nothing and leaves the connection serving; a load answers only
// once the segment's weights are built, so the first tile builds nothing;
// a worker loaded for two stages (one connection each) holds the union of
// their layers; and a refused load leaves a connection bound to its last
// accepted one.
func TestLoadSegment(t *testing.T) {
	m := nn.TinyGraph()
	n := m.NumLayers()
	const seed = 4
	spec := wire.SpecFromModel(m)
	for _, quant := range []bool{false, true} {
		var scales []float32
		if quant {
			var err error
			if scales, err = tensor.QuantScales(m, seed); err != nil {
				t.Fatal(err)
			}
		}
		hdr := func(from, to int) wire.LoadModelHeader {
			return wire.LoadModelHeader{Model: spec, Seed: seed, Scales: scales, From: from, To: to}
		}
		lc := startCluster(t, 1, nil)
		w := lc.Workers[0]
		wc, err := dialWorker(lc.Addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer wc.close()

		for _, seg := range [][2]int{{0, 0}, {-1, 2}, {0, n + 1}, {3, 3}, {4, 2}, {0, -1}} {
			if msg := rawLoad(t, wc, hdr(seg[0], seg[1])); !strings.Contains(msg, "segment") {
				t.Fatalf("quant %v: segment %v answered %q, want a segment refusal", quant, seg, msg)
			}
			if _, ok := w.executor(m.Name, seed); ok {
				t.Fatalf("quant %v: refused segment %v registered an executor", quant, seg)
			}
			if err := wc.ping(); err != nil {
				t.Fatalf("quant %v: connection did not survive the refusal: %v", quant, err)
			}
		}

		if msg := rawLoad(t, wc, hdr(1, 3)); msg != "" {
			t.Fatalf("quant %v: segment load refused: %s", quant, msg)
		}
		exec, ok := w.executor(m.Name, seed)
		if !ok {
			t.Fatalf("quant %v: no executor after the load", quant)
		}
		if got, want := exec.WeightSets(), warmedSets(t, m, seed, quant, [2]int{1, 3}); got != want || want == 0 {
			t.Fatalf("quant %v: load of [1,3) holds %d weight sets, want %d", quant, got, want)
		}
		// A second stage on the same device, on its own connection.
		wc2, err := dialWorker(lc.Addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer wc2.close()
		if err := wc2.loadModel(spec, seed, scales, 3, n); err != nil {
			t.Fatal(err)
		}
		union := warmedSets(t, m, seed, quant, [2]int{1, 3}, [2]int{3, n})
		if got := exec.WeightSets(); got != union {
			t.Fatalf("quant %v: two stages' loads hold %d weight sets, want their union's %d", quant, got, union)
		}
		if again, _ := w.executor(m.Name, seed); again != exec {
			t.Fatalf("quant %v: the second stage's load replaced the executor", quant)
		}

		// The loaded segments' tiles build nothing more. Their input comes
		// from a third connection, loaded for [0,1).
		head, err := dialWorker(lc.Addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer head.close()
		if err := head.loadModel(spec, seed, scales, 0, 1); err != nil {
			t.Fatal(err)
		}
		in := tensor.MapOf(tensor.RandomInput(m.Input, 1))
		if quant {
			in = tensor.MapOfQ(tensor.QuantizeTensor(in.Tensor(), scales[0]))
		}
		mid, _, err := head.exec(whole(m.OutShape(0)), in)
		if err != nil {
			t.Fatal(err)
		}
		// A refused load leaves the connection bound to its last accepted one.
		if msg := rawLoad(t, wc, hdr(0, 0)); !strings.Contains(msg, "segment") {
			t.Fatalf("quant %v: empty segment answered %q, want a segment refusal", quant, msg)
		}
		before := exec.WeightSets()
		mid2, _, err := wc.exec(whole(m.OutShape(2)), mid)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := wc2.exec(whole(m.Output()), mid2); err != nil {
			t.Fatal(err)
		}
		if got := exec.WeightSets(); got != before {
			t.Fatalf("quant %v: tiles of loaded segments built %d weight sets", quant, got-before)
		}
	}
}

// TestConcurrentLoadsShareOneExecutor: loads of one (model, seed) that race
// each other — a plan's stages on one device, dialled all at once — resolve
// to one registered executor, so each layer's weights are generated once
// however the loads' segments overlap.
func TestConcurrentLoadsShareOneExecutor(t *testing.T) {
	m := nn.ToyChain("concurrent-load", 6, 2, 8, 32)
	n := m.NumLayers()
	const seed = 6
	spec := wire.SpecFromModel(m)
	for _, quant := range []bool{false, true} {
		var scales []float32
		if quant {
			var err error
			if scales, err = tensor.QuantScales(m, seed); err != nil {
				t.Fatal(err)
			}
		}
		lc := startCluster(t, 1, nil)
		w := lc.Workers[0]
		segs := [][2]int{{0, n}, {0, 3}, {2, n}, {0, n}, {1, 4}, {3, 5}}
		execs := make([]*tensor.Executor, len(segs))
		var wg sync.WaitGroup
		for i, seg := range segs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e, err := w.load(&wire.LoadModelHeader{Model: spec, Seed: seed, Scales: scales, From: seg[0], To: seg[1]})
				if err != nil {
					t.Error(err)
				}
				execs[i] = e
			}()
		}
		wg.Wait()
		resident, ok := w.executor(m.Name, seed)
		if !ok {
			t.Fatal("no executor registered")
		}
		for i, e := range execs {
			if e != resident {
				t.Fatalf("quant %v: load %d resolved to another executor than the registered one", quant, i)
			}
		}
		if got, want := resident.WeightSets(), warmedSets(t, m, seed, quant, [2]int{0, n}); got != want {
			t.Fatalf("quant %v: %d weight sets after the loads, want %d", quant, got, want)
		}
	}
}

// TestPipelineOpensWarm: NewPipeline returns with every stage's weights built
// on its workers — strips and a 2x2 grid stage, both precisions — so the
// first task builds nothing.
func TestPipelineOpensWarm(t *testing.T) {
	m := nn.ToyChain("opens-warm", 6, 2, 8, 32)
	cl := cluster.Homogeneous(4, 600e6)
	for _, quant := range []bool{false, true} {
		pipe, err := core.PlanPipeline(m, cl, core.Options{Quantized: quant})
		if err != nil {
			t.Fatal(err)
		}
		grid, err := core.GridPlan(m, cl, 2, 2, core.Options{Quantized: quant})
		if err != nil {
			t.Fatal(err)
		}
		for _, plan := range []*core.Plan{pipe, grid} {
			lc := startCluster(t, cl.Size(), nil)
			p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{Seed: 8, Quantized: quant})
			if err != nil {
				t.Fatal(err)
			}
			sets := func() map[int]int {
				out := map[int]int{}
				for _, di := range plan.UsedDevices() {
					if e, ok := lc.Workers[di].executor(m.Name, 8); ok {
						out[di] = e.WeightSets()
					}
				}
				return out
			}
			opened := sets()
			for _, di := range plan.UsedDevices() {
				if opened[di] == 0 {
					t.Fatalf("quant %v, %d stages: device %d opened without weights", quant, len(plan.Stages), di)
				}
			}
			if _, err := p.Submit(tensor.RandomInput(m.Input, 1)); err != nil {
				t.Fatal(err)
			}
			if res := <-p.Results(); res.Err != nil {
				t.Fatal(res.Err)
			}
			for di, n := range sets() {
				if n != opened[di] {
					t.Fatalf("quant %v, %d stages: device %d's first task built %d weight sets", quant, len(plan.Stages), di, n-opened[di])
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
