package runtime

import (
	"math"
	"strings"
	"testing"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/tensor"
	"pico/internal/wire"
)

// rawLoad sends one load frame exactly as given and returns the message of
// the typed error frame the worker refused it with ("" = acknowledged).
func rawLoad(t *testing.T, wc *workerClient, hdr wire.LoadModelHeader) string {
	t.Helper()
	msg, err := wc.roundTrip(wire.MsgLoadModel, hdr, nil)
	if err != nil {
		t.Fatalf("load round trip: %v", err)
	}
	defer wire.PutBuffer(msg.Payload)
	switch msg.Type {
	case wire.MsgPong:
		return ""
	case wire.MsgError:
		var eh wire.ErrorHeader
		if err := msg.DecodeHeader(&eh); err != nil || eh.Message == "" {
			t.Fatalf("error frame without a message (%v)", err)
		}
		return eh.Message
	}
	t.Fatalf("load answered with %v", msg.Type)
	return ""
}

// TestQuantLoadRejectsHostileScales: nothing a load frame says about
// calibration is trusted. Every vector the worker can tell is not the one
// (model, seed) calibrates to is answered with an error frame, registers no
// executor, and leaves the connection serving.
func TestQuantLoadRejectsHostileScales(t *testing.T) {
	m := nn.ToyChain("hostile", 4, 2, 6, 24)
	const seed = 3
	good, err := tensor.QuantScales(m, seed)
	if err != nil {
		t.Fatal(err)
	}
	pool := -1
	for i, l := range m.Layers {
		if l.Kind == nn.MaxPool {
			pool = i
		}
	}
	if pool < 0 {
		t.Fatal("test model has no pool layer")
	}
	with := func(i int, v float32) []float32 {
		s := append([]float32(nil), good...)
		s[i] = v
		return s
	}
	lc := startCluster(t, 1, nil)
	w := lc.Workers[0]
	wc, err := dialWorker(lc.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()
	resident := func() *tensor.Executor {
		w.mu.Lock()
		defer w.mu.Unlock()
		if len(w.execs) > 1 {
			t.Fatalf("%d executors registered", len(w.execs))
		}
		return w.execs[execKey{name: m.Name, seed: seed}]
	}
	hostile := []struct {
		name   string
		scales []float32
		reason string // what the refusal must say
	}{
		{"short", good[:len(good)-1], "boundaries"},
		{"long", append(append([]float32(nil), good...), good[0]), "boundaries"},
		{"nan", with(2, float32(math.NaN())), "finite and positive"},
		{"+inf", with(2, float32(math.Inf(1))), "finite and positive"},
		{"zero", with(2, 0), "finite and positive"},
		{"negative", with(2, -good[2]), "finite and positive"},
		{"pool boundary not inherited", with(pool+1, 2*good[pool]), "must inherit"},
		{"wrong input scale", with(0, math.Nextafter32(good[0], 1)), "calibrates to"},
	}
	spec := wire.SpecFromModel(m)
	try := func(name string, scales []float32, reason string, before *tensor.Executor) {
		t.Helper()
		if msg := rawLoad(t, wc, wire.LoadModelHeader{Model: spec, Seed: seed, Scales: scales, From: 0, To: m.NumLayers()}); !strings.Contains(msg, reason) {
			t.Fatalf("%s: load answered %q, want a refusal saying %q", name, msg, reason)
		}
		if resident() != before {
			t.Fatalf("%s: a refused load changed the registered executor", name)
		}
		if err := wc.ping(); err != nil {
			t.Fatalf("%s: connection did not survive the refusal: %v", name, err)
		}
	}
	for _, tc := range hostile {
		try(tc.name, tc.scales, tc.reason, nil)
	}
	// With the genuine vector resident, one that passes every standalone
	// check but differs from it is still refused.
	if err := wc.loadModel(spec, seed, good, 0, m.NumLayers()); err != nil {
		t.Fatal(err)
	}
	exec := resident()
	if exec == nil || !exec.Quantized() {
		t.Fatal("genuine scales were not loaded")
	}
	const differ = "differ from the ones"
	for _, tc := range hostile {
		try(tc.name+" (resident)", tc.scales, differ, exec)
	}
	try("differs from resident", with(1, math.Nextafter32(good[1], 1)), differ, exec)
	if err := wc.loadModel(spec, seed, good, 0, m.NumLayers()); err != nil {
		t.Fatalf("reload of the genuine scales: %v", err)
	}
}

// TestQuantLoadBillsNoKernelTime: a quantized load runs no kernel on the
// serving executor — its scales are shipped, so there is no calibration — so
// the worker's per-kind kernel seconds are all zero until a tile runs, each
// exec reply bills kernel time within its reported compute, and the replies
// add up to everything the executor holds.
func TestQuantLoadBillsNoKernelTime(t *testing.T) {
	m := nn.ToyChain("bill", 3, 2, 6, 24)
	const seed = 2
	ref, err := tensor.NewExecutor(m, seed, tensor.WithQuantized())
	if err != nil {
		t.Fatal(err)
	}
	scales, err := ref.QuantScales()
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomInput(m.Input, 1)
	want, err := ref.RunQ(in)
	if err != nil {
		t.Fatal(err)
	}
	lc := startCluster(t, 1, nil)
	wc, err := dialWorker(lc.Addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()
	if err := wc.loadModel(wire.SpecFromModel(m), seed, scales, 0, m.NumLayers()); err != nil {
		t.Fatal(err)
	}
	exec, ok := lc.Workers[0].executor(m.Name, seed)
	if !ok {
		t.Fatal("no executor after the load")
	}
	if kinds := exec.KindTotals(); kinds != [tensor.NumKinds]float64{} {
		t.Fatalf("kernel seconds %v billed by the load", kinds)
	}
	var billed [tensor.NumKinds]float64
	for task := 0; task < 3; task++ {
		got, rh, err := wc.exec(whole(m.Output()), tensor.MapOfQ(tensor.QuantizeTensor(in, scales[0])))
		if err != nil {
			t.Fatalf("exec: %v", err)
		}
		if !tensor.EqualQ(got.QTensor(), want) {
			t.Fatal("worker output differs from local RunQ")
		}
		var kernel float64
		for k, sec := range rh.KernelSeconds {
			kernel += sec
			billed[k] += sec
		}
		if kernel <= 0 || kernel > rh.ComputeSeconds {
			t.Fatalf("task %d: %g s of kernel time for a tile that took %g s", task, kernel, rh.ComputeSeconds)
		}
	}
	// The replies account for every kernel second the executor holds.
	for k, total := range exec.KindTotals() {
		if math.Abs(total-billed[k]) > 1e-9 {
			t.Fatalf("%s: replies bill %g s, the executor holds %g s", tensor.KindNames[k], billed[k], total)
		}
	}
}

// TestQuantPipelineShippedScalesMatchLocalRunQ: with the coordinator's scales
// shipped to every worker, the distributed int8 output equals a local RunQ
// byte for byte — on MobileNetV1 (depthwise, pointwise, global pool, fc), a
// toy chain, and a graph model whose blocks take the hybrid float fallback.
func TestQuantPipelineShippedScalesMatchLocalRunQ(t *testing.T) {
	for _, m := range []*nn.Model{nn.MobileNetV1(), nn.ToyChain("shipped", 5, 2, 8, 32), nn.TinyGraph()} {
		plan, err := core.PlanPipeline(m, cluster.Homogeneous(3, 600e6), core.Options{Quantized: true})
		if err != nil {
			t.Fatal(err)
		}
		lc := startCluster(t, 3, nil)
		const seed = 21
		p, err := NewPipeline(plan, lc.Addrs, PipelineOptions{Seed: seed, Quantized: true})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := tensor.NewExecutor(m, seed, tensor.WithQuantized())
		if err != nil {
			t.Fatal(err)
		}
		for task := int64(0); task < 2; task++ {
			in := tensor.RandomInput(m.Input, task)
			if _, err := p.Submit(in); err != nil {
				t.Fatal(err)
			}
			res := <-p.Results()
			if res.Err != nil {
				t.Fatalf("%s task %d: %v", m.Name, task, res.Err)
			}
			wantQ, err := ref.RunQ(in)
			if err != nil {
				t.Fatal(err)
			}
			if want := wantQ.Dequantize(); !tensor.Equal(want, res.Output) {
				t.Fatalf("%s task %d: distributed int8 output differs from local RunQ by %g", m.Name, task, tensor.MaxAbsDiff(want, res.Output))
			}
		}
		if err := p.Close(); err != nil {
			t.Errorf("%s: pipeline close: %v", m.Name, err)
		}
	}
}
