package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"pico/internal/nn"
	"pico/internal/tensor"
)

// FuzzInferRequest drives /infer's request parsing — sessionKey over the
// query's model, plan and quant, then readInput over the body, both as
// handleInfer calls them — with arbitrary strings and bytes, on a gateway
// serving one model (model may be omitted) and on one serving two. Neither
// may panic; every refusal must carry a 4xx status (a body refusal is the
// handler's 400); an accepted key must name a served model and a known plan;
// and a body is accepted exactly when it holds the model's input size in
// bytes, decoding to those little-endian float32s bit for bit. Run with
// `make fuzz-infer` to explore beyond the seeds.
func FuzzInferRequest(f *testing.F) {
	small, big := nn.ToyChain("small", 1, 0, 4, 2), nn.ToyChain("big", 2, 0, 4, 4)
	gateways := []*Gateway{
		{cfg: Config{Models: map[string]*nn.Model{"small": small}}},
		{cfg: Config{Models: map[string]*nn.Model{"small": small, "big": big}}},
	}
	exact := func(m *nn.Model) []byte { return make([]byte, 4*m.Input.Elems()) }
	f.Add(false, "", "", "", exact(small))
	f.Add(false, "small", PlanFused, "1", exact(small))
	f.Add(true, "big", PlanAPICO, "true", exact(big))
	f.Add(true, "big", PlanPICO, "0", exact(small))
	f.Add(true, "", "", "", exact(small))
	f.Add(false, "nope", "", "", []byte{})
	f.Add(false, "small", "bfs", "", exact(small))
	f.Add(false, "small", "", "yes", append(exact(small), 0))
	f.Add(false, "small", "", "false", exact(small)[1:])
	f.Fuzz(func(t *testing.T, two bool, model, plan, quant string, body []byte) {
		g := gateways[0]
		if two {
			g = gateways[1]
		}
		q := url.Values{"model": {model}, "plan": {plan}, "quant": {quant}}
		r, err := http.NewRequest(http.MethodPost, "/infer?"+q.Encode(), bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		key, status, err := g.sessionKey(r)
		if err != nil {
			if status < 400 || status >= 500 {
				t.Fatalf("query %q refused with status %d: %v", r.URL.RawQuery, status, err)
			}
			return
		}
		m := g.cfg.Models[key.Model]
		if status != http.StatusOK || m == nil || (model != "" && key.Model != model) ||
			(key.Plan != PlanPICO && key.Plan != PlanFused && key.Plan != PlanAPICO) {
			t.Fatalf("query %q accepted as %+v with status %d", r.URL.RawQuery, key, status)
		}

		want := 4 * m.Input.Elems()
		in, err := readInput(http.MaxBytesReader(httptest.NewRecorder(), r.Body, int64(want)), m.Input)
		if (err == nil) != (len(body) == want) {
			t.Fatalf("%d-byte body for a %d-byte input: err = %v", len(body), want, err)
		}
		if err != nil {
			return
		}
		defer tensor.Recycle(in)
		if in.C != m.Input.C || in.H != m.Input.H || in.W != m.Input.W {
			t.Fatalf("decoded %dx%dx%d, want %v", in.C, in.H, in.W, m.Input)
		}
		for i, v := range in.Data {
			if got := binary.LittleEndian.Uint32(body[4*i:]); math.Float32bits(v) != got {
				t.Fatalf("element %d decoded to %08x, body holds %08x", i, math.Float32bits(v), got)
			}
		}
	})
}
