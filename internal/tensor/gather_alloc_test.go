// The race detector makes sync.Pool drop a share of what is put back, so
// steady-state allocation counts hold only without it.
//
//go:build !race

package tensor

import (
	"fmt"
	"testing"

	"pico/internal/nn"
)

// TestSteadyStateAllocs: once their pools are warm, the generic drivers
// allocate nothing in either dtype — the call and its bound method value come
// from the driver's call pool, the scratch from its scratch pool, the output
// from the arena. Serial only: fanning out allocates the goroutines' closures,
// whatever the kernel.
func TestSteadyStateAllocs(t *testing.T) {
	conv := func(k, p int) nn.Layer {
		return nn.Layer{Name: "c", Kind: nn.Conv, KH: k, KW: k, SH: 1, SW: 1, PH: p, PW: p, OutC: 8, Act: nn.ReLU}
	}
	cases := []struct {
		name string
		l    nn.Layer
	}{
		{"gemm-gathered", conv(3, 1)},
		{"gemm-in-place", conv(1, 0)},
		{"max-pool", nn.Layer{Name: "p", Kind: nn.MaxPool, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1, Act: nn.ReLU}},
		{"avg-pool", nn.Layer{Name: "p", Kind: nn.AvgPool, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}},
	}
	const c, h, w = 8, 32, 33 // a ragged last tile
	in := RandomInput(nn.Shape{C: c, H: h, W: w}, 1)
	qin := randomQInput(c, h, w, 1)
	for _, tc := range cases {
		l := tc.l
		g := stripGeom(&l, c, w, 0, h, 0, (h+2*l.PH-l.KH)/l.SH+1)
		runs := map[DType]func(){
			Float32: func() { Recycle(poolForward(in, g, &l, 1)) },
			Int8:    func() { RecycleQ(qpoolForward(qin, g, &l, 1)) },
		}
		if l.Kind == nn.Conv {
			cw := genConv(1, "allocs", &l, c)
			qw := genQConv(cw, &l, c, 0.03, 0.07)
			runs[Float32] = func() { Recycle(convForwardGEMM(in, g, &l, cw, 1)) }
			runs[Int8] = func() { RecycleQ(qconvForwardGEMM(qin, g, &l, qw, 1)) }
		}
		for _, dt := range []DType{Float32, Int8} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, dt), func(t *testing.T) {
				run := runs[dt]
				run()
				if n := testing.AllocsPerRun(50, run); n != 0 {
					t.Fatalf("%v allocations per call", n)
				}
			})
		}
	}
}
