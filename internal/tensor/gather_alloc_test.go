// The race detector makes sync.Pool drop a share of what is put back, so
// steady-state allocation counts hold only without it.
//
//go:build !race

package tensor

import (
	"testing"

	"pico/internal/nn"
)

// TestFpwGatherSteadyStateAllocs: once its pools are warm, a gathered call
// allocates nothing — the panel comes from fpwScratchPool, the call and its
// bound method value from fconvPool, the output from the arena. Serial only:
// fanning out to the kernel pool allocates its own task closures, whatever
// the kernel.
func TestFpwGatherSteadyStateAllocs(t *testing.T) {
	l := nn.Layer{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 8, Act: nn.ReLU}
	cw := genConv(1, "allocs", &l, 8)
	in := RandomInput(nn.Shape{C: 8, H: 32, W: 32}, 1)
	g := stripGeom(&l, in.C, in.W, 0, in.H, 0, in.H)
	run := func() { Recycle(convForwardGEMM(in, g, &l, cw, 1)) }
	run()
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("%v allocations per call", n)
	}
}
