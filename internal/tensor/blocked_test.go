package tensor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pico/internal/nn"
)

// blockedCase is one conv geometry for the kernels-vs-reference property
// tests. The set spans every kernel dispatch path: the gathered GEMM walker
// (square, tall, wide, strided, ragged oc counts), pointwise, depthwise, and
// grouped-but-not-depthwise, with all activations and batch norm on and off.
type blockedCase struct {
	name string
	inC  int
	h, w int
	l    nn.Layer
}

func blockedCases() []blockedCase {
	conv := func(name string, inC, h, w, kh, kw, sh, sw, ph, pw, outC, groups int, act nn.Activation, bn bool) blockedCase {
		return blockedCase{name: name, inC: inC, h: h, w: w, l: nn.Layer{
			Name: name, Kind: nn.Conv,
			KH: kh, KW: kw, SH: sh, SW: sw, PH: ph, PW: pw,
			OutC: outC, Groups: groups, Act: act, BatchNorm: bn,
		}}
	}
	return []blockedCase{
		conv("3x3", 5, 11, 13, 3, 3, 1, 1, 1, 1, 9, 0, nn.ReLU, true),
		conv("3x3-stride2", 5, 11, 13, 3, 3, 2, 2, 1, 1, 8, 0, nn.ReLU, false),
		conv("3x3-mixed-stride", 4, 12, 10, 3, 3, 2, 1, 1, 1, 7, 0, nn.NoAct, true),
		conv("5x5", 3, 14, 14, 5, 5, 1, 1, 2, 2, 8, 0, nn.LeakyReLU, false),
		conv("1x7", 4, 9, 15, 1, 7, 1, 1, 0, 3, 8, 0, nn.ReLU, true),
		conv("7x1", 4, 15, 9, 7, 1, 1, 1, 3, 0, 8, 0, nn.ReLU, true),
		conv("pointwise", 7, 10, 12, 1, 1, 1, 1, 0, 0, 10, 0, nn.LeakyReLU, true),
		conv("pointwise-ragged", 3, 8, 8, 1, 1, 1, 1, 0, 0, 6, 0, nn.NoAct, false),
		conv("1x1-stride2", 6, 11, 11, 1, 1, 2, 2, 0, 0, 8, 0, nn.ReLU, false),
		conv("depthwise", 6, 12, 12, 3, 3, 1, 1, 1, 1, 6, 6, nn.ReLU, true),
		conv("depthwise-stride2", 6, 13, 13, 3, 3, 2, 2, 1, 1, 6, 6, nn.ReLU, true),
		conv("grouped", 8, 10, 10, 3, 3, 1, 1, 1, 1, 8, 2, nn.NoAct, true),
		conv("grouped-ragged", 6, 9, 9, 3, 3, 1, 1, 1, 1, 6, 2, nn.LeakyReLU, false),
		conv("no-pad", 3, 10, 10, 3, 3, 1, 1, 0, 0, 5, 0, nn.ReLU, false),
	}
}

// convInputRows returns the global input rows [lo, hi) that output rows
// [outLo, outHi) of a conv read, clamped to the feature map.
func convInputRows(l *nn.Layer, outLo, outHi, inH int) (int, int) {
	lo := outLo*l.SH - l.PH
	if lo < 0 {
		lo = 0
	}
	hi := (outHi-1)*l.SH - l.PH + l.KH
	if hi > inH {
		hi = inH
	}
	return lo, hi
}

// TestBlockedMatchesReferenceBitExact is the central property test of the
// cache-blocked engine: for every geometry, every parallelism setting, and
// a sweep of output-row tile offsets, convForward's kernels must produce
// byte-identical output to the pre-blocking reference loops.
func TestBlockedMatchesReferenceBitExact(t *testing.T) {
	for ci, tc := range blockedCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			l := tc.l
			in := RandomInput(nn.Shape{C: tc.inC, H: tc.h, W: tc.w}, int64(100+ci))
			wts := genConv(int64(200+ci), "blk", &l, tc.inC)
			outH := (tc.h+2*l.PH-l.KH)/l.SH + 1
			outW := (tc.w+2*l.PW-l.KW)/l.SW + 1
			ref := convForwardRef(in, stripGeom(&l, in.C, in.W, 0, tc.h, 0, outH), &l, wts, 1)
			for _, par := range []int{1, 3, 8} {
				got := convForward(in, stripGeom(&l, in.C, in.W, 0, tc.h, 0, outH), &l, wts, par)
				if !Equal(got, ref) {
					t.Fatalf("par=%d: full blocked output differs from reference (max diff %g)", par, MaxAbsDiff(got, ref))
				}
				// Tile offsets: every aligned and unaligned [lo, hi) window.
				rng := rand.New(rand.NewSource(int64(ci*10 + par)))
				for trial := 0; trial < 8; trial++ {
					lo := rng.Intn(outH)
					hi := lo + 1 + rng.Intn(outH-lo)
					inLo, inHi := convInputRows(&l, lo, hi, tc.h)
					tile := in.SliceRows(inLo, inHi)
					gotTile := convForward(tile, stripGeom(&l, tile.C, tile.W, inLo, tc.h, lo, hi), &l, wts, par)
					wantTile := ref.SliceRows(lo, hi)
					if !Equal(gotTile, wantTile) {
						t.Fatalf("par=%d tile [%d,%d): blocked differs from reference", par, lo, hi)
					}
					if gotTile.C != l.OutC || gotTile.H != hi-lo || gotTile.W != outW {
						t.Fatalf("tile shape %dx%dx%d, want %dx%dx%d", gotTile.C, gotTile.H, gotTile.W, l.OutC, hi-lo, outW)
					}
				}
			}
		})
	}
}

// TestBlockedSparseFallbackBitExact zeroes individual taps after generation,
// re-packs, and checks the engine still matches the reference bit-for-bit —
// i.e. sparse blocks correctly decline the packed tile (which would multiply
// the zero weights the reference skips) and fall back to the driver's
// per-channel sweep over the gathered panel.
func TestBlockedSparseFallbackBitExact(t *testing.T) {
	l := nn.Layer{
		Name: "sparse", Kind: nn.Conv,
		KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1,
		OutC: 8, Act: nn.ReLU, BatchNorm: true,
	}
	const inC = 4
	in := RandomInput(nn.Shape{C: inC, H: 9, W: 9}, 1)
	wts := genConv(2, "sparse", &l, inC)
	// Zero taps scattered over both register blocks, then rebuild the tile
	// plan the way genConv would have.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		wts.w[rng.Intn(len(wts.w))] = 0
	}
	wts.pack(&l, inC)
	packed := 0
	for _, panel := range wts.packed {
		if panel != nil {
			packed++
		}
	}
	if packed == len(wts.packed) {
		t.Fatalf("expected at least one sparse block to decline packing")
	}
	ref := convForwardRef(in, stripGeom(&l, in.C, in.W, 0, 9, 0, 9), &l, wts, 1)
	for _, par := range []int{1, 4} {
		got := convForward(in, stripGeom(&l, in.C, in.W, 0, 9, 0, 9), &l, wts, par)
		if !Equal(got, ref) {
			t.Fatalf("par=%d: sparse-kernel blocked output differs from reference", par)
		}
	}
}

// TestFCBlockedMatchesReferenceBitExact checks the register-blocked fully
// connected kernel against the unblocked loop, covering ragged output counts
// (tail features after the last full block) and every parallelism setting.
func TestFCBlockedMatchesReferenceBitExact(t *testing.T) {
	for _, outF := range []int{1, 3, 4, 10, 17} {
		l := nn.Layer{Name: "fc", Kind: nn.FullyConnected, OutF: outF, Act: nn.ReLU}
		in := RandomInput(nn.Shape{C: 3, H: 5, W: 7}, int64(outF))
		wts := genFC(int64(outF), "fc", &l, in.Elems())
		ref := fcForwardRef(in, &l, wts, 1)
		for _, par := range []int{1, 2, 8} {
			got := fcForward(in, &l, wts, par)
			if !Equal(got, ref) {
				t.Fatalf("outF=%d par=%d: blocked fc differs from reference", outF, par)
			}
		}
	}
}

// TestGapForwardParallelBitExact checks the parallelised global average pool
// against its serial result at every worker count, including maps far below
// the parallel grain.
func TestGapForwardParallelBitExact(t *testing.T) {
	for _, dims := range [][3]int{{3, 2, 2}, {64, 8, 8}, {256, 17, 17}} {
		l := nn.Layer{Name: "gap", Kind: nn.GlobalAvgPool, Act: nn.ReLU}
		in := RandomInput(nn.Shape{C: dims[0], H: dims[1], W: dims[2]}, 5)
		ref := gapForward(in, &l, 1)
		for _, par := range []int{2, 3, 8} {
			got := gapForward(in, &l, par)
			if !Equal(got, ref) {
				t.Fatalf("dims=%v par=%d: parallel gap differs from serial", dims, par)
			}
		}
	}
}

// TestParallelForGrainFloor checks that the grain floor lowers the worker
// count — never the coverage: every index is visited exactly once and no
// chunk smaller than the grain is dispatched (except when n itself is
// smaller than one grain).
func TestParallelForGrainFloor(t *testing.T) {
	for _, n := range []int{0, 1, 5, 16, 97, 256} {
		for _, workers := range []int{1, 2, 4, 16} {
			for _, grain := range []int{1, 8, 64, 1024} {
				var mu sync.Mutex
				seen := make([]int, n)
				chunks := 0
				parallelForGrain(n, workers, grain, func(lo, hi int) {
					mu.Lock()
					chunks++
					// Only the remainder chunk (the one ending at n) may
					// be shorter than the grain.
					if hi-lo < grain && hi != n {
						t.Errorf("n=%d workers=%d grain=%d: chunk [%d,%d) below grain", n, workers, grain, lo, hi)
					}
					for i := lo; i < hi; i++ {
						seen[i]++
					}
					mu.Unlock()
				})
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("n=%d workers=%d grain=%d: index %d visited %d times", n, workers, grain, i, c)
					}
				}
				if maxChunks := max(n/max(grain, 1), 1); n > 0 && chunks > maxChunks && chunks > workers {
					t.Fatalf("n=%d workers=%d grain=%d: %d chunks exceeds both %d and workers", n, workers, grain, chunks, maxChunks)
				}
			}
		}
	}
}

// TestTinyLayersIdenticalAcrossParallelism runs a model made of layers far
// below the parallel grain (1x1 maps, single-digit channel counts) at every
// worker count and demands bit-identical outputs — the grain floor must
// only change scheduling, never results.
func TestTinyLayersIdenticalAcrossParallelism(t *testing.T) {
	m := &nn.Model{
		Name:  "tiny",
		Input: nn.Shape{C: 3, H: 6, W: 6},
		Layers: []nn.Layer{
			{Name: "c1", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 5, Act: nn.ReLU},
			{Name: "p1", Kind: nn.MaxPool, KH: 2, KW: 2, SH: 2, SW: 2},
			{Name: "c2", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: 6, Act: nn.ReLU},
			{Name: "gap", Kind: nn.GlobalAvgPool},
			{Name: "fc", Kind: nn.FullyConnected, OutF: 4},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	in := RandomInput(m.Input, 9)
	var want Tensor
	for i, par := range []int{1, 2, 3, 8} {
		e, err := NewExecutor(m, 42, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = out
			continue
		}
		if !Equal(out, want) {
			t.Fatalf("par=%d: tiny model output differs from serial", par)
		}
	}
}

// TestRunNeverRecyclesCallerInput locks the Run ownership contract: when Run
// trims unused border rows it must trim into its own buffer, never hand the
// caller's (possibly arena-backed) tensor to the arena. Mutating freshly
// allocated arena slabs after Run returns must not disturb the caller's
// input or the returned output.
func TestRunNeverRecyclesCallerInput(t *testing.T) {
	// H=8 into an unpadded stride-2 3x3 conv: outH = 3, which reads only
	// rows [0,7) — Run trims the 8th row, the case under audit.
	m := &nn.Model{
		Name:  "trim",
		Input: nn.Shape{C: 2, H: 8, W: 8},
		Layers: []nn.Layer{
			{Name: "c", Kind: nn.Conv, KH: 3, KW: 3, SH: 2, SW: 2, OutC: 4, Act: nn.ReLU},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(m, 7, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	// Caller input lives in the arena — the dangerous case: recycling it
	// would let the arena hand the live buffer to the next Alloc.
	in := Alloc(2, 8, 8)
	rng := rand.New(rand.NewSource(11))
	for i := range in.Data {
		in.Data[i] = rng.Float32()
	}
	inSnap := append([]float32(nil), in.Data...)

	out, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	outSnap := append([]float32(nil), out.Data...)

	// Drain the arena's size classes around the input's and scribble over
	// every slab. If Run leaked the caller's buffer (or the returned
	// output) back to the arena, one of these slabs aliases it.
	var scratch []Tensor
	for i := 0; i < 64; i++ {
		s := Alloc(2, 8, 8)
		for j := range s.Data {
			s.Data[j] = negInf
		}
		scratch = append(scratch, s)
	}
	for i, v := range inSnap {
		if in.Data[i] != v {
			t.Fatalf("caller input mutated at %d after Run returned", i)
		}
	}
	for i, v := range outSnap {
		if out.Data[i] != v {
			t.Fatalf("run output mutated at %d after arena churn", i)
		}
	}
	for _, s := range scratch {
		Recycle(s)
	}
}

// TestPackPlanCoversAllChannels sanity-checks the register-tile plan: one
// panel per block where the GEMM driver indexes it (group g's i-th block at
// g*obg+i, channels from g*ocg+i*fpwMR, at most fpwMR of them and never past
// the group), each packing exactly its channels' weights tap-major, zero
// past a ragged block's, so the blocks cover [0, OutC) once — except in
// groups narrower than one block, whose panels are nil.
func TestPackPlanCoversAllChannels(t *testing.T) {
	cases := []struct {
		outC, inC, groups int
	}{
		{9, 5, 1}, {8, 8, 2}, {6, 6, 6}, {1, 3, 1}, {16, 8, 4}, {17, 3, 1}, {32, 4, 2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("oc%d-g%d", tc.outC, tc.groups), func(t *testing.T) {
			l := nn.Layer{Name: "p", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: tc.outC, Groups: tc.groups}
			wts := genConv(1, "plan", &l, tc.inC)
			groups := max(tc.groups, 1)
			ocg := tc.outC / groups
			obg := (ocg + fpwMR - 1) / fpwMR
			perOC := tc.inC / groups * 9
			if len(wts.packed) != groups*obg {
				t.Fatalf("%d blocks, the walker reads %d", len(wts.packed), groups*obg)
			}
			covered := make([]int, tc.outC)
			for i, panel := range wts.packed {
				oc0, width := i/obg*ocg+i%obg*fpwMR, min(fpwMR, ocg-i%obg*fpwMR)
				for b := 0; b < width; b++ {
					covered[oc0+b]++
				}
				if (panel != nil) != (ocg >= fpwMR) {
					t.Fatalf("block at oc0=%d of a %d-channel group: packed %v", oc0, ocg, panel != nil)
				}
				for k := 0; k < len(panel); k++ {
					want := float32(0)
					if b := k % fpwMR; b < width {
						want = wts.w[(oc0+b)*perOC+k/fpwMR]
					}
					if panel[k] != want || len(panel) != perOC*fpwMR {
						t.Fatalf("block at oc0=%d: packed[%d] = %g of %d, want %g of %d", oc0, k, panel[k], len(panel), want, perOC*fpwMR)
					}
				}
			}
			for oc, c := range covered {
				if c != 1 {
					t.Fatalf("output channel %d covered %d times", oc, c)
				}
			}
		})
	}
}
