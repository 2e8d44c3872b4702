package tensor

import (
	"reflect"
	"slices"
	"testing"

	"pico/internal/nn"
	"pico/internal/partition"
)

// cacheKeys lists every weight entry an executor holds, per cache.
func cacheKeys(e *Executor) map[string][]string {
	return map[string][]string{
		"conv": keysOf(&e.conv), "fc": keysOf(&e.fc),
		"qconv": keysOf(&e.qconv), "qfc": keysOf(&e.qfc),
	}
}

func keysOf[V any](c *onceCache[V]) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	keys := make([]string, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// TestWarmCoversFirstTile: Warm(from, to, dt) builds exactly the weights a
// tile of that segment in that precision reads — on a chain strip, a 2x2
// grid quadrant, a segment of graph blocks and a full-map fc tail — so after
// it the segment's first RunTile generates nothing, and a lazy executor's
// first tile generates the same set.
func TestWarmCoversFirstTile(t *testing.T) {
	mnv1 := nn.MobileNetV1()
	cases := []struct {
		name     string
		m        *nn.Model
		from, to int
		grid     bool
	}{
		{"chain", nn.ToyChain("warm-chain", 6, 2, 8, 32), 1, 6, false},
		{"grid2x2", nn.ToyChain("warm-grid", 6, 2, 8, 32), 0, 5, true},
		{"blocks", nn.TinyGraph(), 1, 5, false},
		{"separable-blocks", nn.TinySeparable(), 0, 3, true},
		{"fc-tail", mnv1, mnv1.NumLayers() - 4, mnv1.NumLayers(), false},
	}
	for _, tc := range cases {
		for _, dt := range []DType{Float32, Int8} {
			t.Run(tc.name+"/"+dt.String(), func(t *testing.T) {
				shapes := tc.m.Shapes()
				out := partition.FullRect(shapes[tc.to].H, shapes[tc.to].W)
				out.Rows.Hi = max(1, out.Rows.Hi/2)
				if tc.grid {
					out.Cols.Hi = max(1, out.Cols.Hi/2)
				}
				if l := tc.m.Layers[tc.to-1].Kind; l == nn.FullyConnected || l == nn.GlobalAvgPool {
					out = partition.FullRect(shapes[tc.to].H, shapes[tc.to].W)
				}
				newExec := func() *Executor {
					var opts []ExecutorOption
					if dt == Int8 {
						opts = append(opts, WithQuantized())
					}
					e, err := NewExecutor(tc.m, 3, opts...)
					if err != nil {
						t.Fatal(err)
					}
					return e
				}
				runTile := func(e *Executor) {
					t.Helper()
					need := e.calc.TileRects(tc.from, tc.to, out)[0]
					in := MapOf(RandomInput(shapes[tc.from], 9))
					if dt == Int8 {
						scales, err := e.QuantScales()
						if err != nil {
							t.Fatal(err)
						}
						in = MapOfQ(QuantizeTensor(in.Tensor(), scales[tc.from]))
					}
					res, err := e.RunTile(tc.from, tc.to, in.SliceRect(need), out)
					if err != nil {
						t.Fatal(err)
					}
					res.Recycle()
				}

				lazy := newExec()
				runTile(lazy)
				want := cacheKeys(lazy)

				warm := newExec()
				if err := warm.Warm(tc.from, tc.to, dt); err != nil {
					t.Fatal(err)
				}
				if got := cacheKeys(warm); !reflect.DeepEqual(got, want) {
					t.Fatalf("Warm built %v, a first tile reads %v", got, want)
				}
				runTile(warm)
				if got := cacheKeys(warm); !reflect.DeepEqual(got, want) {
					t.Fatalf("first tile after Warm generated weights: %v, want %v", got, want)
				}
				if len(want["conv"])+len(want["qconv"]) == 0 {
					t.Fatal("segment reads no conv weights: the case checks nothing")
				}
			})
		}
	}
}

// TestWarmRejectsBadSegment: an empty or out-of-range segment is an error,
// and builds nothing.
func TestWarmRejectsBadSegment(t *testing.T) {
	m := nn.ToyChain("warm-bad", 4, 2, 8, 32)
	e, err := NewExecutor(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range [][2]int{{-1, 2}, {0, m.NumLayers() + 1}, {2, 2}, {3, 1}} {
		if err := e.Warm(seg[0], seg[1], Float32); err == nil {
			t.Errorf("Warm(%d, %d) accepted", seg[0], seg[1])
		}
	}
	for name, keys := range cacheKeys(e) {
		if len(keys) > 0 {
			t.Errorf("refused segments built %s weights %v", name, keys)
		}
	}
}

// TestCalibrationStreams: calibration leaves the executor it ran on holding
// no weights — each layer's are dropped once it has run — and still yields
// the scales a calibration over fully built weights does.
func TestCalibrationStreams(t *testing.T) {
	for _, m := range []*nn.Model{nn.MobileNetV1(), nn.TinyGraph(), nn.TinySeparable()} {
		scratch, err := NewExecutor(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := scratch.calibrate()
		if err != nil {
			t.Fatal(err)
		}
		for name, keys := range cacheKeys(scratch) {
			if len(keys) > 0 {
				t.Errorf("%s: calibration left %s weights %v", m.Name, name, keys)
			}
		}
		// The reference: a float forward over the calibration input with every
		// weight resident, recording the same max-abs per boundary.
		ref, err := NewExecutor(m, 1, WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		cur := calibrationInput(m.Input, 1)
		want := []float32{scaleFor(maxAbs(cur.Data))}
		for i := range m.Layers {
			next, err := ref.RunSegment(i, i+1, cur, partition.Full(m.OutShape(i).H))
			if err != nil {
				t.Fatal(err)
			}
			if inheritsScale(m.Layers[i].Kind) {
				want = append(want, want[i])
			} else {
				want = append(want, scaleFor(maxAbs(next.Data)))
			}
			cur = next
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: streamed calibration %v, resident forward %v", m.Name, got, want)
		}
	}
}

// TestDrawnQuantizedMatchesQuantize: the int8 weights drawn row by row from
// the generator are, field for field, the quantization of the float
// parameters the same (seed, key) generates.
func TestDrawnQuantizedMatchesQuantize(t *testing.T) {
	for _, m := range []*nn.Model{nn.MobileNetV1(), nn.TinySeparable(), nn.ToyChain("drawn", 4, 2, 8, 32)} {
		walkWeightLayers(t, m, func(key string, l *nn.Layer, in nn.Shape, _ int) {
			const sIn, sOut = 0.03, 0.07
			switch l.Kind {
			case nn.Conv:
				got := drawQConv(7, key, l, in.C, sIn, sOut)
				want := genQConv(genConvParams(7, key, l, in.C), l, in.C/max(l.Groups, 1), sIn, sOut)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s layer %s: drawn int8 conv differs from quantize(genParams)", m.Name, key)
				}
			case nn.FullyConnected:
				got := drawQFC(7, key, l, in.Elems(), sIn, sOut)
				want := genQFC(genFCParams(7, key, l, in.Elems()), l, in.Elems(), sIn, sOut)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s layer %s: drawn int8 fc differs from quantize(genParams)", m.Name, key)
				}
			}
		})
	}
}
