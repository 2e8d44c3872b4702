package tensor

import (
	"fmt"
	"sync/atomic"
	"testing"

	"pico/internal/nn"
	"pico/internal/partition"
)

// stripGeom places a kernel call on a full-width row tile: the tile's first
// row is global row inLo of an inH-row map inC x inW wide, and the call
// produces whole output rows [outLo, outHi).
func stripGeom(l *nn.Layer, inC, inW, inLo, inH, outLo, outHi int) geom {
	return geom{
		rowLo: inLo,
		in:    nn.Shape{C: inC, H: inH, W: inW},
		out:   partition.Rect{Rows: partition.Range{Lo: outLo, Hi: outHi}, Cols: partition.Full(outWidth(l, inW))},
	}
}

// oddStride2 is a chain whose stride-2 layers meet odd extents: the 2x2
// stride-2 conv reads columns [0,32) of its 33-wide input and the pool rows
// and columns [0,16) of 17, so back-propagated regions are narrower than the
// maps they come from.
func oddStride2() *nn.Model {
	return &nn.Model{Name: "odd", Input: nn.Shape{C: 3, H: 35, W: 33}, Layers: []nn.Layer{
		{Name: "c1", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 8, Act: nn.ReLU},
		{Name: "c2", Kind: nn.Conv, KH: 2, KW: 2, SH: 2, SW: 2, OutC: 8, Act: nn.ReLU, BatchNorm: true},
		{Name: "c3", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 6, Act: nn.LeakyReLU},
		{Name: "p", Kind: nn.MaxPool, KH: 2, KW: 2, SH: 2, SW: 2},
		{Name: "c4", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: 5, Act: nn.ReLU},
	}}
}

// eachTileVariant runs fn under every GEMM tile variant of precision dt,
// each paired with the depthwise variant of the same rank (the portable one
// past the end of that table); the depthwise variants a shorter GEMM table
// leaves unpaired run under the portable GEMM tile. So one pass runs every
// tile of both walkers, whatever the two tables' lengths on a host.
func eachTileVariant(t *testing.T, dt DType, fn func(t *testing.T, name string)) {
	t.Helper()
	defer func(v *dwVariant) { dwActive = v }(dwActive)
	i := 0
	paired := func(t *testing.T, name string) {
		dwActive = dwVariants[min(i, len(dwVariants)-1)]
		i++
		fn(t, name+"/dw-"+dwActive.name)
	}
	if dt == Int8 {
		defer func(v *qpwVariant) { qpwActive = v }(qpwActive)
		eachQpwVariant(t, true, paired)
		qpwActive = qpwVariants[len(qpwVariants)-1]
	} else {
		defer func(v *fpwVariant) { fpwActive = v }(fpwActive)
		eachFpwVariant(t, paired)
		fpwActive = fpwVariants[len(fpwVariants)-1]
	}
	for ; i < len(dwVariants); i++ {
		dwActive = dwVariants[i]
		fn(t, "portable/dw-"+dwActive.name)
	}
}

// TestBitIdentity is the tiled = whole-map contract of the one segment
// walker, as one table: {float32, int8} x {model} x {partitioning}. Every
// cell must reproduce the whole-map run of the same segment byte for byte —
// and, for whole models, the Run/RunQ entry points — at two parallelism
// settings.
func TestBitIdentity(t *testing.T) {
	mnv1 := nn.MobileNetV1()
	models := []struct {
		name     string
		m        *nn.Model
		from, to int
	}{
		{"toychain", nn.ToyChain("id", 5, 2, 8, 31), 0, 7},
		{"mnv1-dw-pw", mnv1, 1, 5}, // sep1_dw .. sep2_pw
		{"graph", nn.TinyGraph(), 0, nn.TinyGraph().NumLayers()},
		{"odd-stride2", oddStride2(), 0, 5},
	}
	type tiling func(h, w int) []partition.Rect
	grid := func(rows, cols int) tiling {
		return func(h, w int) []partition.Rect { return partition.GridPartition(h, w, rows, cols) }
	}
	tilings := []struct {
		name  string
		tiles tiling
	}{
		{"whole", grid(1, 1)},
		{"strips", func(h, w int) []partition.Rect { // plan-style: uneven row strips
			var rects []partition.Rect
			for _, r := range partition.Proportional(h, []float64{3, 1, 2}) {
				rects = append(rects, partition.Rect{Rows: r, Cols: partition.Full(w)})
			}
			return rects
		}},
		{"grid2x2", grid(2, 2)},
		{"grid3x2", grid(3, 2)},
		{"cols1x4", grid(1, 4)},
	}
	for _, dt := range []DType{Float32, Int8} {
		for _, mc := range models {
			t.Run(fmt.Sprintf("%v/%s", dt, mc.name), func(t *testing.T) {
				m, from, to := mc.m, mc.from, mc.to
				ref, err := NewExecutor(m, 7, WithQuantized(), WithParallelism(1))
				if err != nil {
					t.Fatal(err)
				}
				// The full map at boundary from, in the cell's precision.
				src := RandomInput(m.InShape(from), 3)
				in := MapOf(src)
				if dt == Int8 {
					scales, err := ref.QuantScales()
					if err != nil {
						t.Fatal(err)
					}
					in = MapOfQ(QuantizeTensor(src, scales[from]))
				}
				out := m.OutShape(to - 1)
				whole := runTiled(t, ref, from, to, in, []partition.Rect{partition.FullRect(out.H, out.W)})
				// The blocked engine against the reference loops (skipped for
				// MobileNetV1, whose calibration forward alone is seconds of
				// reference kernels) and under every GEMM tile variant this host
				// runs in the cell's precision.
				if m != mnv1 {
					oracle, err := NewExecutor(m, 7, WithQuantized(), WithParallelism(1), WithReferenceKernels())
					if err != nil {
						t.Fatal(err)
					}
					if !equalMaps(whole, runTiled(t, oracle, from, to, in, []partition.Rect{partition.FullRect(out.H, out.W)})) {
						t.Fatal("blocked kernels differ from the reference kernels")
					}
				}
				eachTileVariant(t, dt, func(t *testing.T, vn string) {
					if from == 0 && to == m.NumLayers() {
						var viaRun FMap
						if dt == Int8 {
							q, err := ref.RunQ(src)
							if err != nil {
								t.Fatal(err)
							}
							viaRun = MapOfQ(q)
						} else {
							f, err := ref.Run(src)
							if err != nil {
								t.Fatal(err)
							}
							viaRun = MapOf(f)
						}
						if !equalMaps(whole, viaRun) {
							t.Fatal("Run/RunQ differs from the whole-map tile")
						}
					}
					for _, par := range []int{1, 3} {
						e, err := NewExecutor(m, 7, WithQuantized(), WithParallelism(par))
						if err != nil {
							t.Fatal(err)
						}
						for _, tc := range tilings {
							if got := runTiled(t, e, from, to, in, tc.tiles(out.H, out.W)); !equalMaps(whole, got) {
								t.Errorf("%s par=%d %s: stitched tiles differ from the whole map", vn, par, tc.name)
							}
						}
						// The same strips through the typed row-strip façade
						// (RunSegment/RunSegmentQ + StitchRows/StitchRowsQ), which
						// must be the rect path with full columns, not a sibling.
						if got := runStripFacade(t, e, from, to, in, partition.Equal(out.H, 3)); !equalMaps(whole, got) {
							t.Errorf("%s par=%d: row-strip façade differs from the whole map", vn, par)
						}
					}
				})
			})
		}
	}
}

// runStripFacade executes segment [from, to) as row strips through the typed
// exported entry points.
func runStripFacade(t *testing.T, e *Executor, from, to int, full FMap, parts []partition.Range) FMap {
	t.Helper()
	outH := e.Model().OutShape(to - 1).H
	var los []int
	var fs []Tensor
	var qs []QTensor
	for _, part := range parts {
		if part.Empty() {
			continue
		}
		need := e.InputRange(from, to, part)
		los = append(los, part.Lo)
		if full.DType == Int8 {
			q := full.QTensor()
			res, err := e.RunSegmentQ(from, to, q.SliceRows(need.Lo, need.Hi), part)
			if err != nil {
				t.Fatalf("RunSegmentQ(%v): %v", part, err)
			}
			qs = append(qs, res)
		} else {
			f := full.Tensor()
			res, err := e.RunSegment(from, to, f.SliceRows(need.Lo, need.Hi), part)
			if err != nil {
				t.Fatalf("RunSegment(%v): %v", part, err)
			}
			fs = append(fs, res)
		}
	}
	if full.DType == Int8 {
		q, err := StitchRowsQ(qs, los, outH)
		if err != nil {
			t.Fatal(err)
		}
		return MapOfQ(q)
	}
	f, err := StitchRows(fs, los, outH)
	if err != nil {
		t.Fatal(err)
	}
	return MapOf(f)
}

func equalMaps(a, b FMap) bool {
	if a.DType != b.DType {
		return false
	}
	if a.DType == Int8 {
		return EqualQ(a.QTensor(), b.QTensor())
	}
	return Equal(a.Tensor(), b.Tensor())
}

// TestStripsStayFullWidth pins what makes a row strip a rect: on a model
// whose back-propagated columns are narrower than its maps, a full-width
// output keeps every boundary full-width (so strips take full-width input
// rows and the full-width kernels), while any narrower tile keeps exactly
// its back-propagated region.
func TestStripsStayFullWidth(t *testing.T) {
	m := oddStride2()
	calc := partition.NewCalc(m)
	out := m.Output()
	strip := partition.Rect{Rows: partition.Range{Lo: 2, Hi: 6}, Cols: partition.Full(out.W)}
	trimmed := false
	for i, r := range calc.SegmentRects(0, m.NumLayers(), strip) {
		trimmed = trimmed || r.Cols.Len() < m.Shapes()[i].W
	}
	if !trimmed {
		t.Fatal("model does not exercise the case: back-propagated columns span every map")
	}
	rows := calc.SegmentRanges(0, m.NumLayers(), strip.Rows)
	for i, r := range calc.TileRects(0, m.NumLayers(), strip) {
		if r.Cols != partition.Full(m.Shapes()[i].W) || r.Rows != rows[i] {
			t.Fatalf("boundary %d: strip region %v, want rows %v of the full width %d", i, r, rows[i], m.Shapes()[i].W)
		}
	}
	left := partition.Rect{Rows: strip.Rows, Cols: partition.Range{Lo: 0, Hi: out.W - 1}}
	for i, r := range calc.TileRects(0, m.NumLayers(), left) {
		if want := calc.SegmentRects(0, m.NumLayers(), left)[i]; r != want {
			t.Fatalf("boundary %d: partial-width tile widened to %v, want %v", i, r, want)
		}
	}
	// The strip façade takes the full-width rows, nothing narrower.
	e := mustExec(t, m)
	in := RandomInput(m.Input, 1)
	need := e.InputRange(0, m.NumLayers(), strip.Rows)
	if _, err := e.RunSegment(0, m.NumLayers(), in.SliceRows(need.Lo, need.Hi), strip.Rows); err != nil {
		t.Fatalf("full-width strip rejected: %v", err)
	}
}

// TestReferenceKernelsEveryPath extends the blocked-vs-reference contract to
// the paths WithReferenceKernels used to skip: int8 pools and partial-width
// tiles in both precisions. The option must select the reference table — a
// counting copy of it proves every conv, pool and fc call of a run is
// dispatched through the table — and the outputs must match the blocked
// engine's byte for byte.
func TestReferenceKernelsEveryPath(t *testing.T) {
	m := &nn.Model{Name: "refpaths", Input: nn.Shape{C: 3, H: 22, W: 19}, Layers: []nn.Layer{
		{Name: "c1", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 8, Act: nn.ReLU},
		{Name: "mp", Kind: nn.MaxPool, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1},
		{Name: "dw", Kind: nn.Conv, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1, OutC: 8, Groups: 8, Act: nn.ReLU},
		{Name: "ap", Kind: nn.AvgPool, KH: 2, KW: 2, SH: 1, SW: 1, Act: nn.LeakyReLU},
		{Name: "pw", Kind: nn.Conv, KH: 1, KW: 1, SH: 1, SW: 1, OutC: 6, Act: nn.ReLU},
	}}
	blocked, err := NewExecutor(m, 5, WithQuantized())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewExecutor(m, 5, WithQuantized(), WithReferenceKernels(), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if ref.k != &referenceKernels || blocked.k != &blockedKernels {
		t.Fatal("WithReferenceKernels did not select the kernel table")
	}
	var calls atomic.Int64
	counting := referenceKernels
	counting.f.conv = func(in Tensor, g geom, l *nn.Layer, w *convWeights, par int) Tensor {
		calls.Add(1)
		return referenceKernels.f.conv(in, g, l, w, par)
	}
	counting.f.pool = func(in Tensor, g geom, l *nn.Layer, par int) Tensor {
		calls.Add(1)
		return referenceKernels.f.pool(in, g, l, par)
	}
	counting.q.conv = func(in QTensor, g geom, l *nn.Layer, w *qconvWeights, par int) QTensor {
		calls.Add(1)
		return referenceKernels.q.conv(in, g, l, w, par)
	}
	counting.q.pool = func(in QTensor, g geom, l *nn.Layer, par int) QTensor {
		calls.Add(1)
		return referenceKernels.q.pool(in, g, l, par)
	}
	ref.k = &counting

	src := RandomInput(m.Input, 2)
	scales, err := ref.QuantScales() // calibrate now: it runs the float kernels once
	if err != nil {
		t.Fatal(err)
	}
	out := m.Output()
	for _, in := range []FMap{MapOf(src), MapOfQ(QuantizeTensor(src, scales[0]))} {
		for _, grid := range [][2]int{{1, 1}, {2, 1}, {2, 2}} {
			tiles := partition.GridPartition(out.H, out.W, grid[0], grid[1])
			calls.Store(0)
			got := runTiled(t, ref, 0, m.NumLayers(), in, tiles)
			if n := calls.Load(); n != int64(len(tiles)*m.NumLayers()) {
				t.Fatalf("%v %dx%d: %d kernel calls went through the table, want %d", in.DType, grid[0], grid[1], n, len(tiles)*m.NumLayers())
			}
			if want := runTiled(t, blocked, 0, m.NumLayers(), in, tiles); !equalMaps(want, got) {
				t.Fatalf("%v %dx%d: reference kernels differ from the blocked engine", in.DType, grid[0], grid[1])
			}
		}
	}
}

// TestKindSecondsEveryPath: the one dispatch attributes kernel time in both
// precisions and both tile shapes (the float grid path used to record none).
func TestKindSecondsEveryPath(t *testing.T) {
	m := nn.ToyChain("kinds", 3, 1, 8, 24)
	scales, err := QuantScales(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := RandomInput(m.Input, 1)
	out := m.Output()
	for _, in := range []FMap{MapOf(src), MapOfQ(QuantizeTensor(src, scales[0]))} {
		for _, grid := range [][2]int{{2, 1}, {2, 2}} {
			e, err := NewExecutor(m, 1, WithQuantized())
			if err != nil {
				t.Fatal(err)
			}
			if in.DType == Int8 {
				if _, err := e.QuantScales(); err != nil { // calibration runs the float kernels
					t.Fatal(err)
				}
			}
			before := e.KindSeconds()
			runTiled(t, e, 0, m.NumLayers(), in, partition.GridPartition(out.H, out.W, grid[0], grid[1]))
			after := e.KindSeconds()
			for _, kind := range []string{"conv", "pool"} {
				if after[kind] <= before[kind] {
					t.Errorf("%v %dx%d: no %s seconds attributed (%g -> %g)", in.DType, grid[0], grid[1], kind, before[kind], after[kind])
				}
			}
		}
	}
}
