package partition

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pico/internal/nn"
)

// This file is the package's reference implementation: a brute-force
// geometry that shares no arithmetic with calc.go or redundancy.go. Regions
// come from enumerating every output cell's window taps against the real
// layer shapes, MACs from counting cells one by one, overlap from a plain
// map of how many tiles compute each cell. It replaces the oracle the row
// and rect copies of the geometry used to be for each other.

type cell struct{ row, col int }

// oracleLayer is one atomic layer of a walked segment: its MACs per output
// cell and the output region each tile computes.
type oracleLayer struct {
	per  int64
	outs []Rect
}

type oracle struct {
	m    *nn.Model
	mode RFMode
}

// windowIn returns the bounding box of the input cells the windows of out's
// cells tap. Clamped drops taps that fall into padding; PaperRF keeps them.
func (o oracle) windowIn(l *nn.Layer, out Rect, in nn.Shape) Rect {
	need, first := Rect{}, true
	for r := out.Rows.Lo; r < out.Rows.Hi; r++ {
		for c := out.Cols.Lo; c < out.Cols.Hi; c++ {
			for kh := 0; kh < l.KH; kh++ {
				for kw := 0; kw < l.KW; kw++ {
					ir, ic := r*l.SH-l.PH+kh, c*l.SW-l.PW+kw
					if o.mode == Clamped && (ir < 0 || ir >= in.H || ic < 0 || ic >= in.W) {
						continue
					}
					if first {
						need, first = Rect{Rows: Range{ir, ir + 1}, Cols: Range{ic, ic + 1}}, false
						continue
					}
					need.Rows = Range{min(need.Rows.Lo, ir), max(need.Rows.Hi, ir+1)}
					need.Cols = Range{min(need.Cols.Lo, ic), max(need.Cols.Hi, ic+1)}
				}
			}
		}
	}
	return need
}

// back walks one layer from its output region to the input region it needs,
// calling visit for every atomic layer on the way (block paths included).
func (o oracle) back(l *nn.Layer, out Rect, in nn.Shape, visit func(l *nn.Layer, in nn.Shape, out Rect)) Rect {
	var need Rect
	switch l.Kind {
	case nn.Block:
		for _, path := range l.Paths {
			need = need.Hull(o.backChain(path, o.shapes(path, in), out, nil, visit))
		}
	case nn.GlobalAvgPool, nn.FullyConnected:
		visit(l, in, out)
		if !out.Empty() {
			need = FullRect(in.H, in.W)
		}
	default:
		visit(l, in, out)
		need = o.windowIn(l, out, in)
	}
	return need
}

func (o oracle) shapes(path []nn.Layer, in nn.Shape) []nn.Shape {
	shapes := []nn.Shape{in}
	for i := range path {
		next, err := path[i].OutShape(shapes[i])
		if err != nil {
			panic(err)
		}
		shapes = append(shapes, next)
	}
	return shapes
}

// backChain walks a segment or a block path. The engine's rule: a region
// spanning the width of the chain's output map is executed full-width at
// every boundary of the chain.
func (o oracle) backChain(layers []nn.Layer, shapes []nn.Shape, out Rect, rects []Rect, visit func(l *nn.Layer, in nn.Shape, out Rect)) Rect {
	full := out.Cols == Range{0, shapes[len(layers)].W}
	r := out
	for i := len(layers) - 1; i >= 0; i-- {
		if rects != nil {
			rects[i+1] = r
		}
		r = o.back(&layers[i], r, shapes[i], visit)
		if full {
			r.Cols = Range{0, shapes[i].W}
		}
	}
	if rects != nil {
		rects[0] = r
	}
	return r
}

// perCell counts one output cell's multiply-accumulates the long way round.
func perCell(l *nn.Layer, in nn.Shape) int64 {
	switch l.Kind {
	case nn.Conv:
		groups := max(l.Groups, 1)
		var macs int64
		for oc := 0; oc < l.OutC; oc++ {
			macs += int64(l.KH * l.KW * (in.C / groups))
		}
		return macs
	case nn.FullyConnected:
		return int64(in.C*in.H*in.W) * int64(l.OutF)
	}
	return 0
}

// tile walks one tile of segment [from, to): the region at every boundary,
// the tile's MACs, and — appended to layers when non-nil — its output region
// in every atomic layer.
func (o oracle) tile(from, to int, out Rect, k, tiles int, layers *[]oracleLayer) (rects []Rect, macs int64) {
	rects = make([]Rect, to-from+1)
	idx := 0
	o.backChain(o.m.Layers[from:to], o.m.Shapes()[from:to+1], out, rects, func(l *nn.Layer, in nn.Shape, out Rect) {
		for r := out.Rows.Lo; r < out.Rows.Hi; r++ {
			for c := out.Cols.Lo; c < out.Cols.Hi; c++ {
				macs += perCell(l, in)
			}
		}
		if layers != nil {
			if k == 0 {
				*layers = append(*layers, oracleLayer{per: perCell(l, in), outs: make([]Rect, tiles)})
			}
			// Layers are visited last to first, in the same order for every tile.
			(*layers)[idx].outs[k] = out
			idx++
		}
	})
	return rects, macs
}

// bytes counts a region's float32 bytes cell by cell; Clamped counts only
// the cells inside the map.
func (o oracle) bytes(idx int, r Rect) int64 {
	s := o.m.Shapes()[idx]
	var n int64
	for row := r.Rows.Lo; row < r.Rows.Hi; row++ {
		for col := r.Cols.Lo; col < r.Cols.Hi; col++ {
			if o.mode == PaperRF || (row >= 0 && row < s.H && col >= 0 && col < s.W) {
				n += int64(s.C) * 4
			}
		}
	}
	return n
}

// redundancy is the overlap accounting with plain maps: a cell computed by m
// tiles is m-1 times redundant, shared equally among the m.
func (o oracle) redundancy(from, to int, tiles []Rect) RedundancyStats {
	stats := RedundancyStats{
		PerDeviceFLOPs:     make([]float64, len(tiles)),
		PerDeviceRedundant: make([]float64, len(tiles)),
	}
	var layers []oracleLayer
	for k, t := range tiles {
		rects, macs := o.tile(from, to, t, k, len(tiles), &layers)
		stats.PerDeviceFLOPs[k] = float64(macs)
		stats.TotalFLOPs += float64(macs)
		stats.MaxInputBytes = max(stats.MaxInputBytes, o.bytes(from, rects[0]))
	}
	for _, l := range layers {
		mult := map[cell]int{}
		for _, out := range l.outs {
			for r := out.Rows.Lo; r < out.Rows.Hi; r++ {
				for c := out.Cols.Lo; c < out.Cols.Hi; c++ {
					mult[cell{r, c}]++
				}
			}
		}
		for _, m := range mult {
			stats.RedundantFLOPs += float64(l.per) * float64(m-1)
		}
		for k, out := range l.outs {
			for r := out.Rows.Lo; r < out.Rows.Hi; r++ {
				for c := out.Cols.Lo; c < out.Cols.Hi; c++ {
					m := float64(mult[cell{r, c}])
					stats.PerDeviceRedundant[k] += float64(l.per) * (m - 1) / m
				}
			}
		}
	}
	return stats
}

// checkAgainstOracle compares every count the package exports for the tile
// set with the brute-force reference.
func checkAgainstOracle(t testing.TB, m *nn.Model, mode RFMode, from, to int, tiles []Rect) {
	t.Helper()
	c, o := &Calc{M: m, Mode: mode}, oracle{m: m, mode: mode}
	label := fmt.Sprintf("%s [%d,%d) mode %d", m.Name, from, to, mode)
	for _, tile := range tiles {
		want, macs := o.tile(from, to, tile, 0, 1, nil)
		got := c.TileRects(from, to, tile)
		for i := range want {
			if got[i] != want[i] && !(got[i].Empty() && want[i].Empty()) {
				t.Fatalf("%s tile %v boundary %d: TileRects %v, brute force %v", label, tile, i, got[i], want[i])
			}
		}
		if f := c.SegmentRectFLOPs(from, to, tile); f != macs {
			t.Fatalf("%s tile %v: SegmentRectFLOPs %d, brute force %d", label, tile, f, macs)
		}
		for i, idx := range []int{from, to} {
			r := []Rect{want[0], tile}[i]
			if b, wantB := c.RectBytes(idx, r), o.bytes(idx, r); b != wantB {
				t.Fatalf("%s boundary %d region %v: RectBytes %d, brute force %d", label, idx, r, b, wantB)
			}
		}
	}
	got, want := c.Redundancy(from, to, tiles), o.redundancy(from, to, tiles)
	if got.TotalFLOPs != want.TotalFLOPs || got.RedundantFLOPs != want.RedundantFLOPs || got.MaxInputBytes != want.MaxInputBytes {
		t.Fatalf("%s tiles %v: Redundancy total %g redundant %g max input %d, brute force %g %g %d", label, tiles,
			got.TotalFLOPs, got.RedundantFLOPs, got.MaxInputBytes, want.TotalFLOPs, want.RedundantFLOPs, want.MaxInputBytes)
	}
	for k := range tiles {
		if got.PerDeviceFLOPs[k] != want.PerDeviceFLOPs[k] {
			t.Fatalf("%s tile %d of %v: %g MACs, brute force %g", label, k, tiles, got.PerDeviceFLOPs[k], want.PerDeviceFLOPs[k])
		}
		if math.Abs(got.PerDeviceRedundant[k]-want.PerDeviceRedundant[k]) > 1e-9*want.PerDeviceFLOPs[k] {
			t.Fatalf("%s tile %d of %v: %g redundant MACs, brute force %g", label, k, tiles, got.PerDeviceRedundant[k], want.PerDeviceRedundant[k])
		}
	}
	if got.MaxTileFLOPs() != want.MaxTileFLOPs() {
		t.Fatalf("%s tiles %v: MaxTileFLOPs %g, brute force %g", label, tiles, got.MaxTileFLOPs(), want.MaxTileFLOPs())
	}
}

// TestGeometryMatchesBruteForce runs the oracle over chain and graph models —
// an odd extent into stride-2 pools, residual and inception-style blocks, a
// depthwise path and a 1x11 kernel, a MobileNetV1 prefix — cut into random
// strips, 2x2 and 3x3 grids and ragged overlapping tile sets, in both
// receptive-field modes.
func TestGeometryMatchesBruteForce(t *testing.T) {
	mnv1 := nn.MobileNetV1()
	prefix := &nn.Model{Name: "mobilenetv1-prefix", Input: mnv1.Input, Layers: mnv1.Layers[:5]}
	if err := prefix.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, m := range []*nn.Model{nn.ToyChain("odd", 5, 2, 4, 33), nn.TinyGraph(), nn.TinySeparable(), prefix} {
		for _, seg := range [][2]int{{0, m.NumLayers()}, {1, m.NumLayers() - 1}} {
			from, to := seg[0], seg[1]
			out := m.OutShape(to - 1)
			// Random strips: cut the rows at two random places.
			a, b := rng.Intn(out.H+1), rng.Intn(out.H+1)
			strips := []Rect{
				{Rows: Range{0, min(a, b)}, Cols: Full(out.W)},
				{Rows: Range{min(a, b), max(a, b)}, Cols: Full(out.W)},
				{Rows: Range{max(a, b), out.H}, Cols: Full(out.W)},
			}
			// Ragged: tiles that overlap each other, leave holes and mix a
			// full-width strip with narrow rects.
			ragged := []Rect{
				{Rows: Range{0, out.H/2 + 1}, Cols: Full(out.W)},
				{Rows: Range{out.H / 3, out.H}, Cols: Range{1, out.W/2 + 1}},
				{Rows: Range{out.H / 2, out.H/2 + 1}, Cols: Range{out.W / 2, out.W}},
				{},
			}
			for _, tiles := range [][]Rect{strips, GridPartition(out.H, out.W, 2, 2), GridPartition(out.H, out.W, 3, 3), ragged} {
				for _, mode := range []RFMode{Clamped, PaperRF} {
					checkAgainstOracle(t, m, mode, from, to, tiles)
				}
			}
		}
	}
}

// FuzzTileGeometry builds a random chain of conv and pool layers — kernels
// 1-5, strides 1-3, any padding short of the kernel, per axis — on a random
// extent, cuts two random tiles out of its output and holds every count to
// the brute-force oracle in both receptive-field modes. The seeds below and
// under testdata/fuzz run in every `go test`; `make fuzz-geometry` explores.
func FuzzTileGeometry(f *testing.F) {
	// Layout: H-1, W-1, layers-1; per layer pool?, KH-1, KW-1, SH-1, SW-1, PH,
	// PW; per tile row lo, rows-1, col lo, cols-1, 0 for full width.
	f.Add([]byte{32, 32, 1, 0, 2, 2, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 0, 4, 4, 0, 0, 0, 2, 7, 3, 5, 1})                                           // conv3x3 p1 + pool2x2 on an odd extent, a strip and a rect
	f.Add([]byte{19, 8, 1, 0, 0, 4, 0, 2, 0, 2, 0, 2, 0, 1, 0, 1, 0, 3, 2, 1, 1, 1, 0, 9, 0, 0, 0})                                            // 1x5 stride 1x3, then 3x1 stride 2x1
	f.Add([]byte{11, 39, 3, 0, 4, 4, 2, 2, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 1, 2, 3, 1, 1, 1, 0, 7, 1}) // k5 s3 p4, 1x1, 3x3 s2, padded pool
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		m := &nn.Model{Name: "fz", Input: nn.Shape{C: 2, H: 1 + next()%40, W: 1 + next()%40}}
		for i, n := 0, 1+next()%4; i < n; i++ {
			l := nn.Layer{Name: fmt.Sprintf("l%d", i), Kind: nn.Conv, OutC: 2, Act: nn.ReLU}
			if next()%2 == 1 {
				l = nn.Layer{Name: l.Name, Kind: nn.MaxPool, Act: nn.NoAct}
			}
			l.KH, l.KW = 1+next()%5, 1+next()%5
			l.SH, l.SW = 1+next()%3, 1+next()%3
			l.PH, l.PW = next()%l.KH, next()%l.KW
			m.Layers = append(m.Layers, l)
		}
		if m.Validate() != nil {
			t.Skip("degenerate geometry")
		}
		out := m.Output()
		tiles := make([]Rect, 2)
		for k := range tiles {
			lo := next() % out.H
			tiles[k].Rows = Range{lo, lo + 1 + next()%(out.H-lo)}
			lo = next() % out.W
			tiles[k].Cols = Range{lo, lo + 1 + next()%(out.W-lo)}
			if next()%4 == 0 {
				tiles[k].Cols = Full(out.W)
			}
		}
		for _, mode := range []RFMode{Clamped, PaperRF} {
			checkAgainstOracle(t, m, mode, 0, m.NumLayers(), tiles)
		}
	})
}
