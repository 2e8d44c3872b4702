package tensor

import (
	"fmt"
	"math"

	"pico/internal/partition"
)

// DType tags a feature map's element type. The values are the wire
// protocol's dtype codes, so the tag crosses the network unchanged.
type DType uint8

const (
	// Float32 maps hold float32 activations (the zero value).
	Float32 DType = 0
	// Int8 maps hold symmetric int8 activations at one per-map Scale.
	Int8 DType = 1
)

func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Int8:
		return "int8"
	default:
		return fmt.Sprintf("dtype(%d)", uint8(d))
	}
}

// FMap is one CHW feature map — a whole map or a tile of one — in either
// precision: the value the segment walker, the slice/stitch pair, the wire
// codec and the runtime's exec RPC all traffic in, so that precision is data
// on the value rather than a second copy of every code path. Tensor and
// QTensor are its two typed views (MapOf/MapOfQ and Tensor/QTensor convert
// for free, sharing the data and the arena slab); only kernels need them.
type FMap struct {
	C, H, W int
	DType   DType
	// Scale is the quantization scale of an Int8 map; unused for Float32.
	Scale float32

	f     []float32
	q     []int8
	fslab *[]float32
	qslab *[]int8
}

// MapOf views a float32 tensor as a tagged map.
func MapOf(t Tensor) FMap {
	return FMap{C: t.C, H: t.H, W: t.W, f: t.Data, fslab: t.slab}
}

// MapOfQ views an int8 tensor as a tagged map.
func MapOfQ(q QTensor) FMap {
	return FMap{C: q.C, H: q.H, W: q.W, DType: Int8, Scale: q.Scale, q: q.Data, qslab: q.slab}
}

// Tensor is the float32 view of a Float32 map (empty for an Int8 one).
func (m FMap) Tensor() Tensor {
	return Tensor{C: m.C, H: m.H, W: m.W, Data: m.f, slab: m.fslab}
}

// QTensor is the int8 view of an Int8 map (empty for a Float32 one).
func (m FMap) QTensor() QTensor {
	return QTensor{C: m.C, H: m.H, W: m.W, Scale: m.Scale, Data: m.q, slab: m.qslab}
}

// Valid reports whether the typed view the tag selects is valid.
func (m FMap) Valid() bool {
	if m.DType == Int8 {
		q := m.QTensor()
		return q.Valid()
	}
	t := m.Tensor()
	return m.DType == Float32 && t.Valid()
}

// Recycle returns the map's backing slice to the arena; the ownership
// contract is Recycle's.
func (m FMap) Recycle() {
	farena.put(m.fslab)
	qarena.put(m.qslab)
}

// allocMap returns an arena-backed map of the given type and extent with
// UNSPECIFIED contents.
func allocMap(d DType, c, h, w int, scale float32) FMap {
	if d == Int8 {
		return MapOfQ(AllocQ(c, h, w, scale))
	}
	return MapOf(Alloc(c, h, w))
}

// copyRegion moves region r between a c-channel h x w map and the dense
// c x r.Rows x r.Cols tile of it, in the direction toMap selects. A
// full-width region is one contiguous run per channel; anything narrower
// goes row by row.
func copyRegion[E elem](whole, tile []E, c, h, w int, r partition.Rect, toMap bool) {
	run, runs := r.Cols.Len(), r.Rows.Len()
	if run == w {
		run, runs = runs*w, 1
	}
	for ch := 0; ch < c; ch++ {
		for i := 0; i < runs; i++ {
			in := whole[(ch*h+r.Rows.Lo+i)*w+r.Cols.Lo:][:run]
			out := tile[(ch*runs+i)*run:][:run]
			if toMap {
				copy(in, out)
			} else {
				copy(out, in)
			}
		}
	}
}

// copyTile is copyRegion dispatched on the map's tag.
func (m FMap) copyTile(tile FMap, r partition.Rect, toMap bool) {
	if m.DType == Int8 {
		copyRegion(m.q, tile.q, m.C, m.H, m.W, r, toMap)
	} else {
		copyRegion(m.f, tile.f, m.C, m.H, m.W, r, toMap)
	}
}

// SliceRect copies region r (in m's own coordinates) of every channel into
// a new arena-backed map of the same type and scale — what a stage leader
// sends each worker. Callers that drop the copy on the hot path may Recycle
// it.
func (m FMap) SliceRect(r partition.Rect) FMap {
	if r.Empty() || r.Rows.Lo < 0 || r.Rows.Hi > m.H || r.Cols.Lo < 0 || r.Cols.Hi > m.W {
		panic(fmt.Sprintf("tensor: SliceRect %v of %dx%d", r, m.H, m.W))
	}
	out := allocMap(m.DType, m.C, r.Rows.Len(), r.Cols.Len(), m.Scale)
	m.copyTile(out, r, false)
	return out
}

// sliceRows is SliceRect for full-width rows [lo, hi).
func (m FMap) sliceRows(lo, hi int) FMap {
	return m.SliceRect(partition.Rect{Rows: partition.Range{Lo: lo, Hi: hi}, Cols: partition.Full(m.W)})
}

// Stitch reassembles a full h x w feature map from disjoint tiles; tiles[i]
// covers rects[i]. Every cell must be covered exactly once, and all tiles
// must agree on type, channels and (bit for bit) scale. Row strips are
// full-width rects and copy as one contiguous run per channel. The result is
// arena-backed; the tiles are not recycled.
func Stitch(tiles []FMap, rects []partition.Rect, h, w int) (FMap, error) {
	if len(tiles) == 0 || len(tiles) != len(rects) {
		return FMap{}, fmt.Errorf("tensor: %d tiles with %d rects", len(tiles), len(rects))
	}
	first := tiles[0]
	cells := 0
	for i, t := range tiles {
		rc := rects[i]
		if t.DType != first.DType || t.C != first.C || t.H != rc.Rows.Len() || t.W != rc.Cols.Len() ||
			len(t.f)+len(t.q) != t.C*t.H*t.W {
			return FMap{}, fmt.Errorf("tensor: tile %d (%v %dx%dx%d) mismatches rect %v of a %v %d-channel map",
				i, t.DType, t.C, t.H, t.W, rc, first.DType, first.C)
		}
		if math.Float32bits(t.Scale) != math.Float32bits(first.Scale) {
			return FMap{}, fmt.Errorf("tensor: tile %d scale %g mismatches %g", i, t.Scale, first.Scale)
		}
		if rc.Empty() || rc.Rows.Lo < 0 || rc.Rows.Hi > h || rc.Cols.Lo < 0 || rc.Cols.Hi > w {
			return FMap{}, fmt.Errorf("tensor: tile %d rect %v outside %dx%d", i, rc, h, w)
		}
		for j, prev := range rects[:i] {
			if !prev.Rows.Intersect(rc.Rows).Empty() && !prev.Cols.Intersect(rc.Cols).Empty() {
				return FMap{}, fmt.Errorf("tensor: tiles %d %v and %d %v overlap", j, prev, i, rc)
			}
		}
		cells += rc.Cells()
	}
	// In-bounds, pairwise disjoint and summing to the whole area: every cell
	// is covered exactly once, so the arena's unspecified contents are fully
	// overwritten below.
	if cells != h*w {
		return FMap{}, fmt.Errorf("tensor: tiles cover %d of %d cells", cells, h*w)
	}
	out := allocMap(first.DType, first.C, h, w, first.Scale)
	for i, t := range tiles {
		out.copyTile(t, rects[i], true)
	}
	return out, nil
}

// stitchRows adapts the typed row-strip signature (strips[i] starts at row
// los[i]) onto Stitch.
func stitchRows[T any](strips []T, los []int, h int, wrap func(T) FMap) (FMap, error) {
	if len(strips) == 0 || len(strips) != len(los) {
		return FMap{}, fmt.Errorf("tensor: %d strips with %d offsets", len(strips), len(los))
	}
	// A stage has a handful of strips: these stay on the stack.
	var tileBuf [8]FMap
	var rectBuf [8]partition.Rect
	tiles, rects := tileBuf[:0], rectBuf[:0]
	for i, s := range strips {
		tiles = append(tiles, wrap(s))
		rects = append(rects, partition.Rect{
			Rows: partition.Range{Lo: los[i], Hi: los[i] + tiles[i].H},
			Cols: partition.Full(tiles[0].W),
		})
	}
	return Stitch(tiles, rects, h, tiles[0].W)
}
