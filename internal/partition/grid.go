package partition

import "fmt"

// Rect is a rectangular feature-map region: the unit of geometry. A row
// strip is the Rect whose Cols span the map's width; DeepThings-style 2D
// grid tiles (Zhao et al., the paper's [7]) narrow both axes, shrinking each
// device's input region at the price of more overlap boundary.
type Rect struct {
	Rows, Cols Range
}

// Empty reports whether the rectangle covers no cells.
func (r Rect) Empty() bool { return r.Rows.Empty() || r.Cols.Empty() }

// Cells returns the number of covered feature-map positions.
func (r Rect) Cells() int { return r.Rows.Len() * r.Cols.Len() }

// Hull returns the smallest rectangle containing both, axis by axis (see
// Range.Hull).
func (r Rect) Hull(other Rect) Rect {
	return Rect{Rows: r.Rows.Hull(other.Rows), Cols: r.Cols.Hull(other.Cols)}
}

func (r Rect) String() string { return fmt.Sprintf("%vx%v", r.Rows, r.Cols) }

// FullRect covers an h x w feature map.
func FullRect(h, w int) Rect { return Rect{Rows: Full(h), Cols: Full(w)} }

// GridPartition splits an h x w map into a rows x cols grid whose tile
// extents differ by at most one in each axis, in row-major order. One column
// makes the paper's row strips.
func GridPartition(h, w, rows, cols int) []Rect {
	rr := Equal(h, rows)
	cc := Equal(w, cols)
	out := make([]Rect, 0, rows*cols)
	for _, r := range rr {
		for _, c := range cc {
			out = append(out, Rect{Rows: r, Cols: c})
		}
	}
	return out
}
