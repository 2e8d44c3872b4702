// Package tensor is a pure-Go float32 CNN inference engine — the substitute
// for the paper's LibTorch/NNPACK backend. It exists so that the feature-map
// partition machinery can be verified end to end: executing a model segment
// on overlapping row tiles and stitching the strips must reproduce the
// whole-tensor inference bit for bit (per-pixel accumulation order is
// independent of the tile, so equality is exact, not approximate).
//
// Weights are generated deterministically from a seed, so distributed
// workers can materialise identical models without shipping parameters
// (geometry, not weights, is what the paper's scheduling problem depends
// on).
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a CHW float32 feature map. Data is indexed (c*H + h)*W + w.
type Tensor struct {
	C, H, W int
	Data    []float32

	// slab, when non-nil, points at the full-capacity backing slice this
	// tensor drew from the arena; Recycle uses it to return the memory
	// without allocating. Tensors built by hand have a nil slab and are
	// simply garbage collected.
	slab *[]float32
}

// New allocates a zero tensor of the given extent.
func New(c, h, w int) Tensor {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("tensor: invalid extent %dx%dx%d", c, h, w))
	}
	return Tensor{C: c, H: h, W: w, Data: make([]float32, c*h*w)}
}

// At returns the element at (c, h, w); no bounds checks beyond the slice's.
func (t *Tensor) At(c, h, w int) float32 { return t.Data[(c*t.H+h)*t.W+w] }

// Set writes the element at (c, h, w).
func (t *Tensor) Set(c, h, w int, v float32) { t.Data[(c*t.H+h)*t.W+w] = v }

// Elems returns the number of scalars.
func (t *Tensor) Elems() int { return t.C * t.H * t.W }

// Valid reports whether the header matches the data length.
func (t *Tensor) Valid() bool {
	return t.C > 0 && t.H > 0 && t.W > 0 && len(t.Data) == t.Elems()
}

// SliceRows copies rows [lo, hi) of every channel into a new tensor. The
// copy is arena-backed; callers that drop it on the hot path may Recycle it.
func (t *Tensor) SliceRows(lo, hi int) Tensor { return MapOf(*t).sliceRows(lo, hi).Tensor() }

// StitchRows reassembles a full feature map of the given height from
// disjoint row strips. strips[i] covers rows [los[i], los[i]+strips[i].H).
// Every row of [0, h) must be covered exactly once.
func StitchRows(strips []Tensor, los []int, h int) (Tensor, error) {
	m, err := stitchRows(strips, los, h, MapOf)
	return m.Tensor(), err
}

// Equal reports exact bitwise equality of extent and data.
func Equal(a, b Tensor) bool {
	if a.C != b.C || a.H != b.H || a.W != b.W || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum elementwise absolute difference; +Inf when
// extents differ.
func MaxAbsDiff(a, b Tensor) float64 {
	if a.C != b.C || a.H != b.H || a.W != b.W {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > worst {
			worst = d
		}
	}
	return worst
}
