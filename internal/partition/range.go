// Package partition implements the feature-map partition mathematics of the
// paper: receptive-field back-propagation through layer segments (Eq. 3),
// region FLOPs (Eq. 2/4), equal and capacity-aware (divide-and-conquer)
// strip balancing, and overlap/redundancy accounting.
//
// A device's share of a feature map is a Rect. The planners cut maps along the
// row (height) axis into horizontal strips, the scheme used by MoDNN and the
// paper — Rects spanning the full width — and every row-valued function here
// is the rect geometry of calc.go projected onto rows. A Range is a half-open
// interval [Lo, Hi) along one axis of a layer's output feature map.
package partition

import "fmt"

// Range is a half-open interval [Lo, Hi) of feature-map rows.
type Range struct {
	Lo, Hi int
}

// Full returns the range covering all h rows.
func Full(h int) Range { return Range{0, h} }

// Len returns the number of rows in the range.
func (r Range) Len() int {
	if r.Hi <= r.Lo {
		return 0
	}
	return r.Hi - r.Lo
}

// Empty reports whether the range contains no rows.
func (r Range) Empty() bool { return r.Hi <= r.Lo }

// Contains reports whether other is entirely inside r.
func (r Range) Contains(other Range) bool {
	return other.Empty() || (other.Lo >= r.Lo && other.Hi <= r.Hi)
}

// Intersect returns the overlap of two ranges (possibly empty).
func (r Range) Intersect(other Range) Range {
	lo := max(r.Lo, other.Lo)
	hi := min(r.Hi, other.Hi)
	if hi < lo {
		return Range{lo, lo}
	}
	return Range{lo, hi}
}

// Hull returns the smallest range containing both r and other.
// Empty operands are ignored.
func (r Range) Hull(other Range) Range {
	if r.Empty() {
		return other
	}
	if other.Empty() {
		return r
	}
	return Range{min(r.Lo, other.Lo), max(r.Hi, other.Hi)}
}

// Clamp restricts the range to [0, h).
func (r Range) Clamp(h int) Range {
	lo := max(r.Lo, 0)
	hi := min(r.Hi, h)
	if hi < lo {
		return Range{lo, lo}
	}
	return Range{lo, hi}
}

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// Equal splits h rows into p strips whose sizes differ by at most one row.
// When p exceeds h, trailing strips are empty. This is the paper's
// homogeneous partition ("the output feature map F is equivalently
// partitioned").
func Equal(h, p int) []Range {
	if p <= 0 {
		return nil
	}
	parts := make([]Range, p)
	base := h / p
	extra := h % p
	lo := 0
	for i := 0; i < p; i++ {
		size := base
		if i < extra {
			size++
		}
		parts[i] = Range{lo, lo + size}
		lo += size
	}
	return parts
}

// Proportional splits h rows into strips whose sizes are as close as
// possible to proportional to the given non-negative weights. All rows are
// assigned; zero-weight entries receive empty strips when possible.
func Proportional(h int, weights []float64) []Range {
	p := len(weights)
	if p == 0 {
		return nil
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			w = 0
		}
		total += w
	}
	if total == 0 {
		return Equal(h, p)
	}
	parts := make([]Range, p)
	lo := 0
	acc := 0.0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		acc += w
		hi := int(float64(h)*acc/total + 0.5)
		if i == p-1 {
			hi = h
		}
		if hi < lo {
			hi = lo
		}
		parts[i] = Range{lo, hi}
		lo = hi
	}
	return parts
}
