//go:build !arm64

package tensor

import "math"

// fma32 returns a*b + c rounded once to float32, as IEEE 754 fusedMultiplyAdd
// (and VFMADD231SS) does. The product of two float32s is exact in float64, so
// only the sum rounds twice: to float64, then to float32. That goes wrong
// only when the float64 sum s is exactly a tie between two float32s, and
// every such s — like every s that is itself a float32 — has its 28 lowest
// mantissa bits clear (a normal float32 tie needs 25 significant bits, a
// subnormal one fewer). Only then is the sum's error e consulted, which is exact (Knuth's
// TwoSum; no float64 sum of these operands overflows): an inexact s moves one
// float64 ulp toward s+e, off the boundary — rounding to odd — so the final
// rounding to float32 is the single correct one. The product e*s is positive
// when the exact sum lies farther from zero than s, negative when nearer, and
// NaN (neither) for a NaN or infinite s. Any fusion gc applies here is
// harmless, since the product it would fuse is exact; fma32 stays small
// enough to inline into the kernels.
func fma32(a, b, c float32) float32 {
	p := float64(a) * float64(b)
	s := p + float64(c)
	bits := math.Float64bits(s)
	if bits<<36 == 0 {
		t := s - p
		if d := ((p - (s - t)) + (float64(c) - t)) * s; d > 0 {
			bits++
		} else if d < 0 {
			bits--
		}
	}
	return float32(math.Float64frombits(bits))
}
