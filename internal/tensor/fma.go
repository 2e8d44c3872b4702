package tensor

// Every float multiply-accumulate chain of the engine rounds once per tap:
// the vector tiles issue VFMADD231PS/SS, and plain Go goes through fma32 — a
// single FMADDS on arm64 (fma_arm64.go), a software fused multiply-add
// everywhere else (fma_soft.go) — so the portable kernels, the references
// and the tiles agree bit for bit on every architecture. Products that are
// not a chain (epilogues, the int8 requantize, weight generation) are
// wrapped in an explicit float32(...), which the Go spec guarantees is never
// fused (DESIGN.md §6).

// mac is one step of a multiply-accumulate chain in either accumulator type:
// acc + w*x rounded once (fma32) for float32, wrapping for int32. The branch
// is on the instantiation's shape, so each compiles to its own arm alone.
func mac[A accum](acc, w, x A) A {
	if A(1)/2 != 0 { // float32
		return A(fma32(float32(w), float32(x), float32(acc)))
	}
	return acc + w*x
}
