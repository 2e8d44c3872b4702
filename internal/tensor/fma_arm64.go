package tensor

// fma32 returns a*b + c rounded once to float32. gc fuses this expression
// into one FMADDS on arm64 — the Go spec permits fusing an explicit x*y + z,
// and arm64's FMADDS rounds once, as IEEE 754 fusedMultiplyAdd does — and
// inlines it into every chain. `make cross` checks that every fused
// multiply-add in internal/tensor's arm64 listing comes from this line.
func fma32(a, b, c float32) float32 {
	return a*b + c
}
