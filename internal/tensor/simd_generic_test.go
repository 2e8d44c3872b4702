//go:build !amd64 || purego

package tensor

import "testing"

// TestPortableBuildRunsNoAsm: without the amd64 port the vector gate is off
// and each walker's variant table (GEMM, depthwise) holds the portable tile
// alone, so this package's suites check the scalar kernels every other
// architecture runs.
func TestPortableBuildRunsNoAsm(t *testing.T) {
	if simd {
		t.Fatal("vector gate on")
	}
	if len(fpwVariants) != 1 || len(qpwVariants) != 1 || len(dwVariants) != 1 || SIMDName() != "" {
		t.Fatalf("variant tables %d / %d / %d, SIMDName %q: want the portable tiles alone",
			len(fpwVariants), len(qpwVariants), len(dwVariants), SIMDName())
	}
}
