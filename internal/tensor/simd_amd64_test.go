//go:build linux && amd64

package tensor

import (
	"os"
	"strings"
	"testing"
)

// TestSIMDNameMatchesCPUInfo checks the CPUID/XCR0 probe against the
// kernel's own reading of the same bits: the int8 variant SIMDName reports —
// which benchmark fingerprints record — must be the one /proc/cpuinfo's flags
// imply. (The kernel only lists avx512* flags whose state the OS enables, so
// the XCR0 half of the probe is covered too.)
func TestSIMDNameMatchesCPUInfo(t *testing.T) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	want := ""
	if flags["avx2"] {
		want = "avx2"
		if flags["avx512f"] && flags["avx512vl"] && flags["avx512_vnni"] {
			want = "avx2+vnni"
		}
	}
	if got := SIMDName(); got != want {
		t.Fatalf("SIMDName() = %q, /proc/cpuinfo flags imply %q", got, want)
	}
	if hasVNNI && !hasAVX2 {
		t.Fatal("probe reports VNNI without AVX2")
	}
}
