//go:build linux && !purego

package tensor

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestSIMDNameMatchesCPUInfo checks the CPUID/XCR0 probe against the
// kernel's own reading of the same bits: the float and int8 GEMM tiles
// SIMDName reports — which benchmark fingerprints record — must be the ones
// /proc/cpuinfo's flags imply. (The kernel only lists avx512* flags whose state the OS enables, so
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
		f, q := "avx2", "avx2"
		if flags["avx512f"] {
			f = "avx512"
			if flags["avx512vl"] && flags["avx512_vnni"] {
				q = "avx2+vnni"
			}
		}
		want = f + "/" + q
	}
	if got := SIMDName(); got != want {
		t.Fatalf("SIMDName() = %q, /proc/cpuinfo flags imply %q", got, want)
	}
	if hasVNNI && !hasAVX512 || hasAVX512 && !hasAVX2 {
		t.Fatalf("probe is not nested: avx2=%v avx512=%v vnni=%v", hasAVX2, hasAVX512, hasVNNI)
	}
	if hasAVX512 != (flags["avx2"] && flags["avx512f"]) {
		t.Fatalf("hasAVX512 = %v, /proc/cpuinfo flags avx2=%v avx512f=%v", hasAVX512, flags["avx2"], flags["avx512f"])
	}
	if hasAVX512BW != (hasAVX512 && flags["avx512bw"]) {
		t.Fatalf("hasAVX512BW = %v, /proc/cpuinfo flags avx512f=%v avx512bw=%v", hasAVX512BW, flags["avx512f"], flags["avx512bw"])
	}
}

// TestVariantTablesMatchProbe: both GEMM walkers and the depthwise walkers
// pick their tiles from the CPU probe alone — every tile the probe allows and
// no other, fastest first, the portable one last, the first one active — so
// 512-bit float runs on a host without VNNI and nothing wider than the probe
// allows can be dispatched.
func TestVariantTablesMatchProbe(t *testing.T) {
	var fnames, qnames []string
	for _, v := range fpwVariants {
		fnames = append(fnames, v.name)
	}
	for _, v := range qpwVariants {
		qnames = append(qnames, v.name)
	}
	wantF, wantQ := []string{"portable"}, []string{"portable"}
	if hasAVX2 {
		wantF, wantQ = append([]string{"avx2"}, wantF...), append([]string{"avx2"}, wantQ...)
	}
	if hasAVX512 {
		wantF = append([]string{"avx512"}, wantF...)
	}
	if hasVNNI {
		wantQ = append([]string{"avx2+vnni"}, wantQ...)
	}
	if !slices.Equal(fnames, wantF) || !slices.Equal(qnames, wantQ) {
		t.Fatalf("variant tables %v / %v, probe (avx2=%v avx512=%v vnni=%v) implies %v / %v",
			fnames, qnames, hasAVX2, hasAVX512, hasVNNI, wantF, wantQ)
	}
	if fpwActive != fpwVariants[0] || qpwActive != qpwVariants[0] {
		t.Fatal("the active variant is not the table's first")
	}

	var dnames []string
	for _, v := range dwVariants {
		dnames = append(dnames, v.name)
	}
	wantD := []string{"portable"}
	if hasAVX2 {
		wantD = append([]string{"avx2"}, wantD...)
	}
	if hasAVX512 && hasAVX512BW {
		wantD = append([]string{"avx512"}, wantD...)
	}
	if !slices.Equal(dnames, wantD) {
		t.Fatalf("depthwise variants %v, probe (avx2=%v avx512=%v bw=%v) implies %v", dnames, hasAVX2, hasAVX512, hasAVX512BW, wantD)
	}
	if dwActive != dwVariants[0] {
		t.Fatal("the active depthwise variant is not the table's first")
	}
	for i, v := range dwVariants {
		zmm := v.name == "avx512"
		if (v.runF != nil) != zmm || (v.runQ != nil) != (zmm && hasVNNI) || v.tileF == nil || v.tileQ == nil {
			t.Fatalf("depthwise variant %d (%s): run tiles only on avx512 (int8 with VNNI), per-plane tiles everywhere", i, v.name)
		}
	}
}
