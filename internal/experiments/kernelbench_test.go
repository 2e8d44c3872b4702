package experiments

import (
	"strings"
	"testing"
)

func TestKernShape(t *testing.T) {
	tables := runOne(t, "kern")
	if len(tables) != 2 {
		t.Fatalf("want kernel + forward tables, got %d", len(tables))
	}
	kern, fwd := tables[0], tables[1]
	wantKinds := []string{"conv3x3", "conv3x3s2", "conv1x7", "pointwise", "depthwise", "depthwise-s2", "depthwise14", "pool", "gap", "fc"}
	seen := map[string]bool{}
	for _, row := range kern.Rows {
		seen[row[0]] = true
		if v := parseCell(t, row[4]); v <= 0 {
			t.Fatalf("%s: non-positive bytes moved %q", row[0], row[4])
		}
		macs := parseCell(t, row[3])
		if strings.Contains(row[0], "conv") || row[0] == "pointwise" || strings.HasPrefix(row[0], "depthwise") || row[0] == "fc" {
			if macs <= 0 {
				t.Fatalf("%s: non-positive MACs %q", row[0], row[3])
			}
		} else if macs != 0 {
			t.Fatalf("%s: pooling kinds are costed at zero MACs, got %q", row[0], row[3])
		}
		if v := parseCell(t, row[5]); v <= 0 {
			t.Fatalf("%s: non-positive ref time %q", row[0], row[5])
		}
		if v := parseCell(t, row[6]); v <= 0 {
			t.Fatalf("%s: non-positive blocked time %q", row[0], row[6])
		}
	}
	for _, k := range wantKinds {
		if !seen[k] {
			t.Fatalf("kernel table missing kind %s", k)
		}
	}
	if len(fwd.Rows) == 0 {
		t.Fatal("no forward rows")
	}
	for _, row := range fwd.Rows {
		if !strings.Contains(row[0], "mobilenet") && !strings.Contains(row[0], "inception") {
			t.Fatalf("unexpected forward model %q", row[0])
		}
	}
}

func TestCompareKernelBench(t *testing.T) {
	base := &KernelBenchResult{Kernels: []KernelBenchRow{
		{Kind: "conv3x3", Shape: "64x56x56", Par: 1, BlockedMs: 10},
		{Kind: "pointwise", Shape: "128x28x28", Par: 1, BlockedMs: 5},
	}}
	fresh := &KernelBenchResult{Kernels: []KernelBenchRow{
		{Kind: "conv3x3", Shape: "64x56x56", Par: 1, BlockedMs: 10.5},  // +5%: within tolerance
		{Kind: "pointwise", Shape: "128x28x28", Par: 1, BlockedMs: 6},  // +20%: regression
		{Kind: "depthwise", Shape: "128x28x28", Par: 1, BlockedMs: 99}, // no baseline: ignored
	}}
	regs := CompareKernelBench(base, fresh, 0.10)
	if len(regs) != 1 || !strings.Contains(regs[0], "pointwise") {
		t.Fatalf("want one pointwise regression, got %v", regs)
	}
	if regs := CompareKernelBench(base, fresh, 0.25); len(regs) != 0 {
		t.Fatalf("want no regressions at 25%% tolerance, got %v", regs)
	}
	// A shape change invalidates the comparison rather than misfiring.
	fresh.Kernels[1].Shape = "128x14x14"
	if regs := CompareKernelBench(base, fresh, 0.10); len(regs) != 0 {
		t.Fatalf("shape-mismatched rows must be skipped, got %v", regs)
	}
}
