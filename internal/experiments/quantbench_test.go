package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestQuantBenchShape(t *testing.T) {
	tables := runOne(t, "quant")
	if len(tables) != 3 {
		t.Fatalf("want kernel + forward + wire tables, got %d", len(tables))
	}
	kern, fwd, wire := tables[0], tables[1], tables[2]

	wantKinds := []string{"conv3x3", "conv3x3s2", "conv1x7", "pointwise", "depthwise", "depthwise-s2", "depthwise14", "pool", "gap", "fc"}
	seen := map[string]bool{}
	for _, row := range kern.Rows {
		seen[row[0]] = true
		// Columns: kind shape par MMACs "MB moved" "float ms" "int8 ms".
		if v := parseCell(t, row[4]); v <= 0 {
			t.Fatalf("%s: non-positive bytes moved %q", row[0], row[4])
		}
		if v := parseCell(t, row[5]); v <= 0 {
			t.Fatalf("%s: non-positive float time %q", row[0], row[5])
		}
		if v := parseCell(t, row[6]); v <= 0 {
			t.Fatalf("%s: non-positive int8 time %q", row[0], row[6])
		}
	}
	for _, k := range wantKinds {
		if !seen[k] {
			t.Fatalf("quant kernel table missing kind %s", k)
		}
	}

	if len(fwd.Rows) == 0 {
		t.Fatal("no forward rows")
	}
	for _, row := range fwd.Rows {
		// "a/b" top-1 agreement with a majority agreeing.
		parts := strings.Split(row[5], "/")
		if len(parts) != 2 {
			t.Fatalf("bad top-1 cell %q", row[5])
		}
		agree, err1 := strconv.Atoi(parts[0])
		tasks, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || tasks <= 0 {
			t.Fatalf("bad top-1 cell %q", row[5])
		}
		if agree*2 < tasks {
			t.Fatalf("%s: top-1 agreement %s below half", row[0], row[5])
		}
	}

	if len(wire.Rows) == 0 {
		t.Fatal("no wire rows")
	}
	for _, row := range wire.Rows {
		fb := parseCell(t, row[3])
		qb := parseCell(t, row[4])
		if qb <= 0 || fb/qb < 3.9 {
			t.Fatalf("boundary %s: int8 payload %v not ~4x smaller than float %v", row[1], qb, fb)
		}
	}
}
