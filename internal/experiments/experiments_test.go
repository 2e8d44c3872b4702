package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parseCell converts a formatted cell ("1.234", "12.34%", "1.59x") to a
// float.
func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSpace(s), "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func runOne(t *testing.T, id string) []Table {
	t.Helper()
	tables, err := Run(id, Quick())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s: no tables", id)
	}
	return tables
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != len(registry) {
		t.Fatalf("order has %d entries, registry %d", len(ids), len(registry))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if _, err := Lookup(id); err != nil {
			t.Fatalf("ordered id %q not registered: %v", id, err)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := Run("nope", Quick()); err == nil {
		t.Fatal("Run with unknown id accepted")
	}
}

// TestRegistryMatchesResults pins the registry to the committed paper
// artefacts: every experiment ID has a results/<id>.txt and vice versa, so
// `picobench -list` and `ls results/` cannot drift apart.
func TestRegistryMatchesResults(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "results", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no results files: %v", err)
	}
	onDisk := map[string]bool{}
	for _, f := range files {
		onDisk[strings.TrimSuffix(filepath.Base(f), ".txt")] = true
	}
	for _, id := range IDs() {
		if !onDisk[id] {
			t.Errorf("experiment %q has no results/%s.txt", id, id)
		}
		delete(onDisk, id)
	}
	for id := range onDisk {
		t.Errorf("results/%s.txt has no registered experiment", id)
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{ID: "x", Title: "demo", Columns: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Notes = append(tb.Notes, "hello")
	out := tb.Render()
	for _, want := range []string{"# x: demo", "a  bb", "1  2", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestFig2ConvDominates(t *testing.T) {
	tables := runOne(t, "fig2")
	if len(tables) != 2 {
		t.Fatalf("want 2 tables, got %d", len(tables))
	}
	for _, tb := range tables {
		var convShare float64
		for _, row := range tb.Rows {
			if row[1] == "conv" {
				convShare += parseCell(t, row[3])
			}
		}
		// Paper: conv layers provide >99% of computation.
		if convShare < 99 {
			t.Fatalf("%s: conv share %.2f%% < 99%%", tb.ID, convShare)
		}
	}
}

func TestFig4RedundancyGrows(t *testing.T) {
	tables := runOne(t, "fig4")
	total := tables[1] // fig4b
	first := total.Rows[0]
	last := total.Rows[len(total.Rows)-1]
	// With one fused layer, all device columns equal the 1-device column.
	base := parseCell(t, first[1])
	for _, cell := range first[2:] {
		if v := parseCell(t, cell); v > base*1.01 {
			t.Fatalf("one fused layer should have no redundancy: %v", first)
		}
	}
	// Whole trunk fused on 8 devices must cost several times the trunk.
	single := parseCell(t, last[1])
	eight := parseCell(t, last[len(last)-1])
	if eight < 2*single {
		t.Fatalf("full fusion on 8 devices only %.2fx the trunk", eight/single)
	}
}

// capacityOrdering asserts the Fig. 8/9 shape on one panel: PICO <= OFL <=
// EFL <= LW on the largest cluster row.
func capacityOrdering(t *testing.T, tb Table) {
	t.Helper()
	last := tb.Rows[len(tb.Rows)-1]
	lw := parseCell(t, last[1])
	efl := parseCell(t, last[2])
	ofl := parseCell(t, last[3])
	pico := parseCell(t, last[4])
	if !(pico <= ofl+1e-9 && ofl <= efl+1e-9 && efl <= lw+1e-9) {
		t.Fatalf("%s ordering broken at 8 devices: LW %.2f EFL %.2f OFL %.2f PICO %.2f",
			tb.ID, lw, efl, ofl, pico)
	}
}

func TestFig8Shape(t *testing.T) {
	tables := runOne(t, "fig8")
	if len(tables) != 4 {
		t.Fatalf("want 4 panels, got %d", len(tables))
	}
	for _, tb := range tables[:3] {
		capacityOrdering(t, tb)
		// PICO period must fall monotonically with more devices.
		prev := -1.0
		for _, row := range tb.Rows {
			v := parseCell(t, row[4])
			if prev > 0 && v > prev*1.001 {
				t.Fatalf("%s: PICO period rose with devices: %v", tb.ID, tb.Rows)
			}
			prev = v
		}
	}
	// Throughput panel: PICO highest at every frequency.
	for _, row := range tables[3].Rows {
		pico := parseCell(t, row[4])
		for _, cell := range row[1:4] {
			if parseCell(t, cell) > pico {
				t.Fatalf("fig8d: PICO not the best throughput: %v", row)
			}
		}
	}
}

func TestFig9Shape(t *testing.T) {
	tables := runOne(t, "fig9")
	for _, tb := range tables[:3] {
		capacityOrdering(t, tb)
	}
	// YOLOv2 LW must barely improve 1 -> 8 devices (communication bound).
	tb := tables[0]
	first := parseCell(t, tb.Rows[0][1])
	last := parseCell(t, tb.Rows[len(tb.Rows)-1][1])
	if first/last > 2 {
		t.Fatalf("LW improved %.2fx with devices; paper says it stalls", first/last)
	}
}

func latencyShape(t *testing.T, tables []Table) {
	t.Helper()
	avg := tables[0]
	// EFL's latency at the heaviest workload must dwarf APICO's.
	last := avg.Rows[len(avg.Rows)-1]
	efl := parseCell(t, last[1])
	apico := parseCell(t, last[4])
	if efl < 1.7*apico {
		t.Fatalf("EFL %.2f vs APICO %.2f at heavy load: reduction %.2fx < 1.7x", efl, apico, efl/apico)
	}
	// PICO's latency must stay within 2x from the lightest to heaviest
	// workload (the near-flat curve).
	picoFirst := parseCell(t, avg.Rows[0][3])
	picoLast := parseCell(t, last[3])
	if picoLast > 2*picoFirst {
		t.Fatalf("PICO latency not flat: %.2f -> %.2f", picoFirst, picoLast)
	}
	// APICO at the lightest workload must not lose badly to the best
	// scheme (it should have switched to it).
	ofl := parseCell(t, avg.Rows[0][2])
	apicoLight := parseCell(t, avg.Rows[0][4])
	best := ofl
	if picoFirst < best {
		best = picoFirst
	}
	if apicoLight > best*1.6 {
		t.Fatalf("APICO light-load latency %.2f vs best %.2f", apicoLight, best)
	}
}

func TestFig10Shape(t *testing.T) { latencyShape(t, runOne(t, "fig10")) }
func TestFig11Shape(t *testing.T) { latencyShape(t, runOne(t, "fig11")) }

func TestFig12Shape(t *testing.T) {
	tables := runOne(t, "fig12")
	if len(tables) != 2 {
		t.Fatalf("want 2 tables, got %d", len(tables))
	}
	for _, tb := range tables {
		// Speedup grows with devices; at 8 devices within the paper's
		// ballpark (>= 3.5x).
		prev := 0.0
		for _, row := range tb.Rows {
			v := parseCell(t, row[1])
			if v < prev {
				t.Fatalf("%s: speedup fell: %v", tb.ID, tb.Rows)
			}
			prev = v
		}
		if prev < 3.5 {
			t.Fatalf("%s: 8-device speedup %.2fx < 3.5x", tb.ID, prev)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	tables := runOne(t, "table1")
	for _, tb := range tables {
		// Rows alternate Utili/Redu per scheme in LW, EFL, OFL, PICO order.
		avgIdx := len(tb.Columns) - 1
		util := map[string]float64{}
		redu := map[string]float64{}
		var current string
		for _, row := range tb.Rows {
			if row[0] != "" {
				current = row[0]
			}
			switch row[1] {
			case "Utili":
				util[current] = parseCell(t, row[avgIdx])
			case "Redu":
				redu[current] = parseCell(t, row[avgIdx])
			}
		}
		if !(redu["LW"] <= redu["PICO"] && redu["PICO"] < redu["OFL"] && redu["OFL"] < redu["EFL"]) {
			t.Fatalf("%s redundancy ordering broken: %v", tb.ID, redu)
		}
		for _, scheme := range []string{"LW", "EFL", "OFL"} {
			if util["PICO"] < util[scheme] {
				t.Fatalf("%s: PICO utilization %.2f below %s %.2f", tb.ID, util["PICO"], scheme, util[scheme])
			}
		}
	}
}

func TestTable2Shape(t *testing.T) {
	tables := runOne(t, "table2")
	tb := tables[0]
	// PICO must stay under a second everywhere; BFS cost must grow by at
	// least 10x from the smallest to the largest configuration (or time
	// out, which also proves growth).
	var firstBFS, lastBFS float64
	timedOut := false
	for i, row := range tb.Rows {
		picoCost, err := time.ParseDuration(row[1])
		if err != nil {
			t.Fatalf("bad PICO cost %q", row[1])
		}
		if picoCost > time.Second {
			t.Fatalf("PICO planning took %v at %s", picoCost, row[0])
		}
		if strings.HasPrefix(row[2], ">") {
			timedOut = true
			continue
		}
		bfs, err := time.ParseDuration(row[2])
		if err != nil {
			t.Fatalf("bad BFS cost %q", row[2])
		}
		if i == 0 {
			firstBFS = bfs.Seconds()
		}
		lastBFS = bfs.Seconds()
	}
	if !timedOut && lastBFS < 10*firstBFS {
		t.Fatalf("BFS cost grew only %.1fx", lastBFS/firstBFS)
	}
}

func TestFig13Shape(t *testing.T) {
	tables := runOne(t, "fig13")
	tb := tables[0]
	// Last row is the period comparison: PICO within 25% of the optimum.
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "period(s)" {
		t.Fatalf("unexpected last row %v", last)
	}
	pico := parseCell(t, last[1])
	bfs := parseCell(t, last[2])
	if pico < bfs-1e-9 {
		t.Fatalf("PICO period %.4f beats the optimum %.4f", pico, bfs)
	}
	if pico > bfs*1.25 {
		t.Fatalf("PICO period %.4f too far above optimum %.4f", pico, bfs)
	}
}

func TestBandwidthShape(t *testing.T) {
	tables := runOne(t, "bandwidth")
	period := tables[0]
	// Every scheme must speed up monotonically with bandwidth, and PICO
	// must win at every bandwidth.
	for col := 1; col <= 4; col++ {
		prev := -1.0
		for _, row := range period.Rows {
			v := parseCell(t, row[col])
			if prev > 0 && v > prev*1.001 {
				t.Fatalf("column %d not improving with bandwidth: %v", col, period.Rows)
			}
			prev = v
		}
	}
	for _, row := range period.Rows {
		pico := parseCell(t, row[4])
		for _, cell := range row[1:4] {
			if parseCell(t, cell) < pico-1e-9 {
				t.Fatalf("PICO beaten at %s: %v", row[0], row)
			}
		}
	}
	// Gains must all exceed 1x.
	for _, row := range tables[1].Rows {
		if parseCell(t, row[1]) < 1 {
			t.Fatalf("PICO gain below 1x at %s", row[0])
		}
	}
}

func TestAblationGreedyShape(t *testing.T) {
	tables := runOne(t, "ablation-greedy")
	for _, row := range tables[0].Rows {
		if parseCell(t, row[3]) < 0.99 {
			t.Fatalf("greedy adaptation lost on %s: %v", row[0], row)
		}
	}
}

func TestAblationStripsShape(t *testing.T) {
	tables := runOne(t, "ablation-strips")
	for _, row := range tables[0].Rows {
		if parseCell(t, row[3]) < 1 {
			t.Fatalf("balanced strips lost on %s: %v", row[0], row)
		}
	}
}

func TestAblationTlimShape(t *testing.T) {
	tables := runOne(t, "ablation-tlim")
	// Periods must be non-decreasing as the bound tightens, until
	// infeasible.
	prev := 0.0
	for _, row := range tables[0].Rows {
		if row[1] == "infeasible" {
			continue
		}
		v := parseCell(t, row[1])
		if v < prev-1e-9 {
			t.Fatalf("period fell as bound tightened: %v", tables[0].Rows)
		}
		prev = v
	}
}

func TestAblationEWMAShape(t *testing.T) {
	tables := runOne(t, "ablation-ewma")
	rows := tables[0].Rows
	// The largest beta must react at least as well as the smallest on the
	// light->heavy jump.
	slow := parseCell(t, rows[0][1])
	fast := parseCell(t, rows[len(rows)-1][1])
	if fast > slow*1.05 {
		t.Fatalf("beta=1 latency %.2f worse than beta=0.1 %.2f", fast, slow)
	}
}

func TestAblationRFModeShape(t *testing.T) {
	tables := runOne(t, "ablation-rfmode")
	for _, row := range tables[0].Rows {
		over := parseCell(t, row[3])
		if over <= 0 || over > 30 {
			t.Fatalf("%s: paperRF overshoot %.2f%% out of (0,30]", row[0], over)
		}
	}
}

func TestFullConfigSaneDefaults(t *testing.T) {
	full := Full()
	if full.SimSeconds != 600 || len(full.Seeds) != 3 {
		t.Fatalf("Full config drifted from the paper: %+v", full)
	}
	quick := Quick()
	if quick.SimSeconds >= full.SimSeconds || quick.ClosedLoopTasks >= full.ClosedLoopTasks {
		t.Fatal("Quick config not smaller than Full")
	}
}

func TestAblationGridShape(t *testing.T) {
	tables := runOne(t, "ablation-grid")
	rows := tables[0].Rows
	// Rows come in (strips, grid) pairs per tile count; at 16 tiles the
	// grid must beat strips on total work, redundancy and footprint.
	last := len(rows) - 1
	strips, grid := rows[last-1], rows[last]
	if parseCell(t, grid[2]) >= parseCell(t, strips[2]) {
		t.Fatalf("16-tile grid total %s >= strips %s", grid[2], strips[2])
	}
	if parseCell(t, grid[3]) >= parseCell(t, strips[3]) {
		t.Fatalf("16-tile grid redundancy %s >= strips %s", grid[3], strips[3])
	}
	if parseCell(t, grid[5]) > parseCell(t, strips[5]) {
		t.Fatalf("16-tile grid footprint %s > strips %s", grid[5], strips[5])
	}
}

func TestExtMobileNetShape(t *testing.T) {
	tables := runOne(t, "ext-mobilenet")
	rows := tables[0].Rows
	last := rows[len(rows)-1] // largest cluster
	vgg := parseCell(t, last[1])
	mobile := parseCell(t, last[3])
	// The extension's finding: the depthwise model gains far less.
	if mobile >= vgg {
		t.Fatalf("mobilenet speedup %.2f >= vgg16 %.2f", mobile, vgg)
	}
	if mobile < 1.2 {
		t.Fatalf("mobilenet speedup %.2f — cooperation should still help some", mobile)
	}
}

// TestGoldenGeometryExperiments pins the fully deterministic experiments
// (pure layer-geometry analytics) against golden files. Regenerate after an
// intentional change with:
//
//	go test ./internal/experiments -run TestGoldenGeometryExperiments -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestGoldenGeometryExperiments(t *testing.T) {
	for _, id := range []string{"fig2", "fig4"} {
		tables := runOne(t, id)
		var b strings.Builder
		for _, tb := range tables {
			b.WriteString(tb.Render())
			b.WriteByte('\n')
		}
		path := filepath.Join("testdata", id+".golden")
		if *updateGolden {
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if b.String() != string(want) {
			t.Fatalf("%s output drifted from golden file (run with -update after intentional changes)", id)
		}
	}
}

func TestAblationOverlapShape(t *testing.T) {
	tables := runOne(t, "ablation-overlap")
	for _, row := range tables[0].Rows {
		periodSum := parseCell(t, row[1])
		periodMax := parseCell(t, row[2])
		utilSum := parseCell(t, row[3])
		utilMax := parseCell(t, row[4])
		if periodMax > periodSum+1e-9 {
			t.Fatalf("%s: overlapped period %.3f above serialized %.3f", row[0], periodMax, periodSum)
		}
		if utilMax <= utilSum {
			t.Fatalf("%s: overlapped utilization %.1f%% not above serialized %.1f%%", row[0], utilMax, utilSum)
		}
		// The overlapped mode must land in the paper's Table-I ballpark.
		if utilMax < 70 {
			t.Fatalf("%s: overlapped utilization %.1f%% below the paper's band", row[0], utilMax)
		}
	}
}
