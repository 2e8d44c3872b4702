package core_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/schemes"
)

// FuzzPlanLoad feeds LoadPlan arbitrary bytes, as an operator's plan file
// may hold: it must never panic, and every plan it accepts must save through
// SavePlan to bytes that load back to the same plan — the same file, period
// and latency. The seeds are the plan files of testdata/plans.golden's
// ToyChain and Fig13Toy lines (each checked against its recorded hash, so
// the corpus starts from files SavePlan really writes), every scheme on
// every cluster in both precisions — the empty input, and the first of them
// with a subnormal device capacity or link bandwidth, which price a stage at
// NaN or Inf seconds, a plan no file can hold.
func FuzzPlanLoad(f *testing.F) {
	seeds := goldenPlanFiles(f, "toy", "fig13toy")
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Add([]byte{})
	for _, field := range []string{"Capacity", "bandwidth_bps"} {
		f.Add(regexp.MustCompile(`"`+field+`": [^,\n]+`).ReplaceAll(seeds[0], []byte(`"`+field+`": 1e-320`)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := core.LoadPlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		var saved bytes.Buffer
		if err := core.SavePlan(&saved, p); err != nil {
			t.Fatalf("LoadPlan accepted a plan SavePlan refuses: %v", err)
		}
		back, err := core.LoadPlan(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("a saved plan does not load: %v\n%s", err, saved.Bytes())
		}
		var again bytes.Buffer
		if err := core.SavePlan(&again, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), again.Bytes()) {
			t.Fatalf("plan moved over save and load:\n%s\nthen\n%s", saved.Bytes(), again.Bytes())
		}
		if math.Float64bits(p.PeriodSeconds) != math.Float64bits(back.PeriodSeconds) ||
			math.Float64bits(p.LatencySeconds) != math.Float64bits(back.LatencySeconds) {
			t.Fatalf("period/latency %v/%v reload as %v/%v", p.PeriodSeconds, p.LatencySeconds, back.PeriodSeconds, back.LatencySeconds)
		}
	})
}

// goldenPlanFiles rebuilds the plans that testdata/plans.golden records for
// the named models and returns their saved files, failing if one no longer
// hashes to its line.
func goldenPlanFiles(tb testing.TB, names ...string) [][]byte {
	tb.Helper()
	models := map[string]*nn.Model{}
	for _, m := range goldenModels() {
		if slices.Contains(names, m.Name) {
			models[m.Name] = m
		}
	}
	clusters := map[string]*cluster.Cluster{}
	for _, cl := range goldenClusters() {
		clusters[cl.name] = cl.c
	}
	file, err := os.Open("testdata/plans.golden")
	if err != nil {
		tb.Fatal(err)
	}
	defer file.Close()
	var out [][]byte
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 7 || models[fields[0]] == nil {
			continue // a configuration that does not plan, or another model
		}
		m := models[fields[0]]
		c := clusters[fields[1]]
		if c == nil {
			tb.Fatalf("plans.golden line %q names an unknown cluster", sc.Text())
		}
		plan, err := schemes.Plan(fields[3], m, c, core.Options{Quantized: fields[2] == "int8"})
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := core.SavePlan(&buf, plan); err != nil {
			tb.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != fields[4] {
			tb.Fatalf("plans.golden line %q: the rebuilt plan hashes to %s", sc.Text(), got)
		}
		out = append(out, buf.Bytes())
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	if len(out) == 0 {
		tb.Fatalf("plans.golden holds no plan of %v", names)
	}
	return out
}
