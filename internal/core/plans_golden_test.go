package core_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/schemes"
)

var update = flag.Bool("update", false, "rewrite testdata/plans.golden from the plans this tree builds")

// benchCluster is the planner profile bench/workloads.go hands a workload.
func benchCluster(bps float64, speeds ...float64) *cluster.Cluster {
	c := &cluster.Cluster{BandwidthBps: bps}
	for i, s := range speeds {
		c.Devices = append(c.Devices, cluster.Device{ID: fmt.Sprintf("w-%d", i), Capacity: s, Alpha: 1})
	}
	return c
}

// goldenModels and goldenClusters are what testdata/plans.golden plans.
func goldenModels() []*nn.Model {
	return []*nn.Model{
		nn.VGG16(), nn.YOLOv2(), nn.ResNet34(), nn.InceptionV3(), nn.MobileNetV1(),
		nn.Fig13Toy(), nn.ToyChain("toy", 8, 3, 16, 64),
	}
}

type namedCluster struct {
	name string
	c    *cluster.Cluster
}

func goldenClusters() []namedCluster {
	return []namedCluster{
		{"hom8x600", cluster.Homogeneous(8, 600e6)},
		{"paper-hetero", cluster.PaperHeterogeneous()},
		{"bench3x4e10", benchCluster(1e10, 4e10, 4e10, 4e10)},
		{"bench-hetero4", benchCluster(1e9, 8e8, 6e8, 4e8, 2e8)},
	}
}

// TestPlansUnchanged is "the planner did not move" as a test: every plan of
// every planner and scheme, on the paper's clusters and the benchmark's, in
// both precisions, must serialize to the bytes and price to the period and
// latency bit patterns recorded in testdata/plans.golden. The file is
// written with -update at the commit a geometry or cost-model refactor
// starts from and only read afterwards.
func TestPlansUnchanged(t *testing.T) {
	var got strings.Builder
	for _, m := range goldenModels() {
		for _, cl := range goldenClusters() {
			for _, quant := range []bool{false, true} {
				for _, scheme := range []string{"pico", "lw", "efl", "efl-grid", "ofl", "fused"} {
					prec := "f32"
					if quant {
						prec = "int8"
					}
					fmt.Fprintf(&got, "%s %s %s %s ", m.Name, cl.name, prec, scheme)
					plan, err := schemes.Plan(scheme, m, cl.c, core.Options{Quantized: quant})
					if err != nil {
						fmt.Fprintf(&got, "error: %v\n", err)
						continue
					}
					var buf bytes.Buffer
					if err := core.SavePlan(&buf, plan); err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&got, "%x %016x %016x\n", sha256.Sum256(buf.Bytes()),
						math.Float64bits(plan.PeriodSeconds), math.Float64bits(plan.LatencySeconds))
				}
			}
		}
	}
	const path = "testdata/plans.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d plans, golden holds %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("plan moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
