package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pico/internal/core"
)

func TestPlanAndSave(t *testing.T) {
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")
	var out, errBuf bytes.Buffer
	rc := run([]string{"-model", "fig13toy", "-devices", "4", "-out", planPath}, &out, &errBuf)
	if rc != 0 {
		t.Fatalf("rc = %d, stderr: %s", rc, errBuf.String())
	}
	for _, want := range []string{"pipeline for fig13-toy", "throughput:", "plan saved to"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q:\n%s", want, out.String())
		}
	}
	f, err := os.Open(planPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plan, err := core.LoadPlan(f)
	if err != nil {
		t.Fatalf("saved plan unreadable: %v", err)
	}
	if plan.Model.Name != "fig13-toy" || plan.Cluster.Size() != 4 {
		t.Fatalf("saved plan content wrong: %s on %d devices", plan.Model.Name, plan.Cluster.Size())
	}
}

func TestLatencyBound(t *testing.T) {
	var out, errBuf bytes.Buffer
	// An absurd bound must fail cleanly.
	if rc := run([]string{"-model", "fig13toy", "-devices", "4", "-tlim", "1e-9"}, &out, &errBuf); rc == 0 {
		t.Fatal("impossible latency bound accepted")
	}
	if !strings.Contains(errBuf.String(), "latency limit") {
		t.Fatalf("stderr: %s", errBuf.String())
	}
}

func TestPaperCluster(t *testing.T) {
	for _, model := range []string{"mobilenetv1", "toy"} {
		var out, errBuf bytes.Buffer
		if rc := run([]string{"-model", model, "-cluster", "paper", "-compare=false"}, &out, &errBuf); rc != 0 {
			t.Fatalf("%s: rc = %d, stderr: %s", model, rc, errBuf.String())
		}
		if strings.Contains(out.String(), "throughput:") {
			t.Fatalf("%s: -compare=false still printed the comparison", model)
		}
	}
}

func TestErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-model", "nope"},
		{"-cluster", "nope"},
		{"-bad-flag"},
	} {
		var out, errBuf bytes.Buffer
		if rc := run(args, &out, &errBuf); rc == 0 {
			t.Fatalf("args %v accepted", args)
		}
	}
}
