package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListExperiments(t *testing.T) {
	var out, errBuf bytes.Buffer
	if rc := run([]string{"-list"}, &out, &errBuf); rc != 0 {
		t.Fatalf("rc = %d, stderr: %s", rc, errBuf.String())
	}
	for _, want := range []string{"fig2", "fig8", "table1", "table2", "ablation-grid"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("list missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunSingleExperimentWithOutput(t *testing.T) {
	dir := t.TempDir()
	var out, errBuf bytes.Buffer
	if rc := run([]string{"-exp", "fig2", "-quick", "-out", dir}, &out, &errBuf); rc != 0 {
		t.Fatalf("rc = %d, stderr: %s", rc, errBuf.String())
	}
	if !strings.Contains(out.String(), "fig2-vgg16") {
		t.Fatalf("stdout missing table:\n%s", out.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "conv1_1") {
		t.Fatal("written file missing content")
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	var out, errBuf bytes.Buffer
	if rc := run([]string{"-exp", "nope", "-quick"}, &out, &errBuf); rc == 0 {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(errBuf.String(), "unknown id") {
		t.Fatalf("stderr: %s", errBuf.String())
	}
}

func TestBadFlagFails(t *testing.T) {
	// -kernjson stands for the retired benchmark-JSON flags: measurement
	// lives in bench/ (BENCHMARK.json), not behind picobench.
	for _, args := range [][]string{{"-definitely-not-a-flag"}, {"-kernjson", "x"}} {
		var out, errBuf bytes.Buffer
		if rc := run(args, &out, &errBuf); rc != 2 {
			t.Fatalf("%v: rc = %d, want 2", args, rc)
		}
	}
}
