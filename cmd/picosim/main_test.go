package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestClosedLoopRun(t *testing.T) {
	var out, errBuf bytes.Buffer
	rc := run([]string{"-model", "fig13toy", "-devices", "4", "-scheme", "pico", "-tasks", "20"}, &out, &errBuf)
	if rc != 0 {
		t.Fatalf("rc = %d, stderr: %s", rc, errBuf.String())
	}
	for _, want := range []string{"model=fig13-toy", "scheme=pico", "throughput=", "util="} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q:\n%s", want, out.String())
		}
	}
}

func TestOpenLoopAPICO(t *testing.T) {
	var out, errBuf bytes.Buffer
	rc := run([]string{"-model", "fig13toy", "-devices", "4", "-scheme", "apico",
		"-workload", "0.8", "-duration", "60"}, &out, &errBuf)
	if rc != 0 {
		t.Fatalf("rc = %d, stderr: %s", rc, errBuf.String())
	}
	if !strings.Contains(out.String(), "latency: mean=") {
		t.Fatalf("missing latency line:\n%s", out.String())
	}
}

func TestEveryScheme(t *testing.T) {
	for _, model := range []string{"fig13toy", "toy"} {
		for _, scheme := range []string{"lw", "mednn", "efl", "efl-grid", "ofl", "fused", "pico"} {
			var out, errBuf bytes.Buffer
			rc := run([]string{"-model", model, "-devices", "2", "-scheme", scheme, "-tasks", "5"}, &out, &errBuf)
			if rc != 0 {
				t.Fatalf("%s %s: rc = %d, stderr: %s", model, scheme, rc, errBuf.String())
			}
		}
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{"-model", "nope"},
		{"-cluster", "nope"},
		{"-scheme", "nope"},
		{"-scheme", "apico"}, // apico needs a workload
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if rc := run(args, &out, &errBuf); rc == 0 {
			t.Fatalf("args %v accepted", args)
		}
	}
}
