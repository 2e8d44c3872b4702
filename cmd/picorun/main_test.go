package main

import (
	"bytes"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pico/internal/runtime"
)

// startWorkers launches in-process workers and returns their addresses.
func startWorkers(t *testing.T, n int) string {
	t.Helper()
	lc, err := runtime.StartLocalCluster(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lc.Close() })
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addrs[i] = lc.Addrs[i]
	}
	return strings.Join(addrs, ",")
}

func TestEndToEndVerified(t *testing.T) {
	workers := startWorkers(t, 2)
	var out, errBuf bytes.Buffer
	rc := run([]string{"-workers", workers, "-model", "toy", "-tasks", "3"}, &out, &errBuf)
	if rc != 0 {
		t.Fatalf("rc = %d, stderr: %s", rc, errBuf.String())
	}
	if !strings.Contains(out.String(), "all outputs verified against local reference") {
		t.Fatalf("missing verification line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "completed 3 tasks") {
		t.Fatalf("missing completion line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "compute by kind:") || !strings.Contains(out.String(), "conv") {
		t.Fatalf("missing per-kind compute attribution:\n%s", out.String())
	}
}

func TestSaveThenLoadPlan(t *testing.T) {
	workers := startWorkers(t, 2)
	planPath := filepath.Join(t.TempDir(), "p.json")
	var out, errBuf bytes.Buffer
	if rc := run([]string{"-workers", workers, "-model", "toy", "-tasks", "1", "-saveplan", planPath}, &out, &errBuf); rc != 0 {
		t.Fatalf("save: rc = %d, stderr: %s", rc, errBuf.String())
	}
	out.Reset()
	errBuf.Reset()
	if rc := run([]string{"-workers", workers, "-loadplan", planPath, "-tasks", "2"}, &out, &errBuf); rc != 0 {
		t.Fatalf("load: rc = %d, stderr: %s", rc, errBuf.String())
	}
	if !strings.Contains(out.String(), "completed 2 tasks") {
		t.Fatalf("loaded-plan run incomplete:\n%s", out.String())
	}
}

func TestSpeedsFlag(t *testing.T) {
	workers := startWorkers(t, 2)
	var out, errBuf bytes.Buffer
	speeds := strconv.FormatFloat(2.4e9, 'g', -1, 64) + "," + strconv.FormatFloat(1.2e9, 'g', -1, 64)
	if rc := run([]string{"-workers", workers, "-model", "toy", "-tasks", "1", "-speeds", speeds}, &out, &errBuf); rc != 0 {
		t.Fatalf("rc = %d, stderr: %s", rc, errBuf.String())
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},                                  // missing workers
		{"-workers", "x", "-model", "nope"}, // bad model
		{"-workers", "127.0.0.1:1", "-model", "toy", "-tasks", "1"},      // unreachable
		{"-workers", "a,b", "-model", "toy", "-speeds", "1"},             // speeds count
		{"-workers", "a,b", "-model", "toy", "-speeds", "bad,worse"},     // speeds parse
		{"-workers", "127.0.0.1:1", "-loadplan", "/does/not/exist.json"}, // plan file
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if rc := run(args, &out, &errBuf); rc == 0 {
			t.Fatalf("args %v accepted", args)
		}
	}
	// A batch of no tasks would wait forever for a result, and a negative
	// one cannot be allocated: both are usage errors, refused before any
	// worker is dialled.
	for _, n := range []string{"0", "-1"} {
		var out, errBuf bytes.Buffer
		if rc := run([]string{"-workers", "127.0.0.1:1", "-tasks", n}, &out, &errBuf); rc != 2 {
			t.Fatalf("-tasks %s: exit %d, want 2 (stderr %q)", n, rc, errBuf.String())
		}
	}
	// So is a speed the planner cannot price: NaN or infinite.
	for _, s := range []string{"NaN,1e9", "1e9,+Inf", "-Inf,1e9"} {
		var out, errBuf bytes.Buffer
		if rc := run([]string{"-workers", "127.0.0.1:1,127.0.0.1:2", "-model", "toy", "-speeds", s}, &out, &errBuf); rc != 2 {
			t.Fatalf("-speeds %s: exit %d, want 2 (stderr %q)", s, rc, errBuf.String())
		}
	}
}
