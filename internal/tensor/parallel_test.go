package tensor

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pico/internal/nn"
	"pico/internal/partition"
)

// mustExecPar builds an executor with an explicit kernel parallelism.
func mustExecPar(t *testing.T, m *nn.Model, par int) *Executor {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(m, 99, WithParallelism(par))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// workerCounts exercises serial, the container's core count, and
// oversubscribed settings; bit-identity must hold at every one.
var workerCounts = []int{1, 2, 3, 4, 8}

func TestParallelBitIdenticalChain(t *testing.T) {
	m := nn.ToyChain("par", 6, 2, 8, 33) // odd spatial extent
	serial := mustExecPar(t, m, 1)
	in := RandomInput(m.Input, 7)
	want, err := serial.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range workerCounts[1:] {
		e := mustExecPar(t, m, par)
		got, err := e.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(want, got) {
			t.Fatalf("parallelism %d differs from serial by %g", par, MaxAbsDiff(want, got))
		}
	}
}

func TestParallelBitIdenticalStrips(t *testing.T) {
	m := nn.ToyChain("parstrip", 6, 2, 8, 33)
	serial := mustExecPar(t, m, 1)
	in := RandomInput(m.Input, 11)
	outH := m.Output().H
	for _, strips := range []int{2, 3, 5} {
		parts := partition.Equal(outH, strips)
		want := runPartitioned(t, serial, 0, m.NumLayers(), in, parts)
		for _, par := range workerCounts[1:] {
			e := mustExecPar(t, m, par)
			got := runPartitioned(t, e, 0, m.NumLayers(), in, parts)
			if !Equal(want, got) {
				t.Fatalf("parallelism %d, %d strips: max diff %g", par, strips, MaxAbsDiff(want, got))
			}
		}
	}
}

func TestParallelBitIdenticalGrid(t *testing.T) {
	m := nn.ToyChain("pargrid", 5, 2, 8, 31)
	serial := mustExecPar(t, m, 1)
	in := RandomInput(m.Input, 13)
	out := m.Output()
	for _, grid := range [][2]int{{2, 2}, {3, 2}, {1, 4}} {
		tiles := partition.GridPartition(out.H, out.W, grid[0], grid[1])
		want := runGridPartitioned(t, serial, 0, m.NumLayers(), in, tiles)
		for _, par := range workerCounts[1:] {
			e := mustExecPar(t, m, par)
			got := runGridPartitioned(t, e, 0, m.NumLayers(), in, tiles)
			if !Equal(want, got) {
				t.Fatalf("parallelism %d, %dx%d grid: max diff %g", par, grid[0], grid[1], MaxAbsDiff(want, got))
			}
		}
	}
}

// TestParallelBitIdenticalBlocks covers the graph path: stride-2 residual
// blocks and inception-style concat blocks.
func TestParallelBitIdenticalBlocks(t *testing.T) {
	m := nn.TinyGraph()
	serial := mustExecPar(t, m, 1)
	in := RandomInput(m.Input, 17)
	want, err := serial.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range workerCounts[1:] {
		e := mustExecPar(t, m, par)
		got, err := e.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(want, got) {
			t.Fatalf("parallelism %d differs on graph model by %g", par, MaxAbsDiff(want, got))
		}
	}
}

// TestConcurrentSegments hammers one cold executor from many goroutines so
// the weight-cache fast path and per-key generation race under -race.
func TestConcurrentSegments(t *testing.T) {
	m := nn.ToyChain("conc", 6, 2, 8, 32)
	serial := mustExecPar(t, m, 1)
	in := RandomInput(m.Input, 23)
	want, err := serial.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	e := mustExecPar(t, m, 2) // cold cache: first runs generate weights concurrently
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				got, err := e.Run(in)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !Equal(want, got) {
					errs <- "concurrent run differs from serial reference"
					return
				}
				Recycle(got)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestArenaReuseKeepsResultsIdentical recycles a run's output and re-runs:
// the second run draws the same slab from the arena and must still produce
// identical values (kernels fully overwrite dirty buffers).
func TestArenaReuseKeepsResultsIdentical(t *testing.T) {
	m := nn.ToyChain("arena", 4, 2, 8, 32)
	e := mustExecPar(t, m, 2)
	in := RandomInput(m.Input, 29)
	first, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float32(nil), first.Data...)
	Recycle(first)
	second, err := e.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Data) != len(want) {
		t.Fatalf("second run extent changed: %d vs %d", len(second.Data), len(want))
	}
	for i := range want {
		if second.Data[i] != want[i] {
			t.Fatalf("value drift at %d after arena reuse: %g vs %g", i, second.Data[i], want[i])
		}
	}
}

// TestConcatChannelsNoAliasing is the regression test for the Concat bug:
// appending path B into path A's spare backing capacity corrupted A's data
// whenever the arena handed out a slab larger than A. concatChannels must
// copy into a fresh buffer.
func TestConcatChannelsNoAliasing(t *testing.T) {
	backing := make([]float32, 8, 16) // spare capacity, like an arena slab
	for i := range backing {
		backing[i] = float32(i + 1)
	}
	a := Tensor{C: 2, H: 2, W: 2, Data: backing}
	b := Tensor{C: 1, H: 2, W: 2, Data: []float32{9, 9, 9, 9}}
	want := append(append([]float32(nil), a.Data...), b.Data...)
	merged := concatChannels(a, b)
	// Scribble over the spare capacity — the old append-based concat put
	// b's channels exactly there.
	spare := backing[:cap(backing)]
	for i := len(backing); i < cap(backing); i++ {
		spare[i] = -1
	}
	if merged.C != 3 || merged.H != 2 || merged.W != 2 {
		t.Fatalf("merged extent %dx%dx%d", merged.C, merged.H, merged.W)
	}
	for i, v := range want {
		if merged.Data[i] != v {
			t.Fatalf("merged[%d] = %g, want %g (aliased backing?)", i, merged.Data[i], v)
		}
	}
}

// TestParallelForCoversRange checks the chunking helper hits every index
// exactly once for awkward worker/size combinations.
func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 65} {
		for _, workers := range []int{1, 2, 3, 8, 100} {
			counts := make([]int32, n)
			var mu sync.Mutex
			parallelForGrain(n, workers, 1, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				for i := lo; i < hi; i++ {
					counts[i]++
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
}

// TestNoGoroutineOutlivesCall: a kernel's fan-out is joined before the call
// returns, so once par-2 Run, RunQ and QuantScales on MobileNetV1 are back no
// goroutine is left running engine code — nothing a testing/synctest bubble
// would see outlive it, and nothing one executor shares with another.
func TestNoGoroutineOutlivesCall(t *testing.T) {
	m := nn.MobileNetV1()
	in := RandomInput(m.Input, 3)
	e, err := NewExecutor(m, 5, WithParallelism(2), WithQuantized())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(in); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunQ(in); err != nil {
		t.Fatal(err)
	}
	if _, err := QuantScales(m, 5); err != nil {
		t.Fatal(err)
	}
	// A joined goroutine may take a moment to finish exiting after its
	// wg.Done; one that outlives its call never does.
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		left := engineGoroutines()
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived their call, the first:\n%s", len(left), left[0])
		}
	}
}

// engineGoroutines returns the stacks of the goroutines running this
// package's code outside a test function.
func engineGoroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var left []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "pico/internal/tensor.") && !strings.Contains(g, "testing.tRunner") {
			left = append(left, g)
		}
	}
	return left
}
