package tensor

import (
	"runtime"
	"sync"
)

// This file implements parallel kernel execution. Kernels split their output
// space into contiguous chunks and fan the chunks out over goroutines each
// call starts and joins before it returns: nothing outlives the call, and no
// state is shared between Executors. Each chunk writes a disjoint region of
// the output tensor and computes every element with the same per-element
// accumulation order as the serial loop, so results are bit-identical
// regardless of the worker count.

// defaultParallelism is the worker-count cap an Executor uses when no
// explicit parallelism is configured.
func defaultParallelism() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// pooled returns p's next *T, or a new one when p is empty. Kernels keep
// their per-call state and per-chunk scratch in such pools — a call struct
// with its method value bound once hands parallelForGrain a function without
// allocating a closure — so a warm serial call allocates nothing.
func pooled[T any](p *sync.Pool) *T {
	if v, ok := p.Get().(*T); ok {
		return v
	}
	return new(T)
}

// minChunkMACs is the floor on per-chunk arithmetic for the kernels: below
// roughly this many multiply-accumulates a goroutine hand-off costs more than
// the chunk computes, so kernels lower their worker count instead.
const minChunkMACs = 16 << 10

// grainFor converts a per-work-item MAC estimate into a parallelForGrain
// grain (the minimum items per chunk).
func grainFor(itemMACs int) int {
	if itemMACs <= 0 {
		return 1
	}
	g := minChunkMACs / itemMACs
	if g < 1 {
		g = 1
	}
	return g
}

// parallelForGrain runs fn over [0, n) split into at most `workers`
// contiguous chunks of at least `grain` items: the worker count is lowered
// until every chunk holds that many, so tiny ranges (a 1x1 conv over an 8x8
// map, the tail layers of a deep net) run serially — or on few workers —
// instead of paying per-chunk dispatch overhead that exceeds the work itself.
// The chunks run on P = min(chunks, GOMAXPROCS) goroutines: the caller and
// P-1 it starts, each taking every P-th chunk, all joined before the call
// returns — so a large `workers` on a small host starts no more goroutines
// than there are cores. workers <= 1 (or n <= grain) is exactly the serial
// loop. Chunking never changes which elements a chunk computes — only how
// many chunks there are and which goroutine runs them — so results stay
// bit-identical at every (workers, grain) combination and every GOMAXPROCS.
func parallelForGrain(n, workers, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain > 1 {
		if maxW := n / grain; workers > maxW {
			workers = maxW
		}
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	procs := min((n+chunk-1)/chunk, runtime.GOMAXPROCS(0))
	stride := func(first int) {
		for lo := first * chunk; lo < n; lo += procs * chunk {
			fn(lo, min(lo+chunk, n))
		}
	}
	var wg sync.WaitGroup
	wg.Add(procs - 1)
	for g := 1; g < procs; g++ {
		go func() {
			defer wg.Done()
			stride(g)
		}()
	}
	stride(0)
	wg.Wait()
}
