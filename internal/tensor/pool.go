package tensor

import (
	"runtime"
	"sync"
)

// This file implements the shared compute pool behind parallel kernel
// execution. One process-wide set of worker goroutines, capped at
// GOMAXPROCS, serves every Executor: kernels split their output space into
// contiguous chunks and fan the chunks out over the pool. Each chunk writes
// a disjoint region of the output tensor and computes every element with the
// same per-element accumulation order as the serial loop, so results are
// bit-identical regardless of the worker count.

var (
	poolOnce    sync.Once
	poolTasks   chan func()
	poolWorkers int
)

// defaultParallelism is the worker-count cap an Executor uses when no
// explicit parallelism is configured.
func defaultParallelism() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// ensurePool starts the shared workers on first use. The pool size is fixed
// at the GOMAXPROCS observed then; Executors asking for more parallelism
// than the pool has simply queue chunks (or run them inline).
func ensurePool() {
	poolOnce.Do(func() {
		poolWorkers = defaultParallelism()
		poolTasks = make(chan func())
		for i := 0; i < poolWorkers; i++ {
			go func() {
				for task := range poolTasks {
					task()
				}
			}()
		}
	})
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
// roughly this many multiply-accumulates a pool hand-off costs more than the
// chunk computes, so kernels lower their worker count instead.
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
// The calling goroutine always executes the first chunk itself; remaining
// chunks are offered to the shared pool and executed inline when no pool
// worker is free, so it never blocks waiting for a slot and cannot deadlock.
// workers <= 1 (or n <= grain) is exactly the serial loop. Chunking never
// changes which elements a chunk computes — only how many chunks there are —
// so results stay bit-identical at every (workers, grain) combination.
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
	ensurePool()
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		lo, hi := lo, hi
		task := func() {
			defer wg.Done()
			fn(lo, hi)
		}
		select {
		case poolTasks <- task:
		default:
			task()
		}
	}
	fn(0, chunk)
	wg.Wait()
}
