package tensor

import (
	"runtime"
	"sync"
)

// maxWorkers bounds the number of goroutines used by parallel kernels: the
// processors Go may run at once (GOMAXPROCS), not the host's CPUs, so a
// process held to one processor never forks.
var maxWorkers = runtime.GOMAXPROCS(0)

// SetMaxWorkers overrides the number of goroutines used by parallel kernels.
// n < 1 resets to runtime.GOMAXPROCS(0). Intended for benchmarks that want a
// fixed degree of parallelism.
func SetMaxWorkers(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	maxWorkers = n
}

// ElemGrain is the ParallelFor grain, in elements, of the elementwise stages
// of a training step (ReLU, the MADE gradient mask, AddRowVector, the bias
// gradient, Adam): 64 KB of float32 per worker, a few times what a fork and
// join cost, so batch-wide activations split across cores while MPSN-sized
// matrices and single rows stay inline. Chunks are disjoint and each element's own
// arithmetic is unchanged, so the split never changes a bit.
const ElemGrain = 1 << 14

// RowGrain is ElemGrain in rows of the given width: the ParallelFor grain of
// a stage that splits a matrix by rows (or, transposed, by columns).
func RowGrain(width int) int { return 1 + ElemGrain/(width+1) }

// ParallelFor splits [0, n) into contiguous chunks of at least grain items
// and runs fn(lo, hi) on each chunk, possibly concurrently. fn must be safe
// to call concurrently on disjoint ranges. It runs inline when the range is
// small, keeping results deterministic either way (chunks are disjoint).
//
// A panic in fn reaches ParallelFor's caller either way: inline it simply
// unwinds; on a worker goroutine, where it would otherwise end the process
// with no frame of the caller's to recover in, it is recovered, every other
// worker runs to completion, and the first panic value is raised again on the
// calling goroutine.
func ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers := maxWorkers
	if w := n / grain; w < workers {
		workers = w
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var join struct { // one heap object shared by the workers
		sync.WaitGroup
		sync.Mutex
		panicked any
	}
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		join.Add(1)
		go func(lo, hi int) {
			defer join.Done()
			defer func() {
				if r := recover(); r != nil {
					join.Lock()
					if join.panicked == nil {
						join.panicked = r
					}
					join.Unlock()
				}
			}()
			fn(lo, hi)
		}(lo, hi)
	}
	join.Wait()
	if join.panicked != nil {
		panic(join.panicked)
	}
}
