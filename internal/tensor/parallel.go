package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ElemGrain is the ParallelFor grain, in elements, of the elementwise stages
// of a training step (ReLU, the residual add, the MADE gradient mask,
// AddRowVector, the bias gradient, Adam): 64 KB of float32 per worker. On a 2-vCPU host a ReLU over
// 16K elements takes ~19 µs on one core, where a fork and join costs 0.2–0.5
// µs with the workers awake and ~3 µs after they have parked
// (BenchmarkParallelForPhase), so batch-wide activations split across cores
// while MPSN-sized matrices and single rows stay inline. Chunks are disjoint
// and each element's own arithmetic is unchanged, so the split never changes
// a bit.
const ElemGrain = 1 << 14

// RowGrain is ElemGrain in rows of the given width: the ParallelFor grain of
// a stage that splits a matrix by rows (or, transposed, by columns).
func RowGrain(width int) int { return 1 + ElemGrain/(width+1) }

// spinWindow is how long a worker stays runnable after its last chunk before
// it parks. Waking a parked worker costs a futex wake and then the wait for
// the other processor to come back: on a 2-vCPU host a woken worker started
// its chunk 60–140 µs after the fork, an awake one within 1 µs. A census
// training step's forks are a few µs apart at the median, 240 µs at p90 and
// 1.06 ms at p99, so a window of about ten wakes keeps the worker awake
// across nearly every gap of a step: census training took a median 638 ms
// with it, against 701–713 ms with windows of 50–300 µs and 634 ms with 3
// ms (24 runs each). A worker that finds no fork in the window has given up
// a bounded amount of processor time, a yield at a time. spinCheck is how
// many yields pass between two reads of the clock: reading it on every yield
// cost 3% of a training run's CPU.
const (
	spinWindow = time.Millisecond
	spinCheck  = 64
)

// Workers is a fixed set of goroutines that runs the parallel stages of a
// pass (ParallelFor, and the kernels built on it). Its width counts the
// caller: a set of width w forks onto w−1 goroutines of its own and runs one
// chunk of every fork on the calling goroutine. A set of width 1 starts no
// goroutine and runs everything inline.
//
// Between forks a worker yields for spinWindow, then parks, so the phases
// of one training step reach the other cores without waking them, and an
// idle set costs nothing. A set is safe for concurrent use: one fork at a
// time has the workers, and a fork that finds them busy — a second caller's,
// or one made from inside a chunk — runs its whole range inline on its own
// caller, which never waits on the set.
type Workers struct {
	width int

	busy   atomic.Bool   // a fork holds the job below
	claim  atomic.Uint64 // chunks<<32 | the next chunk to hand out
	left   atomic.Int32  // chunks not yet finished, | callerParked once the caller parks
	joined chan struct{} // wakes the parked caller when the last chunk finishes

	// The job: written by the fork that holds busy before it publishes claim,
	// read by whoever claims one of its chunks.
	fn       func(lo, hi int)
	n, chunk int
	panicMu  sync.Mutex
	panicked any

	sleepers []sleeper
	closed   atomic.Bool
	exited   sync.WaitGroup
}

// callerParked is the bit of Workers.left that the forking caller sets when
// it parks. The finisher whose decrement leaves exactly this bit wakes it:
// one atomic operation both ends the job and reads the flag, so a finisher
// cannot see a flag that belongs to a later job.
const callerParked = 1 << 30

// sleeper is one worker goroutine's parking state.
type sleeper struct {
	parked atomic.Bool
	wake   chan struct{}
}

// NewWorkers returns a set of the given width (values below 1 mean 1) and
// starts its width−1 goroutines, parked until the first fork.
func NewWorkers(width int) *Workers {
	w := &Workers{width: max(width, 1), joined: make(chan struct{}, 1)}
	w.sleepers = make([]sleeper, w.width-1)
	for i := range w.sleepers {
		s := &w.sleepers[i]
		s.wake = make(chan struct{}, 1)
		s.parked.Store(true)
		w.exited.Add(1)
		go w.work(s)
	}
	return w
}

var defaultWorkers = sync.OnceValue(newDefault)

func newDefault() *Workers { return NewWorkers(runtime.GOMAXPROCS(0)) }

// Default returns the process's shared set, as wide as GOMAXPROCS was when it
// was first asked for, so a process held to one processor never forks. It
// serves callers that are handed no set of their own.
func Default() *Workers { return defaultWorkers() }

// Close stops the set's goroutines and returns once they have exited, each
// after the chunk it is running. The set stays usable: every later fork runs
// all of its chunks on its caller.
func (w *Workers) Close() {
	if w.closed.Swap(true) {
		return
	}
	for i := range w.sleepers {
		w.unpark(&w.sleepers[i])
	}
	w.exited.Wait()
}

// ParallelFor splits [0, n) into contiguous chunks of at least grain items,
// at most as many as the set is wide, and runs fn(lo, hi) on each, the
// caller's chunk among them, possibly concurrently. fn must be safe to call concurrently on disjoint
// ranges. It runs fn(0, n) inline when the range is small, the set is one
// wide, or the set is busy with another fork, keeping results deterministic
// either way (chunks are disjoint).
//
// A panic in fn reaches ParallelFor's caller either way: inline it simply
// unwinds; otherwise, where it could end the process with no frame of the
// caller's to recover in, it is recovered, every other chunk runs to
// completion, and the first panic value is raised again on the calling
// goroutine.
func (w *Workers) ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := min(w.width, n/max(grain, 1))
	if workers <= 1 || !w.busy.CompareAndSwap(false, true) {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	chunks := (n + chunk - 1) / chunk
	w.fn, w.n, w.chunk = fn, n, chunk
	w.left.Store(int32(chunks))
	w.claim.Store(uint64(chunks) << 32)
	for i := range w.sleepers {
		if i >= chunks-1 {
			break
		}
		w.unpark(&w.sleepers[i])
	}
	w.runChunks()
	w.join()
	p := w.panicked
	w.fn, w.panicked = nil, nil
	w.busy.Store(false)
	if p != nil {
		panic(p)
	}
}

// pending reports whether the job in the slot has a chunk nobody has claimed.
func (w *Workers) pending() bool {
	v := w.claim.Load()
	return uint32(v) < uint32(v>>32)
}

// runChunks claims and runs chunks of the current job until none are left.
func (w *Workers) runChunks() {
	for {
		v := w.claim.Add(1)
		i := int(uint32(v)) - 1
		if i >= int(uint32(v>>32)) {
			return
		}
		lo := i * w.chunk
		w.run(lo, min(lo+w.chunk, w.n))
		if w.left.Add(-1) == callerParked {
			w.joined <- struct{}{}
		}
	}
}

// run calls the job's fn on one chunk, keeping the first panic for the
// forking caller to raise.
func (w *Workers) run(lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			w.panicMu.Lock()
			if w.panicked == nil {
				w.panicked = r
			}
			w.panicMu.Unlock()
		}
	}()
	w.fn(lo, hi)
}

// join waits until every chunk of the caller's job has finished: yielding
// while the chunks still running are about as short as its own was, then
// parked until the last one's finisher wakes it.
func (w *Workers) join() {
	if yieldUntil(func() bool { return w.left.Load() == 0 }) {
		return
	}
	for left := w.left.Load(); left != 0; left = w.left.Load() {
		if w.left.CompareAndSwap(left, left|callerParked) {
			<-w.joined
			return
		}
	}
}

// work is one worker goroutine: parked until a fork wakes it, then running
// chunks, and between jobs yielding for spinWindow before it parks again.
func (w *Workers) work(s *sleeper) {
	defer w.exited.Done()
	<-s.wake
	for !w.closed.Load() {
		w.runChunks()
		if !yieldUntil(func() bool { return w.pending() || w.closed.Load() }) {
			w.park(s)
		}
	}
}

// yieldUntil yields the processor until ready reports true or spinWindow
// passes, reading the clock every spinCheck yields, and reports whether
// ready did.
func yieldUntil(ready func() bool) bool {
	var since time.Time
	for spins := 1; !ready(); spins++ {
		if spins%spinCheck == 0 {
			if since.IsZero() {
				since = time.Now()
			} else if time.Since(since) > spinWindow {
				return false
			}
		}
		runtime.Gosched()
	}
	return true
}

// park blocks the worker until a fork or Close wakes it, unless a job
// arrived while it announced itself parked.
func (w *Workers) park(s *sleeper) {
	s.parked.Store(true)
	if (w.pending() || w.closed.Load()) && s.parked.CompareAndSwap(true, false) {
		return
	}
	<-s.wake
}

// unpark wakes a parked worker; an awake one finds the job by itself.
func (w *Workers) unpark(s *sleeper) {
	if s.parked.CompareAndSwap(true, false) {
		s.wake <- struct{}{}
	}
}
