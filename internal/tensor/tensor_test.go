package tensor

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewAndAccessors(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("Set/At roundtrip failed")
	}
	if m.Row(1)[2] != 5 {
		t.Fatalf("Row does not alias storage")
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong length")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestCloneIndependent(t *testing.T) {
	m := New(2, 2)
	m.Fill(1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("Equal(clone) should hold")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(2, 2, []float32{1, 2, 3, 4})
	b := FromSlice(2, 2, []float32{10, 20, 30, 40})
	a.Add(b)
	if a.At(1, 1) != 44 {
		t.Fatalf("Add: got %v", a.Data)
	}
	a.Scale(2)
	if a.At(0, 0) != 22 {
		t.Fatalf("Scale: got %v", a.Data)
	}
}

func TestAddRowVector(t *testing.T) {
	m := New(3, 2)
	m.AddRowVector(Default(), []float32{1, 2})
	for r := 0; r < 3; r++ {
		if m.At(r, 0) != 1 || m.At(r, 1) != 2 {
			t.Fatalf("row %d wrong: %v", r, m.Row(r))
		}
	}
}

func TestReductions(t *testing.T) {
	m := FromSlice(1, 4, []float32{-3, 1, 2, -1})
	if m.Sum() != -1 {
		t.Fatalf("Sum=%v", m.Sum())
	}
	if m.MaxAbs() != 3 {
		t.Fatalf("MaxAbs=%v", m.MaxAbs())
	}
	if !almostEq(m.L2Norm(), math.Sqrt(9+1+4+1), 1e-9) {
		t.Fatalf("L2Norm=%v", m.L2Norm())
	}
}

// naiveMul is the reference O(n^3) implementation used to validate kernels.
func naiveMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k)) * float64(b.At(k, j))
			}
			out.Set(i, j, float32(s))
		}
	}
	return out
}

func randMat(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	RandUniform(m, 1, rng)
	return m
}

func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 33, 9}, {64, 32, 64}} {
		a := randMat(dims[0], dims[1], rng)
		b := randMat(dims[1], dims[2], rng)
		got := New(dims[0], dims[2])
		Mul(got, a, b)
		want := naiveMul(a, b)
		for i := range got.Data {
			if !almostEq(float64(got.Data[i]), float64(want.Data[i]), 1e-4) {
				t.Fatalf("dims %v: idx %d got %v want %v", dims, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMulBTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(7, 5, rng)
	b := randMat(9, 5, rng) // b^T is 5x9
	got := New(7, 9)
	Default().MulBT(got, a, b)
	bt := New(5, 9)
	for i := 0; i < 9; i++ {
		for j := 0; j < 5; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	want := naiveMul(a, bt)
	for i := range got.Data {
		if !almostEq(float64(got.Data[i]), float64(want.Data[i]), 1e-4) {
			t.Fatalf("idx %d got %v want %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMulATAddAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(6, 4, rng)
	b := randMat(6, 3, rng)
	got := New(4, 3)
	got.Fill(1)
	Default().MulATAdd(got, a, b)
	at := New(4, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := naiveMul(at, b)
	for i := range got.Data {
		if !almostEq(float64(got.Data[i]), float64(want.Data[i])+1, 1e-4) {
			t.Fatalf("idx %d got %v want %v", i, got.Data[i], want.Data[i]+1)
		}
	}
}

func TestParallelForCoversRangeOnce(t *testing.T) {
	for _, width := range []int{1, 2, 3, 8} {
		w := NewWorkers(width)
		for _, n := range []int{0, 1, 7, 100, 1023} {
			seen := make([]int32, n)
			w.ParallelFor(n, 3, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("width %d, n=%d: index %d visited %d times", width, n, i, c)
				}
			}
		}
		w.Close()
	}
}

// TestParallelForRepanicsOnCaller: a panic in a chunk is raised again on the
// goroutine that called ParallelFor, with the chunk's value, and only once
// every other chunk has returned — the caller's deferred cleanup must not
// run beside a worker still writing into its buffers.
func TestParallelForRepanicsOnCaller(t *testing.T) {
	w := NewWorkers(4)
	defer w.Close()
	boom := errors.New("boom")
	panicking := make(chan struct{})
	var finished atomic.Int32
	var atRecover int32
	func() {
		defer func() {
			atRecover = finished.Load()
			if r := recover(); r != boom {
				t.Errorf("recovered %v, want the chunk's panic value", r)
			}
		}()
		w.ParallelFor(4, 1, func(lo, hi int) {
			if lo == 0 {
				close(panicking)
				panic(boom)
			}
			<-panicking
			time.Sleep(10 * time.Millisecond) // widen the window a premature re-panic would land in
			finished.Add(1)
		})
		t.Error("ParallelFor returned normally after a chunk panicked")
	}()
	if atRecover != 3 {
		t.Fatalf("%d of the 3 other chunks had returned when the panic reached the caller", atRecover)
	}
	// The set is free again: a fork after the panic runs every chunk.
	var ran atomic.Int32
	w.ParallelFor(4, 1, func(lo, hi int) { ran.Add(int32(hi - lo)) })
	if ran.Load() != 4 {
		t.Fatalf("a fork after the panic covered %d of 4 items", ran.Load())
	}
	// The inline path is a plain call: the panic unwinds through it as before.
	defer func() {
		if r := recover(); r != boom {
			t.Errorf("inline path recovered %v", r)
		}
	}()
	NewWorkers(1).ParallelFor(4, 1, func(lo, hi int) { panic(boom) })
}

// TestParallelForInlineUnderGOMAXPROCS1: the default set is GOMAXPROCS wide,
// not as wide as the host's CPU count, so under GOMAXPROCS=1 it runs its
// whole range in one inline call however many CPUs the host has.
func TestParallelForInlineUnderGOMAXPROCS1(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := newDefault()
	var calls [][2]int
	w.ParallelFor(1<<10, 1, func(lo, hi int) { calls = append(calls, [2]int{lo, hi}) })
	if len(calls) != 1 || calls[0] != [2]int{0, 1 << 10} {
		t.Fatalf("ParallelFor under GOMAXPROCS=1 ran %v, want one inline call over [0, 1024)", calls)
	}
}

// TestWorkersWidthKeepsBits: a product has the same bits on a set of one
// and a set of eight.
func TestWorkersWidthKeepsBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMat(32, 32, rng)
	b := randMat(32, 32, rng)
	serial := New(32, 32)
	NewWorkers(1).Mul(serial, a, b)
	w := NewWorkers(8)
	defer w.Close()
	parallel := New(32, 32)
	w.Mul(parallel, a, b)
	if !serial.Equal(parallel) {
		t.Fatal("matmul result depends on worker count")
	}
}

// TestWorkersOneWideStartsNoGoroutine: a set of width 1 forks onto nothing,
// so building and using it leaves the goroutine count where it was.
func TestWorkersOneWideStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	w := NewWorkers(1)
	var calls int
	w.ParallelFor(1<<16, 1, func(lo, hi int) { calls++ })
	if calls != 1 {
		t.Fatalf("a one-wide set ran %d calls, want one inline call", calls)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines went from %d to %d around a one-wide set", before, after)
	}
}

// TestWorkersConcurrentForks: two goroutines forking on one set at once — a
// serving pass beside a retrain — each cover their own range exactly once;
// whichever finds the set busy runs inline. Under -race this is also the
// check that a job's fields are handed over through the claim counter.
func TestWorkersConcurrentForks(t *testing.T) {
	w := NewWorkers(3)
	defer w.Close()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make([]int32, 999)
			for round := 0; round < 200; round++ {
				w.ParallelFor(len(seen), 1, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						seen[i]++
					}
				})
			}
			for i, c := range seen {
				if c != 200 {
					t.Errorf("index %d visited %d times in 200 forks", i, c)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestParallelForNestedInChunk: a chunk that forks on the set it runs on
// finds it busy and runs its range inline instead of waiting for workers
// that are waiting for it.
func TestParallelForNestedInChunk(t *testing.T) {
	w := NewWorkers(2)
	defer w.Close()
	var inner atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.ParallelFor(8, 1, func(lo, hi int) {
			w.ParallelFor(100, 1, func(lo, hi int) { inner.Add(int64(hi - lo)) })
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a ParallelFor inside a chunk did not return")
	}
	if got := inner.Load(); got != 2*100 {
		t.Fatalf("nested forks covered %d items, want 200", got)
	}
}

// TestWorkersClose: Close returns once the set's goroutines have run their
// last statement, awake or parked, and a closed set still runs every chunk,
// on its caller. A goroutine is still counted for a moment after its
// deferred exited.Done has run, so the count gets a second to come back.
func TestWorkersClose(t *testing.T) {
	before := runtime.NumGoroutine()
	awake := NewWorkers(4)
	awake.ParallelFor(4, 1, func(lo, hi int) {})
	awake.Close()
	NewWorkers(3).Close() // never forked: its goroutines are parked
	w := NewWorkers(2)
	w.Close()
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Fatalf("%d goroutines before the set, %d a second after Close", before, after)
	}
	var ran atomic.Int32
	w.ParallelFor(4, 1, func(lo, hi int) { ran.Add(int32(hi - lo)) })
	if ran.Load() != 4 {
		t.Fatalf("a closed set covered %d of 4 items", ran.Load())
	}
}

// BenchmarkParallelForPhase prices one fork and join on a two-wide set, in
// µs per phase: of an empty phase with the worker still awake from the last
// one (a training step's next stage), of the same after the worker has
// parked (the wake a stage pays after a long serial gap), and of a
// 128K-element ReLU, the size of a census training step's widest activation.
// `make bench-train` prints it.
func BenchmarkParallelForPhase(b *testing.B) {
	w := NewWorkers(2)
	defer w.Close()
	empty := func(lo, hi int) {}
	b.Run("empty", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.ParallelFor(2, 1, empty)
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/phase")
	})
	b.Run("empty-after-park", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			time.Sleep(2 * spinWindow)
			b.StartTimer()
			w.ParallelFor(2, 1, empty)
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/phase")
	})
	x, y := make([]float32, 1<<17), make([]float32, 1<<17)
	RandUniform(FromSlice(1, len(x), x), 1, rand.New(rand.NewSource(1)))
	b.Run("relu-128k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.ParallelFor(len(x), ElemGrain, func(lo, hi int) {
				for j, v := range x[lo:hi] {
					var m uint32
					if v > 0 {
						m = ^uint32(0)
					}
					y[lo+j] = math.Float32frombits(math.Float32bits(v) & m)
				}
			})
		}
		b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/phase")
	})
}

// Property: Mul distributes over scaled addition (within fp tolerance).
func TestMulLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, inner, cols := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a1 := randMat(rows, inner, rng)
		a2 := randMat(rows, inner, rng)
		b := randMat(inner, cols, rng)
		sum := a1.Clone()
		sum.Add(a2)
		left := New(rows, cols)
		Mul(left, sum, b)
		r1 := New(rows, cols)
		Mul(r1, a1, b)
		r2 := New(rows, cols)
		Mul(r2, a2, b)
		r1.Add(r2)
		for i := range left.Data {
			if !almostEq(float64(left.Data[i]), float64(r1.Data[i]), 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestXavierInitWithinLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New(30, 40)
	XavierInit(m, 30, 40, rng)
	limit := float32(math.Sqrt(6.0 / 70.0))
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("value %v outside ±%v", v, limit)
		}
	}
	if m.L2Norm() == 0 {
		t.Fatal("init produced all zeros")
	}
}
