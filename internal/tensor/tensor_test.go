package tensor

import (
	"errors"
	"math"
	"math/rand"
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
	h := FromSlice(2, 2, []float32{1, 0, 1, 0})
	a.Hadamard(h)
	if a.At(0, 1) != 0 || a.At(1, 1) != 0 {
		t.Fatalf("Hadamard: got %v", a.Data)
	}
}

func TestAddRowVector(t *testing.T) {
	m := New(3, 2)
	m.AddRowVector([]float32{1, 2})
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
	MulBT(got, a, b)
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
	MulATAdd(got, a, b)
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

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(20, 13, rng)
	x := randMat(13, 1, rng)
	dst := make([]float32, 20)
	MulVec(dst, a, x.Data)
	want := naiveMul(a, x)
	for i := range dst {
		if !almostEq(float64(dst[i]), float64(want.Data[i]), 1e-4) {
			t.Fatalf("idx %d got %v want %v", i, dst[i], want.Data[i])
		}
	}
}

func TestParallelForCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1023} {
		seen := make([]int32, n)
		ParallelFor(n, 3, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, c)
			}
		}
	}
}

// TestParallelForRepanicsOnCaller: a panic on a worker goroutine is raised
// again on the goroutine that called ParallelFor, with the worker's value, and
// only once every other worker has returned — the caller's deferred cleanup
// must not run beside a worker still writing into its buffers.
func TestParallelForRepanicsOnCaller(t *testing.T) {
	defer SetMaxWorkers(0)
	SetMaxWorkers(4)
	boom := errors.New("boom")
	panicking := make(chan struct{})
	var finished atomic.Int32
	var atRecover int32
	func() {
		defer func() {
			atRecover = finished.Load()
			if r := recover(); r != boom {
				t.Errorf("recovered %v, want the worker's panic value", r)
			}
		}()
		ParallelFor(4, 1, func(lo, hi int) {
			if lo == 0 {
				close(panicking)
				panic(boom)
			}
			<-panicking
			time.Sleep(10 * time.Millisecond) // widen the window a premature re-panic would land in
			finished.Add(1)
		})
		t.Error("ParallelFor returned normally after a worker panicked")
	}()
	if atRecover != 3 {
		t.Fatalf("%d of the 3 other workers had returned when the panic reached the caller", atRecover)
	}
	// The inline path is a plain call: the panic unwinds through it as before.
	SetMaxWorkers(1)
	defer func() {
		if r := recover(); r != boom {
			t.Errorf("inline path recovered %v", r)
		}
	}()
	ParallelFor(4, 1, func(lo, hi int) { panic(boom) })
}

func TestSetMaxWorkers(t *testing.T) {
	defer SetMaxWorkers(0)
	SetMaxWorkers(1)
	rng := rand.New(rand.NewSource(5))
	a := randMat(32, 32, rng)
	b := randMat(32, 32, rng)
	serial := New(32, 32)
	Mul(serial, a, b)
	SetMaxWorkers(8)
	parallel := New(32, 32)
	Mul(parallel, a, b)
	if !serial.Equal(parallel) {
		t.Fatal("matmul result depends on worker count")
	}
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
