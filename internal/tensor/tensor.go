// Package tensor provides the dense linear-algebra substrate used by every
// neural model in this repository. It implements a row-major float32 matrix
// with parallel blocked matrix multiplication, elementwise kernels and seeded
// initializers. The package is deliberately small: all models in this
// repository are feedforward networks whose training loop only needs GEMM,
// elementwise maps and reductions.
//
// Parallel work runs on a Workers set the caller passes: the GEMMs are its
// methods (Mul, MulBT, MulATAdd), and ParallelFor forks any other stage onto
// it. Default is the set for callers that are handed none. No result depends
// on a set's width: chunks are disjoint, and reductions accumulate in
// float64 in a fixed order, so results are stable and independent of the
// parallel split.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix. A Matrix with Rows == 1 doubles
// as a vector. The zero value is an empty matrix; use New to allocate.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// New allocates a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []float32 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Resize reshapes m to rows×cols in place, reusing the underlying storage
// when its capacity suffices and allocating otherwise. The element contents
// after a resize are unspecified (retained storage is not cleared); callers
// must fully overwrite the matrix, which every forward kernel in this
// repository does. Resize is what lets serving reuse one scratch matrix
// across micro-batches of varying size without per-request allocation.
func (m *Matrix) Resize(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: Resize to negative dimensions")
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float32, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Add accumulates src into m elementwise.
func (m *Matrix) Add(src *Matrix) {
	m.mustSameShape(src, "Add")
	for i, v := range src.Data {
		m.Data[i] += v
	}
}

// Scale multiplies every element by alpha.
func (m *Matrix) Scale(alpha float32) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// AddRowVector adds the 1×Cols vector v to every row of m, splitting the rows
// across w.
func (m *Matrix) AddRowVector(w *Workers, v []float32) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector got %d elements for %d columns", len(v), m.Cols))
	}
	w.ParallelFor(m.Rows, RowGrain(m.Cols), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := m.Row(r)
			for c, b := range v {
				row[c] += b
			}
		}
	})
}

// Sum returns the sum of all elements, accumulated in float64.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v)
	}
	return s
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float32 {
	var mx float32
	for _, v := range m.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > mx {
			mx = a
		}
	}
	return mx
}

// L2Norm returns the Euclidean norm of all elements.
func (m *Matrix) L2Norm() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// Equal reports whether m and other have identical shape and elements.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if other.Data[i] != v {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

func (m *Matrix) mustSameShape(other *Matrix, op string) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, other.Rows, other.Cols))
	}
}
