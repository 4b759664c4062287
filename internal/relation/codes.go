package relation

import "slices"

// CodeArray is the read-only row storage behind Column.Codes: one dictionary
// code per row. Abstracting the storage (instead of a concrete []int32) is
// what lets a column be backed either by an ordinary in-memory slice
// (I32Codes) or by a width-minimal array reinterpreted in place over an
// mmap'd .duetcol file (Codes[uint8], [uint16] or [uint32]) — or by a mapped
// base plus an in-memory append tail (TailCodes) — without any consumer of
// the relation package changing. Implementations are immutable once
// published on a Column; concurrent readers need no locking.
type CodeArray interface {
	// Len returns the number of rows.
	Len() int
	// At returns the code of row i.
	At(i int) int32
	// AppendTo appends the codes of rows [lo, hi) to dst as int32 and
	// returns the extended slice. It is the bulk-decode path for loops that
	// would otherwise pay one interface call per row.
	AppendTo(dst []int32, lo, hi int) []int32
}

// Codes is a CodeArray over a plain slice of one code width: uint8 for
// columns with NDV <= 256, uint16 up to 65536, uint32 beyond (typically
// reinterpreted in place over a mapped .duetcol section), and int32 for the
// in-memory columns every encoder in this package produces.
type Codes[T uint8 | uint16 | uint32 | int32] []T

// I32Codes is the in-memory CodeArray.
type I32Codes = Codes[int32]

// Len returns the number of rows.
func (s Codes[T]) Len() int { return len(s) }

// At returns the code of row i.
func (s Codes[T]) At(i int) int32 { return int32(s[i]) }

// AppendTo appends rows [lo, hi) to dst: one copy for int32 codes, a
// widening loop for the narrow ones.
func (s Codes[T]) AppendTo(dst []int32, lo, hi int) []int32 {
	if s32, ok := any(s).(I32Codes); ok {
		return append(dst, s32[lo:hi]...)
	}
	src, n := s[lo:hi], len(dst)
	dst = slices.Grow(dst, len(src))[:n+len(src)]
	out := dst[n:]
	for i, v := range src {
		out[i] = int32(v)
	}
	return dst
}

// TailCodes overlays an in-memory append tail on an immutable base (usually a
// mapped column). Base rows come first; rows >= Base.Len() read from Tail.
// When the appended values grew the dictionary, Remap translates base codes
// into the merged code space without rewriting (or even paging in) the base
// array; a nil Remap means the dictionary was unchanged. Tail codes are
// already in the merged space.
type TailCodes struct {
	Base  CodeArray
	Remap []int32 // nil when the base dictionary survived unchanged
	Tail  []int32
}

// Len returns base rows plus tail rows.
func (s *TailCodes) Len() int { return s.Base.Len() + len(s.Tail) }

// At returns the code of row i in the merged code space.
func (s *TailCodes) At(i int) int32 {
	if n := s.Base.Len(); i >= n {
		return s.Tail[i-n]
	}
	if s.Remap == nil {
		return s.Base.At(i)
	}
	return s.Remap[s.Base.At(i)]
}

// AppendTo appends rows [lo, hi) to dst in the merged code space.
func (s *TailCodes) AppendTo(dst []int32, lo, hi int) []int32 {
	n := s.Base.Len()
	if lo < n {
		stop := min(hi, n)
		if s.Remap == nil {
			dst = s.Base.AppendTo(dst, lo, stop)
		} else {
			start := len(dst)
			dst = s.Base.AppendTo(dst, lo, stop)
			for i := start; i < len(dst); i++ {
				dst[i] = s.Remap[dst[i]]
			}
		}
		lo = stop
	}
	if hi > n {
		dst = append(dst, s.Tail[lo-n:hi-n]...)
	}
	return dst
}

// DecodeCodes materializes an entire CodeArray as []int32. The fast path
// returns an I32Codes' backing slice without copying; callers must treat the
// result as read-only.
func DecodeCodes(a CodeArray) []int32 {
	if s, ok := a.(I32Codes); ok {
		return s
	}
	return a.AppendTo(make([]int32, 0, a.Len()), 0, a.Len())
}
