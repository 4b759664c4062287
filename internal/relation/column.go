// Package relation provides the columnar relation substrate: dictionary-
// encoded columns, tables, CSV import/export, and synthetic dataset
// generators whose shapes (column count, NDV profile, skew, correlation)
// mirror the three datasets of the Duet paper (DMV, Kddcup98, Census).
//
// Every column stores its distinct values sorted ascending plus an int32
// code per row indexing into that dictionary. Because the dictionary is
// sorted, ordering comparisons on raw values become ordering comparisons on
// codes, and every range predicate compiles to a closed code interval — the
// representation all estimators in this repository consume.
//
// The dictionary is one generic type (values, in dict.go) for every value
// kind: encoding, lookup, growth under ingest, gathering and merging two
// dictionaries are each one function, and the only per-kind code is each
// kind's parse, format and NULL sentinel. Values are ordered by cmp.Compare,
// so NaN is one value that sorts below every other float.
package relation

import (
	"fmt"
	"strconv"
)

// Kind is the value type of a column.
type Kind uint8

// Column value kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindString
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Column is a dictionary-encoded column. Exactly one of Ints, Floats, Strs
// is populated (matching Kind) and holds the sorted distinct values; Codes
// holds one index into the dictionary per row. Codes is an interface so the
// row storage can live either in an ordinary Go slice or inside a mapped
// .duetcol file (see CodeArray); in-memory encoders always produce I32Codes.
type Column struct {
	Name   string
	Kind   Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Codes  CodeArray

	// hist caches the normalized code-frequency histogram for columns whose
	// backing file stores it (colstore), so Table.CodeHist doesn't scan a
	// mapped code array and fault in every page. Nil for in-memory columns.
	hist []float64
}

// SetHist installs a precomputed code-frequency histogram (len == NDV);
// Table.CodeHist returns a copy of it instead of scanning the rows. The
// colstore loader uses this for mapped columns.
func (c *Column) SetHist(h []float64) { c.hist = h }

// NumDistinct returns the dictionary size (NDV).
func (c *Column) NumDistinct() int { return c.dict().ndv(c) }

// NumRows returns the number of rows.
func (c *Column) NumRows() int { return c.Codes.Len() }

// ValueString renders the distinct value at code as text.
func (c *Column) ValueString(code int32) string { return c.dict().valueString(c, code) }

// Lookup parses raw as the column's kind and returns the smallest code whose
// value is not below it (NDV when every value is below it) and whether that
// value equals it.
func (c *Column) Lookup(raw string) (code int32, exact bool, err error) {
	return c.dict().lookup(c, raw)
}

// CodeOfInt is Lookup of the integer v: its lower-bound code and whether it
// is present exactly.
func (c *Column) CodeOfInt(v int64) (int32, bool) {
	code, exact, _ := c.Lookup(strconv.FormatInt(v, 10)) // an integer's text parses as every kind
	return code, exact
}

// CheckAscending reports an error unless the dictionary is strictly
// ascending by cmp.Compare, the order every lookup and merge relies on.
func (c *Column) CheckAscending() error { return c.dict().ascending(c) }

// NewIntColumn dictionary-encodes raw int64 values.
func NewIntColumn(name string, values []int64) *Column { return newColumn(intKind, name, values) }

// NewFloatColumn dictionary-encodes raw float64 values.
func NewFloatColumn(name string, values []float64) *Column { return newColumn(floatKind, name, values) }

// NewStringColumn dictionary-encodes raw string values, ordered
// lexicographically.
func NewStringColumn(name string, values []string) *Column {
	return newColumn(stringKind, name, values)
}

// NewCodedColumn builds an int column directly from pre-computed codes over
// the domain 0..ndv-1 (value i is simply the integer i). Generators use this
// to avoid a redundant encode pass; codes must already lie in [0, ndv).
func NewCodedColumn(name string, codes []int32, ndv int) *Column {
	used := make([]bool, ndv)
	for _, c := range codes {
		used[c] = true
	}
	// Compact the dictionary to the codes actually present so NDV reflects
	// the realized data (mirrors what dictionary encoding of raw data does).
	remap := make([]int32, ndv)
	var distinct []int64
	for v := 0; v < ndv; v++ {
		if used[v] {
			remap[v] = int32(len(distinct))
			distinct = append(distinct, int64(v))
		}
	}
	out := make([]int32, len(codes))
	for i, c := range codes {
		out[i] = remap[c]
	}
	return &Column{Name: name, Kind: KindInt, Ints: distinct, Codes: I32Codes(out)}
}
