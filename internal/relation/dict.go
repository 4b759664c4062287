package relation

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// values is a column's dictionary, the one type behind Column.Ints, Floats
// and Strs: distinct values strictly ascending by cmp.Compare, so NaN is one
// value that sorts below every other float.
type values[V cmp.Ordered] []V

// search returns the first code whose value is not below v (len(d) when
// every value is) and whether that value is v.
func (d values[V]) search(v V) (int32, bool) {
	i, ok := slices.BinarySearch(d, v)
	return int32(i), ok
}

// index returns the code of v, -1 when v is absent.
func (d values[V]) index(v V) int32 {
	if i, ok := d.search(v); ok {
		return i
	}
	return -1
}

// distinct sorts vals in place and returns its distinct values.
func distinct[V cmp.Ordered](vals []V) values[V] {
	slices.Sort(vals)
	return slices.CompactFunc(vals, func(a, b V) bool { return cmp.Compare(a, b) == 0 })
}

// encode dictionary-encodes vals: the sorted distinct values and one code
// per value.
func encode[V cmp.Ordered](vals []V) (values[V], []int32) {
	d := distinct(append([]V(nil), vals...))
	codes := make([]int32, len(vals))
	for i, v := range vals {
		codes[i], _ = d.search(v)
	}
	return d, codes
}

// translate walks two dictionaries once and returns the two translation
// arrays (a code -> b code and b code -> a code, -1 when the value is absent
// on the other side).
func translate[V cmp.Ordered](a, b values[V]) (aToB, bToA []int32) {
	aToB, bToA = make([]int32, len(a)), make([]int32, len(b))
	for i := range aToB {
		aToB[i] = -1
	}
	for j := range bToA {
		bToA[j] = -1
	}
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch cmp.Compare(a[i], b[j]) {
		case -1:
			i++
		case 1:
			j++
		default:
			aToB[i], bToA[j] = int32(j), int32(i)
			i++
			j++
		}
	}
	return aToB, bToA
}

// dictionary is a Column's dictionary operations, implemented once for
// every value type by kindOf[V]; Column.dict picks the instance.
type dictionary interface {
	ndv(c *Column) int
	valueString(c *Column, code int32) string
	lookup(c *Column, raw string) (code int32, exact bool, err error)
	ascending(c *Column) error
	encodeCells(name string, cells []string) (*Column, error)
	grow(c *Column, rows [][]string, ci int) (*Column, error)
	gather(dst, src *Column, used []bool, kept int)
	withNull(dst, src *Column, null bool) error
	translate(a, b *Column) (aToB, bToA []int32)
}

// kindOf is one value type's parse, format and NULL sentinel, plus where a
// Column keeps its dictionary.
type kindOf[V cmp.Ordered] struct {
	kind   Kind
	dict   func(c *Column) *[]V
	parse  func(raw string) (V, error)
	format func(v V) string
	// above returns a value greater than top, false when there is none.
	above func(top V) (V, bool)
}

var (
	intKind = &kindOf[int64]{KindInt, func(c *Column) *[]int64 { return &c.Ints },
		func(raw string) (int64, error) { return strconv.ParseInt(raw, 10, 64) },
		func(v int64) string { return strconv.FormatInt(v, 10) },
		func(top int64) (int64, bool) { return top + 1, top+1 > top }}
	floatKind = &kindOf[float64]{KindFloat, func(c *Column) *[]float64 { return &c.Floats },
		func(raw string) (float64, error) { return strconv.ParseFloat(raw, 64) },
		func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) },
		func(top float64) (float64, bool) {
			s := top + 1
			if !(s > top) {
				s = math.Nextafter(top, math.MaxFloat64)
			}
			return s, s > top
		}}
	stringKind = &kindOf[string]{KindString, func(c *Column) *[]string { return &c.Strs },
		func(raw string) (string, error) { return raw, nil },
		func(v string) string { return v },
		func(top string) (string, bool) { return top + "\x01", true }}
)

// kinds is the one Kind→type pick.
var kinds = [...]dictionary{KindInt: intKind, KindFloat: floatKind, KindString: stringKind}

// dict returns the column's dictionary operations; a kind past KindString
// reads as a string column.
func (c *Column) dict() dictionary { return kinds[min(c.Kind, KindString)] }

func (k *kindOf[V]) ndv(c *Column) int { return len(*k.dict(c)) }

func (k *kindOf[V]) valueString(c *Column, code int32) string { return k.format((*k.dict(c))[code]) }

func (k *kindOf[V]) lookup(c *Column, raw string) (int32, bool, error) {
	v, err := k.parse(raw)
	if err != nil {
		return 0, false, fmt.Errorf("relation: column %q is %v, got %q", c.Name, k.kind, raw)
	}
	code, exact := values[V](*k.dict(c)).search(v)
	return code, exact, nil
}

func (k *kindOf[V]) ascending(c *Column) error {
	d := *k.dict(c)
	for i := 1; i < len(d); i++ {
		if cmp.Compare(d[i-1], d[i]) >= 0 {
			return fmt.Errorf("dictionary entry %d is not above entry %d", i, i-1)
		}
	}
	return nil
}

// newColumn dictionary-encodes vals as a column of kind k.
func newColumn[V cmp.Ordered](k *kindOf[V], name string, vals []V) *Column {
	c := &Column{Name: name, Kind: k.kind}
	var codes []int32
	*k.dict(c), codes = encode(vals)
	c.Codes = I32Codes(codes)
	return c
}

// encodeCells parses every cell as k and encodes the column, or fails at the
// first cell that does not parse.
func (k *kindOf[V]) encodeCells(name string, cells []string) (*Column, error) {
	vals := make([]V, len(cells))
	for i, raw := range cells {
		v, err := k.parse(raw)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return newColumn(k, name, vals), nil
}

// grow parses column ci of every row as k and returns a new column holding
// c's rows then the appended ones. In-memory columns (I32Codes) get a fully
// materialized code array; any other backing — a mapped .duetcol column or
// an existing tail — gets a TailCodes overlay instead, so the (possibly
// beyond-RAM) base is never copied or rewritten by ingest.
func (k *kindOf[V]) grow(c *Column, rows [][]string, ci int) (*Column, error) {
	vals := make([]V, len(rows))
	for i, row := range rows {
		v, err := k.parse(row[ci])
		if err != nil {
			return nil, fmt.Errorf("relation: append: column %q is %v, got %q", c.Name, k.kind, row[ci])
		}
		vals[i] = v
	}
	out := &Column{Name: c.Name, Kind: c.Kind}
	if _, inMem := c.Codes.(I32Codes); inMem {
		var codes []int32
		*k.dict(out), codes = extendDict(*k.dict(c), c.Codes, vals)
		out.Codes = I32Codes(codes)
	} else {
		*k.dict(out), out.Codes = appendTail(c.Codes, *k.dict(c), vals)
	}
	return out, nil
}

func (k *kindOf[V]) gather(dst, src *Column, used []bool, kept int) {
	d, out := *k.dict(src), make([]V, 0, kept)
	for v, u := range used {
		if u {
			out = append(out, d[v])
		}
	}
	*k.dict(dst) = out
}

func (k *kindOf[V]) withNull(dst, src *Column, null bool) error {
	d := *k.dict(src)
	out := append(make([]V, 0, len(d)+1), d...)
	if null {
		var s V
		if len(d) > 0 {
			var ok bool
			if s, ok = k.above(d[len(d)-1]); !ok {
				return fmt.Errorf("relation: cannot place a NULL sentinel above %s in column %q", k.format(d[len(d)-1]), dst.Name)
			}
		}
		out = append(out, s)
	}
	*k.dict(dst) = out
	return nil
}

func (k *kindOf[V]) translate(a, b *Column) (aToB, bToA []int32) {
	return translate[V](*k.dict(a), *k.dict(b))
}
