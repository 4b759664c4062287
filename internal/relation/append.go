package relation

import (
	"cmp"
	"fmt"
)

// AppendRows returns a new table extending t with the given rows. Each row
// carries one raw value per column (the CSV convention), parsed by the
// column's fixed kind — appending never re-infers kinds. The input table is
// NEVER mutated: a column whose dictionary already contains every appended
// value shares its dictionary slices with the result and only copies codes,
// while a column that sees fresh values gets a merged sorted dictionary with
// every existing code remapped to its new position.
//
// Copy-on-write is what makes online ingest safe under serving: a model
// answering requests against the old table (whose code space the new
// dictionary may have shifted) stays internally consistent until table and
// model are hot-swapped together (Registry.SwapModel) — the lifecycle
// subsystem's retrain path.
func AppendRows(t *Table, rows [][]string) (*Table, error) {
	if len(rows) == 0 {
		return t, nil
	}
	for ri, row := range rows {
		if len(row) != t.NumCols() {
			return nil, fmt.Errorf("relation: append row %d has %d values, table %q has %d columns",
				ri, len(row), t.Name, t.NumCols())
		}
	}
	cols := make([]*Column, t.NumCols())
	for ci, c := range t.Cols {
		nc, err := c.dict().grow(c, rows, ci)
		if err != nil {
			return nil, err
		}
		cols[ci] = nc
	}
	return NewTable(t.Name, cols), nil
}

// appendTail extends a non-materializable column (mapped base, or base +
// existing tail) with vals. Dictionary growth becomes a remap indirection
// over the immutable base codes instead of a rewrite, and successive appends
// flatten into one TailCodes (base + composed remap + merged tail) so read
// cost never grows with ingest-batch count. The input column is never
// mutated — readers holding the old table keep a consistent view.
func appendTail[V cmp.Ordered](codes CodeArray, dict values[V], vals []V) (values[V], CodeArray) {
	merged, remap := mergeFresh(dict, vals)
	base := codes
	var baseRemap, oldTail []int32
	if tc, ok := codes.(*TailCodes); ok {
		base, baseRemap, oldTail = tc.Base, tc.Remap, tc.Tail
	}
	newRemap := baseRemap
	if remap != nil {
		if baseRemap == nil {
			newRemap = remap
		} else {
			newRemap = make([]int32, len(baseRemap))
			for i, r := range baseRemap {
				newRemap[i] = remap[r]
			}
		}
	}
	tail := make([]int32, 0, len(oldTail)+len(vals))
	for _, code := range oldTail {
		if remap != nil {
			code = remap[code]
		}
		tail = append(tail, code)
	}
	for _, v := range vals {
		j, _ := merged.search(v)
		tail = append(tail, j)
	}
	return merged, &TailCodes{Base: base, Remap: newRemap, Tail: tail}
}

// extendDict merges appended values into a sorted dictionary and produces the
// full code column (old rows remapped + appended rows encoded). When no value
// is fresh the input dictionary is returned as-is, so the caller can share it.
func extendDict[V cmp.Ordered](dict values[V], oldCodes CodeArray, vals []V) (values[V], []int32) {
	merged, remap := mergeFresh(dict, vals)
	old := oldCodes.Len()
	codes := make([]int32, 0, old+len(vals))
	codes = oldCodes.AppendTo(codes, 0, old)
	if remap != nil {
		for k, oc := range codes {
			codes[k] = remap[oc]
		}
	}
	for _, v := range vals {
		j, _ := merged.search(v)
		codes = append(codes, j)
	}
	return merged, codes
}

// mergeFresh merges any values absent from the sorted dictionary into it and
// returns the merged dictionary plus the old-code → merged-code translation
// (nil when nothing was fresh, in which case dict is returned as-is so the
// caller can share it). It is the dictionary-growth primitive behind both the
// materializing extendDict and the mapped-base append tail, which keeps the
// remap as an indirection instead of rewriting base codes.
func mergeFresh[V cmp.Ordered](dict values[V], vals []V) (values[V], []int32) {
	var fresh []V
	for _, v := range vals {
		if _, ok := dict.search(v); !ok {
			fresh = append(fresh, v)
		}
	}
	if len(fresh) == 0 {
		return dict, nil
	}
	fresh = distinct(fresh)
	merged := make(values[V], 0, len(dict)+len(fresh))
	remap := make([]int32, len(dict))
	i, j := 0, 0
	for i < len(dict) || j < len(fresh) {
		// Fresh values are absent from dict, so the two runs never tie.
		if j >= len(fresh) || (i < len(dict) && cmp.Less(dict[i], fresh[j])) {
			remap[i] = int32(len(merged))
			merged = append(merged, dict[i])
			i++
		} else {
			merged = append(merged, fresh[j])
			j++
		}
	}
	return merged, remap
}

// CodeHist returns column ci's normalized code-frequency histogram — the
// per-column distribution snapshot that drift detection compares appended
// rows against (total-variation distance between a trained snapshot's
// histogram and the appended rows projected onto the same dictionary).
func (t *Table) CodeHist(ci int) []float64 {
	c := t.Cols[ci]
	h := make([]float64, c.NumDistinct())
	if c.hist != nil && len(c.hist) == len(h) {
		// Mapped columns carry the histogram computed at pack time; returning
		// a copy avoids faulting in the whole code array just to re-count it.
		copy(h, c.hist)
		return h
	}
	n := c.Codes.Len()
	inv := 1 / float64(n)
	var buf [4096]int32
	for lo := 0; lo < n; lo += len(buf) {
		hi := min(lo+len(buf), n)
		for _, code := range c.Codes.AppendTo(buf[:0], lo, hi) {
			h[code] += inv
		}
	}
	return h
}

// ProjectValue is Lookup clamped to the last code. Values outside the trained
// domain land in the nearest bin, which is exactly what projecting appended
// rows onto a trained snapshot's histogram needs; exact=false marks a value
// that would grow the dictionary.
func (c *Column) ProjectValue(raw string) (code int32, exact bool, err error) {
	code, exact, err = c.Lookup(raw)
	if err != nil {
		return 0, false, err
	}
	return min(code, int32(c.NumDistinct())-1), exact, nil
}
