package workload

import (
	"cmp"
	"encoding/binary"
	"slices"
)

// CanonicalKey returns a deterministic identity for the query's predicate
// set: predicates are sorted by (Col, Op, Code) and exact duplicates are
// dropped, so two queries that differ only in predicate order (or repeat a
// predicate) share a key. The serving layer uses it as the result-cache key
// and for in-flight deduplication — safe because estimation is a pure
// function of the predicate set.
//
// The key is a compact binary string (varint col, op byte, varint code per
// predicate), not meant to be human-readable; use Query.String for display.
// It is computed for every query served, so it sorts a copy on the stack
// (up to 16 predicates) and allocates only the string.
func (q Query) CanonicalKey() string {
	if len(q.Preds) == 0 {
		return ""
	}
	var stack [16]Predicate
	ps := append(stack[:0], q.Preds...)
	slices.SortFunc(ps, comparePredicates)
	var buf [128]byte
	key := buf[:0]
	for i, p := range ps {
		if i > 0 && p == ps[i-1] {
			continue
		}
		key = binary.AppendUvarint(key, uint64(p.Col))
		key = append(key, byte(p.Op))
		key = binary.AppendUvarint(key, uint64(uint32(p.Code)))
	}
	return string(key)
}

func comparePredicates(a, b Predicate) int {
	if c := cmp.Compare(a.Col, b.Col); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Op, b.Op); c != 0 {
		return c
	}
	return cmp.Compare(a.Code, b.Code)
}
