package relation

import (
	"cmp"
	"fmt"
	"sync"
)

// EdgeIndex is the code-level machinery of one equi-join edge between two
// dictionary-encoded columns of the same Kind. Because both dictionaries are
// sorted, equality of raw values reduces to a translation array between the
// two code spaces (built by one merge pass, no hashing), and the rows of each
// side grouped by their own code (a CSR layout) are the edge's hash index:
// the matches of a row on one side are the other side's group at the
// translated code. The one join layout that MultiJoin and JoinSampler share
// walks or samples the edges through it, and MultiJoinCardinality counts
// over it.
type EdgeIndex struct {
	side [2]edgeSide
}

// edgeSide is one column's half of an EdgeIndex.
type edgeSide struct {
	tbl string // owning table name; orients cached indexes (edges never self-join)
	col *Column
	// toOther maps an own dictionary code to the other side's code for the
	// same raw value, -1 when the value is absent there. A row whose join-key
	// code translates to -1 has no match (on the child side of a tree edge,
	// that makes it a dangling row the full outer join preserves alone).
	toOther []int32
	// start/rows group this side's row ids by their own code: rows of code c
	// are rows[start[c]:start[c+1]], ascending. len(start) = NDV+1.
	start []int32
	rows  []int32
}

// newEdgeIndex builds the index for one edge; a and b must have equal kinds
// (the graph validator enforces this before any index is built).
func newEdgeIndex(aTbl string, a *Column, bTbl string, b *Column) *EdgeIndex {
	ix := &EdgeIndex{}
	ix.side[0].tbl, ix.side[1].tbl = aTbl, bTbl
	ix.side[0].col, ix.side[1].col = a, b
	ix.side[0].toOther, ix.side[1].toOther = mergeDicts(a, b)
	for s := range ix.side {
		ix.side[s].start, ix.side[s].rows = groupByCode(ix.side[s].col)
	}
	return ix
}

// oriented views an EdgeIndex from a tree edge's parent toward its child.
type oriented struct {
	parent, child *edgeSide
}

// orient returns the edge viewed with the given table's side as the parent.
func (ix *EdgeIndex) orient(parentTbl string) oriented {
	if ix.side[0].tbl == parentTbl {
		return oriented{parent: &ix.side[0], child: &ix.side[1]}
	}
	return oriented{parent: &ix.side[1], child: &ix.side[0]}
}

// childCode translates a parent-side code to the child-side code of the same
// value, -1 when the child dictionary lacks it (no matches).
func (o oriented) childCode(parentCode int32) int32 { return o.parent.toOther[parentCode] }

// matches returns the child rows carrying the given child-side code.
func (o oriented) matches(childCode int32) []int32 {
	return o.child.rows[o.child.start[childCode]:o.child.start[childCode+1]]
}

// groupSize returns the number of child rows carrying the given code — the
// fanout every matched view row records for the child table.
func (o oriented) groupSize(childCode int32) int32 {
	return o.child.start[childCode+1] - o.child.start[childCode]
}

// dangling reports whether a child row with the given code has no parent
// anywhere in the parent base table.
func (o oriented) dangling(childCode int32) bool { return o.child.toOther[childCode] < 0 }

// mergeDicts walks both sorted dictionaries once and returns the two
// translation arrays (a code -> b code and b code -> a code, -1 when the
// value is absent on the other side).
func mergeDicts(a, b *Column) (aToB, bToA []int32) {
	na, nb := a.NumDistinct(), b.NumDistinct()
	aToB = make([]int32, na)
	bToA = make([]int32, nb)
	for i := range aToB {
		aToB[i] = -1
	}
	for j := range bToA {
		bToA[j] = -1
	}
	i, j := 0, 0
	for i < na && j < nb {
		switch dictCompare(a, i, b, j) {
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

// dictCompare orders dictionary entry i of a against entry j of b (-1/0/1).
func dictCompare(a *Column, i int, b *Column, j int) int {
	switch a.Kind {
	case KindInt:
		return cmp.Compare(a.Ints[i], b.Ints[j])
	case KindFloat:
		return cmp.Compare(a.Floats[i], b.Floats[j])
	default:
		return cmp.Compare(a.Strs[i], b.Strs[j])
	}
}

// groupByCode builds the CSR grouping of a column's rows by code with one
// counting pass.
func groupByCode(c *Column) (start, rows []int32) {
	ndv := c.NumDistinct()
	n := c.Codes.Len()
	start = make([]int32, ndv+1)
	// Bulk-decode in chunks: on a mapped column this streams the code pages
	// once per pass instead of paying an interface call per row.
	var buf [4096]int32
	for lo := 0; lo < n; lo += len(buf) {
		for _, code := range c.Codes.AppendTo(buf[:0], lo, min(lo+len(buf), n)) {
			start[code+1]++
		}
	}
	for i := 0; i < ndv; i++ {
		start[i+1] += start[i]
	}
	rows = make([]int32, n)
	next := make([]int32, ndv)
	copy(next, start[:ndv])
	r := 0
	for lo := 0; lo < n; lo += len(buf) {
		for _, code := range c.Codes.AppendTo(buf[:0], lo, min(lo+len(buf), n)) {
			rows[next[code]] = int32(r)
			next[code]++
			r++
		}
	}
	return start, rows
}

// JoinIndexes caches EdgeIndex values per equi-join edge so repeated exact
// counts over the same base tables (the registry's subtree anchors,
// MultiJoinCardinalityIndexed) index each edge once. The cache is keyed
// orientation-insensitively by table and column names. Safe for concurrent
// use; the zero value is not valid, use NewJoinIndexes.
type JoinIndexes struct {
	mu    sync.Mutex
	byKey map[string]*EdgeIndex
}

// NewJoinIndexes returns an empty edge-index cache.
func NewJoinIndexes() *JoinIndexes {
	return &JoinIndexes{byKey: make(map[string]*EdgeIndex)}
}

// edge returns the cached index for the edge between pt's column pc and ct's
// column cc, building and caching it on first use and rebuilding it when
// those columns were replaced. A nil receiver builds a fresh uncached index
// (the one-shot path).
func (ix *JoinIndexes) edge(pt *Table, pc int, ct *Table, cc int) *EdgeIndex {
	a, b := pt.Cols[pc], ct.Cols[cc]
	if ix == nil {
		return newEdgeIndex(pt.Name, a, ct.Name, b)
	}
	ka := fmt.Sprintf("%s\x00%s", pt.Name, a.Name)
	kb := fmt.Sprintf("%s\x00%s", ct.Name, b.Name)
	if kb < ka {
		ka, kb = kb, ka
	}
	key := ka + "\x01" + kb
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if e, ok := ix.byKey[key]; ok && (e.side[0].col == a && e.side[1].col == b || e.side[0].col == b && e.side[1].col == a) {
		return e
	}
	e := newEdgeIndex(pt.Name, a, ct.Name, b)
	ix.byKey[key] = e
	return e
}

// orientedFor resolves the oriented view of one validated tree edge.
func (ix *JoinIndexes) orientedFor(g *JoinGraph, te treeEdge) oriented {
	parent, child := g.Tables[te.parent], g.Tables[te.child]
	return ix.edge(parent, te.parentCol, child, te.childCol).orient(parent.Name)
}
