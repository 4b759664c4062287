package relation

import "fmt"

// EquiJoin materializes the inner equi-join of left and right on
// left.leftCol = right.rightCol (matching on raw values, not codes). Column
// names in the result are prefixed "l_" / "r_", and the join column appears
// once as "l_<name>".
//
// This is the substrate for join cardinality estimation in the style the
// paper inherits from NeuroCard: train the estimator over the (sampled) join
// result and answer join queries as single-table queries on it. NeuroCard's
// full outer join with fanout columns is future work; the inner join covers
// the common foreign-key case.
func EquiJoin(name string, left *Table, leftCol string, right *Table, rightCol string) (*Table, error) {
	li := left.ColumnIndex(leftCol)
	ri := right.ColumnIndex(rightCol)
	if li < 0 || ri < 0 {
		return nil, fmt.Errorf("relation: join columns %q/%q not found", leftCol, rightCol)
	}
	lc, rc := left.Cols[li], right.Cols[ri]
	if lc.Kind != rc.Kind {
		return nil, fmt.Errorf("relation: join column kinds differ: %v vs %v", lc.Kind, rc.Kind)
	}
	// Hash the right side by raw value key.
	rIndex := make(map[string][]int32, rc.NumDistinct())
	for r := 0; r < right.NumRows(); r++ {
		k := rc.ValueString(rc.Codes.At(r))
		rIndex[k] = append(rIndex[k], int32(r))
	}
	// Probe with the left side, collecting matched row pairs.
	var lRows, rRows []int32
	for l := 0; l < left.NumRows(); l++ {
		for _, r := range rIndex[lc.ValueString(lc.Codes.At(l))] {
			lRows = append(lRows, int32(l))
			rRows = append(rRows, r)
		}
	}
	// Materialize: gather columns from both sides.
	cols := make([]*Column, 0, left.NumCols()+right.NumCols()-1)
	for _, c := range left.Cols {
		cols = append(cols, gatherColumn("l_"+c.Name, c, lRows))
	}
	for i, c := range right.Cols {
		if i == ri {
			continue // join key already present as l_<leftCol>
		}
		cols = append(cols, gatherColumn("r_"+c.Name, c, rRows))
	}
	return NewTable(name, cols), nil
}

// gatherColumn projects src onto the given row indices, rebuilding a compact
// dictionary over the values that survive the join.
func gatherColumn(name string, src *Column, rows []int32) *Column {
	used := make([]bool, src.NumDistinct())
	for _, r := range rows {
		used[src.Codes.At(int(r))] = true
	}
	remap := make([]int32, src.NumDistinct())
	kept := 0
	for v := range used {
		if used[v] {
			remap[v] = int32(kept)
			kept++
		}
	}
	codes := make([]int32, len(rows))
	out := &Column{Name: name, Kind: src.Kind, Codes: I32Codes(codes)}
	src.dict().gather(out, src, used, kept)
	for i, r := range rows {
		codes[i] = remap[src.Codes.At(int(r))]
	}
	return out
}
