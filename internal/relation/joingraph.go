package relation

import "fmt"

// JoinEdge is one equi-join condition between two named tables:
// LeftTable.LeftCol = RightTable.RightCol. It is the one edge type of every
// join layer — a parsed query's join clause, a join-graph view's edge, a
// legacy two-table view's join — and its JSON names are the manifests' and
// /v1/models' wire form. Edges are symmetric; a join tree orients them away
// from its first table (SpanningTree).
type JoinEdge struct {
	LeftTable  string `json:"left"`
	LeftCol    string `json:"left_col"`
	RightTable string `json:"right"`
	RightCol   string `json:"right_col"`
}

func (e JoinEdge) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", e.LeftTable, e.LeftCol, e.RightTable, e.RightCol)
}

// Canonical returns the edge with its sides in lexicographic order, so
// "a.x = b.y" and "b.y = a.x" compare equal; the registry keys join views by
// it to make routing orientation-insensitive.
func (e JoinEdge) Canonical() JoinEdge {
	if e.LeftTable > e.RightTable || (e.LeftTable == e.RightTable && e.LeftCol > e.RightCol) {
		return JoinEdge{e.RightTable, e.RightCol, e.LeftTable, e.LeftCol}
	}
	return e
}

// JoinGraph describes an N-way join as a tree of equi-join edges over named
// base tables. Exactly len(Tables)-1 edges must connect every table (a
// spanning tree), which is the shape star and chain schemas — and the JOB
// benchmark's queries — take.
type JoinGraph struct {
	Tables []*Table
	Edges  []JoinEdge
}

// treeEdge is one validated edge oriented parent -> child in BFS order from
// the root (Tables[0]).
type treeEdge struct {
	parent, child       int // table indices
	parentCol, childCol int // column indices
}

// JoinViewColumn names the materialized view column holding base column col
// of base table table: "<table>_<col>". The registry's per-table column map
// rewrites qualified query predicates through it.
func JoinViewColumn(table, col string) string { return table + "_" + col }

// FanoutColumn names the per-base-table fanout column of a materialized join
// view. For the root table its value is 1 when the table participates in the
// row and 0 otherwise; for every other table it is the number of its rows
// matching the row's parent key (0 when absent, and 1 for dangling rows the
// full outer join preserves). "table present in row" is exactly
// "fanout >= 1", which is how the router restricts to inner-join rows.
func FanoutColumn(table string) string { return "__fanout_" + table }

// SpanningTree checks the shape every join tree takes: at least 2 distinct,
// non-empty table names, len(tables)-1 edges, each between two different
// tables of the list, connecting all of them. It returns the edges in BFS
// order from tables[0], each oriented parent (Left) -> child (Right): the
// orientation materialized and sampled view layouts follow.
func SpanningTree(tables []string, edges []JoinEdge) ([]JoinEdge, error) {
	if len(tables) < 2 {
		return nil, fmt.Errorf("relation: join graph needs at least 2 tables, got %d", len(tables))
	}
	named := make(map[string]bool, len(tables))
	for i, t := range tables {
		if t == "" {
			return nil, fmt.Errorf("relation: join graph table %d has no name", i)
		}
		if named[t] {
			return nil, fmt.Errorf("relation: duplicate table %q in join graph", t)
		}
		named[t] = true
	}
	if len(edges) != len(tables)-1 {
		return nil, fmt.Errorf("relation: join graph over %d tables needs %d edges (a spanning tree), got %d",
			len(tables), len(tables)-1, len(edges))
	}
	for _, e := range edges {
		if !named[e.LeftTable] || !named[e.RightTable] {
			return nil, fmt.Errorf("relation: join edge %s references a table outside the graph", e)
		}
		if e.LeftTable == e.RightTable {
			return nil, fmt.Errorf("relation: join edge %s relates a table to itself", e)
		}
	}
	// With exactly n-1 edges, reaching every table proves the edge set is a
	// spanning tree.
	tree, reached := walk(tables[0], edges)
	if len(tree) != len(tables)-1 {
		var missing []string
		for _, t := range tables {
			if !reached[t] {
				missing = append(missing, t)
			}
		}
		return nil, fmt.Errorf("relation: join graph is not connected (unreachable: %v)", missing)
	}
	return tree, nil
}

// Connected reports whether the edges join their tables into one connected
// graph. A disconnected set describes a cross product of independent joins,
// which no tree-shaped join view serves; a repeated edge or a cycle does not
// disconnect it.
func Connected(edges []JoinEdge) bool {
	if len(edges) == 0 {
		return false
	}
	_, reached := walk(edges[0].LeftTable, edges)
	for _, e := range edges {
		if !reached[e.RightTable] {
			return false
		}
	}
	return true
}

// walk is the breadth-first walk of the undirected graph edges span, from
// root: it returns each edge that first reaches a table, oriented parent
// (Left) -> child (Right), in BFS order, and the tables reached. Each table's
// edges are tried in the order edges lists them.
func walk(root string, edges []JoinEdge) (tree []JoinEdge, reached map[string]bool) {
	// adj[t] lists t's edges, each oriented away from t.
	adj := make(map[string][]JoinEdge, len(edges)+1)
	for _, e := range edges {
		adj[e.LeftTable] = append(adj[e.LeftTable], e)
		adj[e.RightTable] = append(adj[e.RightTable], JoinEdge{e.RightTable, e.RightCol, e.LeftTable, e.LeftCol})
	}
	reached = map[string]bool{root: true}
	queue := []string{root}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, e := range adj[p] {
			if reached[e.RightTable] {
				continue
			}
			reached[e.RightTable] = true
			tree = append(tree, e)
			queue = append(queue, e.RightTable)
		}
	}
	return tree, reached
}

// validate checks the graph is a spanning tree (SpanningTree) over typed,
// existing columns and returns its edges oriented away from Tables[0] in BFS
// order.
func (g *JoinGraph) validate() ([]treeEdge, error) {
	names := make([]string, len(g.Tables))
	idx := make(map[string]int, len(g.Tables))
	for i, t := range g.Tables {
		names[i] = t.Name
		idx[t.Name] = i
	}
	oriented, err := SpanningTree(names, g.Edges)
	if err != nil {
		return nil, err
	}
	tree := make([]treeEdge, len(oriented))
	for i, e := range oriented {
		p, c := idx[e.LeftTable], idx[e.RightTable]
		pc := g.Tables[p].ColumnIndex(e.LeftCol)
		cc := g.Tables[c].ColumnIndex(e.RightCol)
		if pc < 0 || cc < 0 {
			return nil, fmt.Errorf("relation: join columns %q/%q not found for edge %s", e.LeftCol, e.RightCol, e)
		}
		if pk, ck := g.Tables[p].Cols[pc].Kind, g.Tables[c].Cols[cc].Kind; pk != ck {
			return nil, fmt.Errorf("relation: join column kinds differ for edge %s: %v vs %v", e, pk, ck)
		}
		tree[i] = treeEdge{parent: p, child: c, parentCol: pc, childCol: cc}
	}
	return tree, nil
}

// MultiJoin materializes the full outer join of the graph's tables along its
// edge tree, NeuroCard-style. Every base row of every table appears in the
// result at least once: matched rows combine, unmatched rows survive padded
// with a NULL sentinel on the other tables' columns. Each base table T
// contributes its columns as "<T>_<col>" plus a fanout column
// FanoutColumn(T); restricting to rows with every fanout >= 1 recovers
// exactly the inner join of the full graph, and downscaling subset queries by
// fanout recovers inner-join cardinalities over any subtree (the registry's
// fanout correction), instead of relying on an inner-join materialization
// being the query's join.
//
// NULL sentinels are appended at the end of the affected column's sorted
// dictionary (greater than every real value), so every real-value range
// predicate can exclude them with one extra "< sentinel" bound.
//
// The view's columns and dictionaries are the joinLayout JoinSampler draws
// into; MultiJoin fills them with every FOJ row, in walk order.
func MultiJoin(name string, g *JoinGraph) (*Table, error) {
	l, err := newJoinLayout(g)
	if err != nil {
		return nil, err
	}
	// Count with one walk, checking every row against the layout — an absent
	// table must have a NULL sentinel and a present one a fanout code, or the
	// view would carry real-value codes where the join has none — then fill
	// presized columns with a second.
	n := 0
	l.walk(func(row, asg []int32) {
		for ti, a := range asg {
			switch {
			case a < 0 && !l.canBeAbsent[ti]:
				err = fmt.Errorf("relation: join layout says table %q is never absent, but a full-outer-join row misses it", g.Tables[ti].Name)
			case a >= 0 && row[l.fanIdx[ti]] < 0:
				err = fmt.Errorf("relation: join layout's fanout dictionary for table %q lacks a value the full outer join realizes", g.Tables[ti].Name)
			}
		}
		n++
	})
	if err != nil {
		return nil, err
	}
	view, codes := l.newView(name, n)
	i := 0
	l.walk(func(row, _ []int32) {
		for c, v := range row {
			codes[c][i] = v
		}
		i++
	})
	return view, nil
}

// walk calls emit on every full-outer-join row with the row's view codes and
// its per-table base row (-1 when the table is absent). Rows come anchor by
// anchor — root rows ascending, then each tree edge's dangling child rows,
// edges in BFS order — and, under one anchor, lexicographically over the BFS
// edge list, each edge's matches in ascending row order: an odometer whose
// earlier edges turn slower. (JoinSampler's descent is a DFS, which orders
// rows differently once a table has two children; a draw needs no order.)
func (l *joinLayout) walk(emit func(row, asg []int32)) {
	row := append([]int32(nil), l.template...)
	asg := make([]int32, l.nt)
	for i := range asg {
		asg[i] = -1
	}
	// place puts row r of table ti, with the given fanout code, into the row;
	// vacate restores ti's columns to the all-absent template.
	place := func(ti int, r int32, fan int32) {
		base := l.colBase[ti]
		for si, src := range l.g.Tables[ti].Cols {
			row[base+si] = src.Codes.At(int(r))
		}
		row[l.fanIdx[ti]] = fan
		asg[ti] = r
	}
	vacate := func(ti int) {
		copy(row[l.colBase[ti]:l.fanIdx[ti]+1], l.template[l.colBase[ti]:])
		asg[ti] = -1
	}
	var expand func(k int)
	expand = func(k int) {
		if k == len(l.tree) {
			emit(row, asg)
			return
		}
		te := l.tree[k]
		o := l.ors[te.child]
		cc := int32(-1) // stays -1 when the parent is absent, and so its subtree
		if p := asg[te.parent]; p >= 0 {
			cc = o.childCode(l.g.Tables[te.parent].Cols[te.parentCol].Codes.At(int(p)))
		}
		if cc < 0 {
			expand(k + 1) // the NULL branch
			return
		}
		for _, m := range o.matches(cc) {
			place(te.child, m, l.fanByCC[te.child][cc])
			expand(k + 1)
		}
		vacate(te.child)
	}
	anchor := func(ti int, r int32) {
		place(ti, r, l.fanOne[ti])
		expand(0)
		vacate(ti)
	}
	for r := 0; r < l.g.Tables[0].NumRows(); r++ {
		anchor(0, int32(r))
	}
	for _, te := range l.tree {
		for _, r := range l.dangling[te.child] {
			anchor(te.child, r)
		}
	}
}

// dictWithNull copies src's dictionary, appending — when withNull is set — a
// NULL sentinel past the greatest real value, and returns the copy in an
// otherwise empty column (no codes): the value-column prototype of the one
// join layout materialized and sampled views share.
func dictWithNull(name string, src *Column, withNull bool) (*Column, error) {
	out := &Column{Name: name, Kind: src.Kind}
	if err := src.dict().withNull(out, src, withNull); err != nil {
		return nil, err
	}
	return out, nil
}

// MultiJoinCardinality returns the exact inner-join size of the graph
// without materializing it, by dynamic programming up the edge tree: each
// node aggregates, per join-key code, the number of inner-join combinations
// its subtree produces. It is the ground-truth oracle behind the registry's
// fanout correction.
func MultiJoinCardinality(g *JoinGraph) (int64, error) {
	return MultiJoinCardinalityIndexed(g, nil)
}

// MultiJoinCardinalityIndexed is MultiJoinCardinality drawing its per-edge
// indexes from ix (nil builds fresh ones). The registry caches one
// JoinIndexes per graph view so exact subtree anchors never rebuild an
// edge's match index across calls.
func MultiJoinCardinalityIndexed(g *JoinGraph, ix *JoinIndexes) (int64, error) {
	tree, err := g.validate()
	if err != nil {
		return 0, err
	}
	// children[p] lists this node's outgoing tree edges; processing tree
	// edges in reverse visits every child before its parent. Each non-root
	// node has exactly one incoming edge, so its oriented index lives at
	// ors[child].
	children := make([][]treeEdge, len(g.Tables))
	ors := make([]oriented, len(g.Tables))
	for _, te := range tree {
		children[te.parent] = append(children[te.parent], te)
		ors[te.child] = ix.orientedFor(g, te)
	}
	// weight[c][code] is the number of inner-join combinations c's subtree
	// contributes for join-key code `code` of c's own key column.
	weight := make([][]int64, len(g.Tables))
	rowWeight := func(ti int, r int) int64 {
		w := int64(1)
		t := g.Tables[ti]
		for _, te := range children[ti] {
			ccode := ors[te.child].childCode(t.Cols[te.parentCol].Codes.At(r))
			if ccode < 0 {
				return 0
			}
			w *= weight[te.child][ccode]
			if w == 0 {
				return 0
			}
		}
		return w
	}
	for i := len(tree) - 1; i >= 0; i-- {
		te := tree[i]
		child := g.Tables[te.child]
		cc := child.Cols[te.childCol]
		m := make([]int64, cc.NumDistinct())
		for r := 0; r < child.NumRows(); r++ {
			if w := rowWeight(te.child, r); w != 0 {
				m[cc.Codes.At(r)] += w
			}
		}
		weight[te.child] = m
	}
	var total int64
	for r := 0; r < g.Tables[0].NumRows(); r++ {
		total += rowWeight(0, r)
	}
	return total, nil
}
