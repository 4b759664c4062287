package relation

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// JoinSamplerConfig tunes NewJoinSampler.
type JoinSamplerConfig struct {
	// Seed drives the sampler's deterministic RNG: equal seeds over equal
	// graphs draw equal tuple streams.
	Seed int64
	// Indexes, when non-nil, shares per-edge hash indexes with other
	// operations over the same base tables (MultiJoinIndexed,
	// MultiJoinCardinalityIndexed).
	Indexes *JoinIndexes
}

// JoinSampler draws unbiased uniform samples from the full outer join of a
// join graph without ever materializing it — the NeuroCard insight that
// makes training memory independent of join cardinality. Construction
// precomputes, per edge, the code-level hash index (shared with MultiJoin)
// and, per base-table row, its downward fanout weight: the number of
// full-outer-join rows the row's subtree expands into (a tree DP like
// MultiJoinCardinality's, with outer-join semantics — a missing child
// contributes one NULL branch instead of annihilating the row). A draw then
// picks an anchor — a root row, or a dangling row that the outer join
// preserves below its missing parent — proportionally to its weight (a
// Walker alias table over the anchor weights makes this O(1) regardless of
// base-table size) and descends each edge choosing one match proportionally
// to the match's own subtree weight, which makes every full-outer-join row
// exactly equally likely.
//
// Sampled tuples use the exact column layout MultiJoin materializes —
// "<table>_<col>" value columns over the unchanged source dictionaries (plus
// the NULL sentinel when the table can be absent), a FanoutColumn per table —
// so a model trained on sampler draws is drop-in compatible with the
// registry's join-graph router and Resolution path. The layout, including
// every dictionary, depends only on the graph (never on the draws), so two
// samplers over the same base tables produce interchangeable tables and
// saved models reload against any of them.
//
// All precomputed state is O(base-table rows); a draw allocates nothing.
// The sampler is deterministic and not safe for concurrent use (like
// Model.Estimate, callers serialize or clone).
type JoinSampler struct {
	g        *JoinGraph
	nt       int
	tree     []treeEdge
	children [][]treeEdge
	ors      []oriented // incoming-edge view per non-root table
	par      []int      // parent table index, -1 for the root

	f   [][]float64 // f[t][r]: FOJ rows subtree(t) expands into from row r
	s   [][]float64 // s[c][code]: sum of f[c] over the code's match group
	cum [][]float64 // cum[c]: per-group running sums of f[c], CSR-aligned

	anchorTable []int32
	anchorRow   []int32
	anchorPick  aliasTable
	total       float64

	canBeAbsent []bool
	dangling    [][]int32

	cols     []*Column // dictionary prototypes in view column order
	colBase  []int     // first view column of each table's value columns
	fanIdx   []int     // view column index of each table's fanout column
	fanOne   []int32   // fanout-dict code of value 1 (anchor rows)
	fanByCC  [][]int32 // per table: key code -> fanout-dict code of its group size
	template []int32   // all-absent row codes

	rng    *rand.Rand
	rowBuf []int32
}

// NewJoinSampler validates the graph and precomputes the sampler's indexes,
// weights and view layout.
func NewJoinSampler(g *JoinGraph, cfg JoinSamplerConfig) (*JoinSampler, error) {
	tree, err := g.validate()
	if err != nil {
		return nil, err
	}
	nt := len(g.Tables)
	s := &JoinSampler{
		g: g, nt: nt, tree: tree,
		children: make([][]treeEdge, nt),
		ors:      make([]oriented, nt),
		par:      make([]int, nt),
		f:        make([][]float64, nt),
		s:        make([][]float64, nt),
		cum:      make([][]float64, nt),
		dangling: make([][]int32, nt),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := range s.par {
		s.par[i] = -1
	}
	for _, te := range tree {
		s.children[te.parent] = append(s.children[te.parent], te)
		s.ors[te.child] = cfg.Indexes.orientedFor(g, te)
		s.par[te.child] = te.parent
	}
	// Dangling rows: child rows whose key value no parent row carries.
	for _, te := range tree {
		c := te.child
		cc := g.Tables[c].Cols[te.childCol]
		for r := 0; r < g.Tables[c].NumRows(); r++ {
			if s.ors[c].dangling(cc.Codes.At(r)) {
				s.dangling[c] = append(s.dangling[c], int32(r))
			}
		}
	}
	s.computeWeights()
	s.computeAbsent()
	if err := s.buildLayout(); err != nil {
		return nil, err
	}
	s.buildAnchors()
	if !(s.total > 0) {
		return nil, fmt.Errorf("relation: join graph %q has an empty full outer join; nothing to sample", g.Tables[0].Name)
	}
	s.rowBuf = make([]int32, len(s.cols))
	return s, nil
}

// rowF multiplies, over the row's outgoing edges, the FOJ expansions of each
// child subtree: the matched group's weight sum, or 1 for the NULL branch a
// full outer join keeps when there is no match.
func (s *JoinSampler) rowF(ti, r int) float64 {
	w := 1.0
	t := s.g.Tables[ti]
	for _, te := range s.children[ti] {
		if cc := s.ors[te.child].childCode(t.Cols[te.parentCol].Codes.At(r)); cc >= 0 {
			w *= s.s[te.child][cc]
		}
	}
	return w
}

// computeWeights runs the outer-join tree DP bottom-up (reverse BFS order
// visits children before parents) and builds the per-group cumulative
// weights weighted descent binary-searches.
func (s *JoinSampler) computeWeights() {
	for i := len(s.tree) - 1; i >= -1; i-- {
		ti := 0
		if i >= 0 {
			ti = s.tree[i].child
		}
		fc := make([]float64, s.g.Tables[ti].NumRows())
		for r := range fc {
			fc[r] = s.rowF(ti, r)
		}
		s.f[ti] = fc
		if ti == 0 {
			continue
		}
		side := s.ors[ti].child
		sums := make([]float64, len(side.start)-1)
		cums := make([]float64, len(side.rows))
		for code := range sums {
			run := 0.0
			for pos := side.start[code]; pos < side.start[code+1]; pos++ {
				run += fc[side.rows[pos]]
				cums[pos] = run
			}
			sums[code] = run
		}
		s.s[ti] = sums
		s.cum[ti] = cums
	}
}

// computeAbsent determines, exactly and per table, whether any FOJ row
// misses it — which decides NULL sentinels, so the sampled layout matches
// what MultiJoin would materialize without materializing anything.
//
// A table u is absent from some FOJ row iff (a) a dangling anchor exists at
// a table that is neither u nor one of u's ancestors (those rows never reach
// u's branch), or (b) walking down from some anchor above u, some anchored
// row's expansion breaks before u: a row of a node on the root→u path whose
// key has no match in the next node toward u.
func (s *JoinSampler) computeAbsent() {
	abs := make([]bool, s.nt)
	for _, d := range s.dangling {
		if len(d) > 0 {
			abs[0] = true // every dangling anchor's rows miss the root
			break
		}
	}
	for u := 1; u < s.nt; u++ {
		path := []int{u} // u up to the root
		for v := s.par[u]; v >= 0; v = s.par[v] {
			path = append(path, v)
		}
		anc := make([]bool, s.nt)
		for _, v := range path[1:] {
			anc[v] = true
		}
		for d := 0; d < s.nt && !abs[u]; d++ {
			if d != u && !anc[d] && len(s.dangling[d]) > 0 {
				abs[u] = true
			}
		}
		// Bottom-up along the path: groupMiss[code] records whether some row
		// of the node below, in that key group, can expand to a row missing u.
		groupMiss := make([]bool, len(s.ors[u].child.start)-1)
		below := u
		for k := 1; k < len(path) && !abs[u]; k++ {
			v := path[k]
			t := s.g.Tables[v]
			var pcol *Column
			for _, te := range s.children[v] {
				if te.child == below {
					pcol = t.Cols[te.parentCol]
					break
				}
			}
			rowMiss := func(r int) bool {
				cc := s.ors[below].childCode(pcol.Codes.At(r))
				return cc < 0 || groupMiss[cc]
			}
			if v == 0 {
				for r := 0; r < t.NumRows() && !abs[u]; r++ {
					if rowMiss(r) {
						abs[u] = true
					}
				}
				break
			}
			for _, r := range s.dangling[v] {
				if rowMiss(int(r)) {
					abs[u] = true
					break
				}
			}
			if abs[u] {
				break
			}
			vside := s.ors[v].child
			next := make([]bool, len(vside.start)-1)
			for r := 0; r < t.NumRows(); r++ {
				if rowMiss(r) {
					next[vside.col.Codes.At(r)] = true
				}
			}
			groupMiss = next
			below = v
		}
	}
	s.canBeAbsent = abs
}

// buildLayout fixes the sampled view's column prototypes: per table its
// value columns (source dictionary, NULL sentinel iff the table can be
// absent) then its fanout column, whose dictionary enumerates exactly the
// fanout values the full FOJ realizes (0 when absence is possible, 1 for
// anchors, and every match-group size reachable through the parent).
func (s *JoinSampler) buildLayout() error {
	g := s.g
	names := make(map[string]bool)
	tableNames := make([]string, s.nt)
	for i, t := range g.Tables {
		tableNames[i] = t.Name
	}
	s.colBase = make([]int, s.nt)
	s.fanIdx = make([]int, s.nt)
	s.fanOne = make([]int32, s.nt)
	s.fanByCC = make([][]int32, s.nt)
	for ti, t := range g.Tables {
		s.colBase[ti] = len(s.cols)
		for _, src := range t.Cols {
			cn := JoinViewColumn(t.Name, src.Name)
			if names[cn] {
				return fmt.Errorf("relation: join view column %q collides; rename table or column", cn)
			}
			for _, other := range tableNames {
				if other != t.Name && strings.HasPrefix(cn, JoinViewColumn(other, "")) {
					return fmt.Errorf("relation: join view column %q is ambiguous between tables %q and %q; rename table or column", cn, t.Name, other)
				}
			}
			names[cn] = true
			col, err := dictWithNull(cn, src, s.canBeAbsent[ti])
			if err != nil {
				return err
			}
			s.cols = append(s.cols, col)
		}
		fn := FanoutColumn(t.Name)
		if names[fn] {
			return fmt.Errorf("relation: join view column %q collides; rename table or column", fn)
		}
		names[fn] = true
		vals := map[int64]bool{}
		if s.canBeAbsent[ti] {
			vals[0] = true
		}
		if ti == 0 {
			vals[1] = true
		} else {
			if len(s.dangling[ti]) > 0 {
				vals[1] = true
			}
			o := s.ors[ti]
			for _, cc := range o.parent.toOther {
				if cc >= 0 {
					vals[int64(o.groupSize(cc))] = true
				}
			}
		}
		dict := make([]int64, 0, len(vals))
		for v := range vals {
			dict = append(dict, v)
		}
		sort.Slice(dict, func(i, j int) bool { return dict[i] < dict[j] })
		fanCol := &Column{Name: fn, Kind: KindInt, Ints: dict}
		s.fanIdx[ti] = len(s.cols)
		s.cols = append(s.cols, fanCol)
		s.fanOne[ti] = fanDictCode(dict, 1)
		if ti > 0 {
			o := s.ors[ti]
			byCC := make([]int32, len(o.child.start)-1)
			for cc := range byCC {
				byCC[cc] = fanDictCode(dict, int64(o.groupSize(int32(cc))))
			}
			s.fanByCC[ti] = byCC
		}
	}
	// The all-absent template: NULL sentinel codes on value columns, fanout 0.
	s.template = make([]int32, len(s.cols))
	for ti, t := range g.Tables {
		for si, src := range t.Cols {
			if s.canBeAbsent[ti] {
				s.template[s.colBase[ti]+si] = int32(src.NumDistinct())
			}
		}
		s.template[s.fanIdx[ti]] = fanDictCode(s.cols[s.fanIdx[ti]].Ints, 0)
		if s.template[s.fanIdx[ti]] < 0 {
			s.template[s.fanIdx[ti]] = 0 // table can never be absent: overwritten on every draw
		}
	}
	return nil
}

// fanDictCode locates v in a sorted fanout dictionary, -1 when absent.
func fanDictCode(dict []int64, v int64) int32 {
	i := sort.Search(len(dict), func(k int) bool { return dict[k] >= v })
	if i < len(dict) && dict[i] == v {
		return int32(i)
	}
	return -1
}

// buildAnchors lays out the weighted anchor choice: every root row, then
// every dangling row, behind a Walker alias table so an anchor draw is O(1)
// instead of a binary search over O(base rows) cumulative weights.
func (s *JoinSampler) buildAnchors() {
	var weights []float64
	add := func(ti int, r int32) {
		weights = append(weights, s.f[ti][r])
		s.anchorTable = append(s.anchorTable, int32(ti))
		s.anchorRow = append(s.anchorRow, r)
	}
	for r := 0; r < s.g.Tables[0].NumRows(); r++ {
		add(0, int32(r))
	}
	for ti := 1; ti < s.nt; ti++ {
		for _, r := range s.dangling[ti] {
			add(ti, r)
		}
	}
	s.total = 0
	for _, w := range weights {
		s.total += w
	}
	if s.total > 0 {
		s.anchorPick = newAliasTable(weights)
	}
}

// NumCols returns the number of view columns a drawn tuple spans.
func (s *JoinSampler) NumCols() int { return len(s.cols) }

// Total returns the exact number of rows of the full outer join the sampler
// draws from (exact while it fits a float64 mantissa, i.e. below 2^53) —
// what MultiJoin would materialize.
func (s *JoinSampler) Total() int64 { return int64(math.Round(s.total)) }

// Draw fills dst (len >= NumCols, allocated when nil) with the dictionary
// codes of one uniformly drawn full-outer-join row and returns it.
func (s *JoinSampler) Draw(dst []int32) []int32 {
	if dst == nil {
		dst = make([]int32, len(s.cols))
	}
	copy(dst, s.template)
	i := int(s.anchorPick.draw(s.rng))
	ti := int(s.anchorTable[i])
	dst[s.fanIdx[ti]] = s.fanOne[ti]
	s.descend(ti, int(s.anchorRow[i]), dst)
	return dst
}

// descend writes row r of table ti into dst and recursively samples one
// match per outgoing edge, each proportionally to its subtree weight.
func (s *JoinSampler) descend(ti, r int, dst []int32) {
	t := s.g.Tables[ti]
	base := s.colBase[ti]
	for si, src := range t.Cols {
		dst[base+si] = src.Codes.At(r)
	}
	for _, te := range s.children[ti] {
		c := te.child
		o := s.ors[c]
		cc := o.childCode(t.Cols[te.parentCol].Codes.At(r))
		if cc < 0 {
			continue // NULL branch: the template already marks c's subtree absent
		}
		dst[s.fanIdx[c]] = s.fanByCC[c][cc]
		side := o.child
		st, en := side.start[cc], side.start[cc+1]
		target := s.rng.Float64() * s.s[c][cc]
		cums := s.cum[c]
		pos := int(st) + sort.Search(int(en-st), func(k int) bool { return cums[int(st)+k] > target })
		if pos >= int(en) {
			pos = int(en) - 1
		}
		s.descend(c, int(side.rows[pos]), dst)
	}
}

// DrawTuples fills each dst[i] with one drawn tuple — the core.TupleSource
// contract training draws its batches through.
func (s *JoinSampler) DrawTuples(dst [][]int32) {
	for i := range dst {
		dst[i] = s.Draw(dst[i])
	}
}

// SampleTable draws n tuples and materializes them as a table in the exact
// MultiJoin view layout (the dictionaries are the precomputed prototypes, so
// the table's NDV profile is independent of the draws). It is the
// sample-budget substrate a sampled join-graph view registers and trains
// against: memory is O(n), never O(join size).
func (s *JoinSampler) SampleTable(name string, n int) (*Table, error) {
	if n <= 0 {
		return nil, fmt.Errorf("relation: sample budget must be positive, got %d", n)
	}
	codes := make([][]int32, len(s.cols))
	for c := range codes {
		codes[c] = make([]int32, n)
	}
	for i := 0; i < n; i++ {
		s.Draw(s.rowBuf)
		for c := range codes {
			codes[c][i] = s.rowBuf[c]
		}
	}
	cols := make([]*Column, len(s.cols))
	for c, proto := range s.cols {
		cols[c] = &Column{Name: proto.Name, Kind: proto.Kind,
			Ints: proto.Ints, Floats: proto.Floats, Strs: proto.Strs, Codes: I32Codes(codes[c])}
	}
	return NewTable(name, cols), nil
}
