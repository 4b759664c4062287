package registry

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"

	"duet/internal/exec"
	"duet/internal/relation"
	"duet/internal/workload"
)

// JoinGraphSpec names the N-way join a graph view was materialized from: the
// base tables and the spanning tree of equi-join edges over them (the
// relation.MultiJoin shape). The router matches a query's join-clause set
// against the edge set orientation- and order-insensitively.
//
// Sample > 0 declares the view sampled-materialized with that budget: the
// registered table holds Sample rows drawn uniformly from the full outer
// join by relation.JoinSampler (same column layout, same dictionaries)
// instead of the join itself. Routing and predicate rewriting are unchanged;
// the only difference is that every exact-cardinality anchor — including the
// full edge set's — is computed from the registered base tables via the
// MultiJoinCardinality tree DP, never by counting view rows (which would be
// the sample size). Sampled views therefore require all their base tables
// registered before Add.
type JoinGraphSpec struct {
	Tables []string            `json:"tables"`
	Edges  []relation.JoinEdge `json:"edges"`
	Sample int                 `json:"sample,omitempty"`
}

// Key returns the canonical edge-set key the registry indexes graph views by.
func (s JoinGraphSpec) Key() string { return workload.JoinSetKey(s.Edges) }

func (s JoinGraphSpec) String() string { return s.Key() }

// Build materializes the view table the spec describes, named name, over the
// base tables that table returns for each of s.Tables: the full outer join
// (relation.MultiJoin) when Sample is 0, otherwise Sample rows drawn by a
// fresh relation.JoinSampler seeded with seed — returned too, because
// training a sampled view streams further draws from it
// (core.TrainConfig.Source) rather than re-reading the sample.
func (s JoinGraphSpec) Build(name string, table func(string) (*relation.Table, error), seed int64) (*relation.Table, *relation.JoinSampler, error) {
	g := &relation.JoinGraph{Tables: make([]*relation.Table, len(s.Tables)), Edges: s.Edges}
	for i, bn := range s.Tables {
		t, err := table(bn)
		if err != nil {
			return nil, nil, fmt.Errorf("base table %q: %w", bn, err)
		}
		g.Tables[i] = t
	}
	if s.Sample == 0 {
		view, err := relation.MultiJoin(name, g)
		return view, nil, err
	}
	sampler, err := relation.NewJoinSampler(g, seed)
	if err != nil {
		return nil, nil, err
	}
	view, err := sampler.SampleTable(name, s.Sample)
	return view, sampler, err
}

// graphView is the routing state of one generation of a join-graph view: the
// validated spec, the per-table column map over the materialized view, the
// presence predicate of every base table (its fanout column >= 1), the NULL
// sentinel code of every nullable view column, and the lazily computed exact
// inner-join count per queried subtree (the fanout-correction anchors the
// router calibrates estimates against).
type graphView struct {
	spec    JoinGraphSpec
	key     string
	view    *relation.Table
	sampled bool // view rows are a FOJ sample; never count them as exact
	tables  map[string]bool
	edges   map[relation.JoinEdge]bool // the spec's edges, canonical

	// ix caches the per-edge hash indexes every exact subtree anchor runs
	// on, so repeated Resolve calls (and different subtrees sharing edges)
	// never rebuild an edge's match index while its base tables stay.
	ix *relation.JoinIndexes

	colIdx   map[string]int                // view column name -> index
	presence map[string]workload.Predicate // base table -> fanout>=1 predicate
	nullCode map[int]int32                 // view column index -> NULL sentinel code

	mu   sync.Mutex
	corr map[string]anchor // canonical subtree key -> exact inner-join count
}

// anchor is one cached exact inner-join count and the base tables it was
// counted over (nil when counted on the view itself). A route that looks up
// other base tables — one was swapped since — recounts and replaces it.
type anchor struct {
	base  map[string]*relation.Table
	exact float64
}

// newGraphView validates a spec against its materialized view table. The view
// must carry, for every base table, a fanout column (relation.FanoutColumn)
// and "<table>_<col>"-named value columns (relation.JoinViewColumn) — the
// layout relation.MultiJoin produces.
func newGraphView(spec JoinGraphSpec, view *relation.Table) (*graphView, error) {
	if spec.Sample < 0 {
		return nil, fmt.Errorf("registry: join graph sample budget must be >= 0, got %d", spec.Sample)
	}
	if _, err := relation.SpanningTree(spec.Tables, spec.Edges); err != nil {
		return nil, err
	}
	v := &graphView{
		spec:     spec,
		key:      spec.Key(),
		view:     view,
		sampled:  spec.Sample > 0,
		tables:   make(map[string]bool, len(spec.Tables)),
		edges:    make(map[relation.JoinEdge]bool, len(spec.Edges)),
		ix:       relation.NewJoinIndexes(),
		colIdx:   make(map[string]int, view.NumCols()),
		presence: make(map[string]workload.Predicate, len(spec.Tables)),
		nullCode: make(map[int]int32),
		corr:     make(map[string]anchor),
	}
	for _, t := range spec.Tables {
		v.tables[t] = true
	}
	for _, e := range spec.Edges {
		v.edges[e.Canonical()] = true
	}
	for i, c := range view.Cols {
		v.colIdx[c.Name] = i
		// Reject views whose "<table>_<col>" names cannot be attributed to
		// one base table — predicate rewriting and NULL-sentinel tracking
		// would guess wrong (relation.MultiJoin refuses to build these; this
		// guards hand-assembled views).
		owners := 0
		for _, t := range spec.Tables {
			if strings.HasPrefix(c.Name, relation.JoinViewColumn(t, "")) {
				owners++
			}
		}
		if owners > 1 {
			return nil, fmt.Errorf("registry: view column %q is ambiguous between several base tables; rename table or column", c.Name)
		}
	}
	// Presence predicates and NULL sentinels. A base table is absent from a
	// view row exactly when its fanout is 0; when any row misses the table,
	// its value columns carry a NULL sentinel as their greatest code.
	for _, t := range spec.Tables {
		fi, ok := v.colIdx[relation.FanoutColumn(t)]
		if !ok {
			return nil, fmt.Errorf("registry: view %q lacks fanout column %q; materialize graph views with relation.MultiJoin", view.Name, relation.FanoutColumn(t))
		}
		fc := view.Cols[fi]
		if fc.Kind != relation.KindInt {
			return nil, fmt.Errorf("registry: fanout column %q is %v, want int", fc.Name, fc.Kind)
		}
		present, _ := fc.CodeOfInt(1)
		v.presence[t] = workload.Predicate{Col: fi, Op: workload.OpGe, Code: present}
		if fc.NumDistinct() > 0 && fc.Ints[0] == 0 {
			// Some rows miss this table: every value column of t is nullable.
			prefix := relation.JoinViewColumn(t, "")
			for ci, c := range view.Cols {
				if strings.HasPrefix(c.Name, prefix) && ownerTable(spec.Tables, c.Name) == t {
					v.nullCode[ci] = int32(c.NumDistinct()) - 1
				}
			}
		}
	}
	return v, nil
}

// ownerTable resolves which base table a "<table>_<col>" view column belongs
// to, preferring the longest matching table-name prefix so a table "a" and a
// table "a_b" cannot claim each other's columns.
func ownerTable(tables []string, viewCol string) string {
	best := ""
	for _, t := range tables {
		if len(t) > len(best) && strings.HasPrefix(viewCol, relation.JoinViewColumn(t, "")) {
			best = t
		}
	}
	return best
}

// mapColumn rewrites a base-table-qualified column onto the view's
// materialized "<table>_<col>" column.
func (v *graphView) mapColumn(table, column string) (string, error) {
	if !v.tables[table] {
		return "", fmt.Errorf("registry: table %q is not part of the join graph %s", table, v.spec)
	}
	name := relation.JoinViewColumn(table, column)
	if _, ok := v.colIdx[name]; !ok {
		return "", fmt.Errorf("registry: join view %q has no column %q (from %s.%s)", v.view.Name, name, table, column)
	}
	return name, nil
}

// presencePreds returns the fanout>=1 predicates restricting the view to rows
// where every named table participates — the rows of the inner join over the
// queried subtree. Tables are visited in sorted order so the emitted query is
// deterministic.
func (v *graphView) presencePreds(tables []string) []workload.Predicate {
	sorted := append([]string(nil), tables...)
	sort.Strings(sorted)
	out := make([]workload.Predicate, 0, len(sorted))
	for _, t := range sorted {
		out = append(out, v.presence[t])
	}
	return out
}

// clampNull appends, when the resolved predicate's code interval would reach
// the column's NULL sentinel (ops > and >= open upward), a "< NULL" bound so
// the estimator never counts padding rows inside a value range.
func (v *graphView) clampNull(preds []workload.Predicate, p workload.Predicate) []workload.Predicate {
	preds = append(preds, p)
	if nc, ok := v.nullCode[p.Col]; ok && (p.Op == workload.OpGt || p.Op == workload.OpGe) {
		preds = append(preds, workload.Predicate{Col: p.Col, Op: workload.OpLt, Code: nc})
	}
	return preds
}

// exactJoin returns the exact inner-join cardinality of the subtree the
// clauses describe — the fanout-correction anchor the router calibrates
// estimates against. For a fully materialized view's full edge set it is the
// count of view rows where every table participates (the full outer join
// restricted to its inner rows); for a proper subset — and for every query
// against a sampled view, whose rows are a FOJ sample, not the FOJ — it is
// computed with the relation.MultiJoinCardinality tree DP over the view's
// cached per-edge indexes, from the base tables the route looked up. Each
// count is cached per subtree until base changes.
func (v *graphView) exactJoin(clauses []relation.JoinEdge, tables []string, base map[string]*relation.Table) (float64, error) {
	key := workload.JoinSetKey(clauses)
	if key == v.key && !v.sampled {
		base = nil // counted on the view; no base table enters
	}
	v.mu.Lock()
	a, ok := v.corr[key]
	v.mu.Unlock()
	if ok && maps.Equal(a.base, base) {
		return a.exact, nil
	}

	var exact int64
	if base == nil {
		exact = exec.Cardinality(v.view, workload.Query{Preds: v.presencePreds(tables)})
	} else {
		baseTables := make([]*relation.Table, 0, len(tables))
		var missing []string
		for _, t := range tables {
			bt, ok := base[t]
			if !ok {
				missing = append(missing, t)
				continue
			}
			baseTables = append(baseTables, bt)
		}
		if len(missing) > 0 {
			return 0, fmt.Errorf("registry: fanout correction for the join %q needs base tables %s registered alongside view %q",
				key, strings.Join(missing, ", "), v.view.Name)
		}
		for _, c := range clauses {
			if !v.edges[c.Canonical()] {
				return 0, fmt.Errorf("registry: clause %s is not an edge of view %q", c, v.view.Name)
			}
		}
		var err error
		if exact, err = relation.MultiJoinCardinalityIndexed(&relation.JoinGraph{Tables: baseTables, Edges: clauses}, v.ix); err != nil {
			return 0, err
		}
	}
	v.mu.Lock()
	v.corr[key] = anchor{base: base, exact: float64(exact)}
	v.mu.Unlock()
	return float64(exact), nil
}
