package registry

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"duet/internal/relation"
	"duet/internal/workload"
)

// Resolution is the outcome of routing one textual expression: the model that
// answers it and the query rewritten onto that model's table. Join-graph
// routes additionally carry a fanout calibration — Exact is the exact
// inner-join cardinality of the queried subtree and Calib the presence-only
// query — under which the estimate is
//
//	Exact * clamp01(est(Query) / est(Calib))
//
// i.e. the model supplies the conditional selectivity of the value
// predicates given that every queried table participates, and the known join
// size anchors it. The ratio cancels the model's error on the presence
// (fanout) columns and downscales rows the excluded tables fanned out, so a
// query with no value predicates returns Exact itself. Legacy two-table and
// single-table routes leave Calib nil (the estimate is est(Query),
// unchanged).
type Resolution struct {
	Model string
	Query workload.Query
	Calib *workload.Query
	Exact float64

	gen *generation // routed on; pinned until estimated, nil once released
}

// estimate combines the predicate and calibration estimates into the final
// cardinality for this resolution.
func (res Resolution) estimate(pred, calib float64) float64 {
	if res.Calib == nil {
		return pred
	}
	if len(res.Query.Preds) == len(res.Calib.Preds) {
		// No value predicates: the answer is the exact join size.
		return res.Exact
	}
	if !(calib > 0) || !(pred > 0) {
		return 0
	}
	ratio := pred / calib
	if ratio > 1 {
		ratio = 1
	}
	return res.Exact * ratio
}

// Resolve routes a textual conjunctive expression. target selects a model by
// name; an empty target falls back to the sole registered model, the model
// the predicate qualifiers infer, or — for expressions with join clauses —
// the registered view whose join matches the clause set.
//
// Join queries resolve orientation- and order-insensitively: a single clause
// first against the legacy two-table views, then any clause set against the
// join-graph views, either exactly (the query's joins are the view's edge
// set) or as a connected subset of a larger view's edges, in which case the
// resolution carries the fanout-correction scale. Predicates in join queries
// must qualify every column with one of the joined base-table names; the
// router rewrites them through the view's per-table column map and restricts
// the view to rows where every queried table participates (the NeuroCard-
// style reduction of join estimation to a single-table query over a full
// outer join with fanout columns). Resolve is for inspection; Query routes
// and estimates on one generation.
func (r *Registry) Resolve(target, expr string) (Resolution, error) {
	res, err := r.resolve(target, expr)
	if err != nil {
		return Resolution{}, err
	}
	res.gen.release()
	res.gen = nil
	return res, nil
}

// resolve routes an expression and returns the resolution with the
// generation it was routed on still pinned; the caller releases it.
func (r *Registry) resolve(target, expr string) (Resolution, error) {
	rq, err := workload.ParseRaw(expr)
	if err != nil {
		return Resolution{}, err
	}
	if len(rq.Joins) == 0 {
		return r.routeSingle(target, rq)
	}
	if len(rq.Joins) == 1 {
		// Legacy two-table views keep first claim on single-clause joins so
		// existing deployments route bitwise-identically.
		if res, ok, err := r.routeLegacyJoin(target, rq); ok || err != nil {
			return res, err
		}
	}
	return r.routeGraph(target, rq)
}

// routeSingle resolves a join-free expression against a named (or the sole)
// model. Qualified predicate columns must name the model's base table — or,
// when the target is a join view, one of its joined tables, in which case
// they are rewritten onto the view's columns (and, for graph views, the view
// is restricted to rows where the qualified tables participate, matching SQL
// semantics of predicates over a full outer join).
func (r *Registry) routeSingle(target string, rq workload.RawQuery) (res Resolution, err error) {
	r.mu.RLock()
	name := target
	if name == "" && !r.closed {
		name, err = r.inferTargetLocked(rq)
	}
	if name == "" && err == nil {
		name, err = r.soleModelLocked()
	}
	var e *entry
	var g *generation
	if err == nil {
		e, g, err = r.pinLocked(name)
	}
	r.mu.RUnlock()
	if err != nil {
		return Resolution{}, err
	}
	defer releaseOnError(g, &err)
	table, graph := g.table, g.graph
	var q workload.Query
	graphTables := map[string]bool{}
	for _, rp := range rq.Preds {
		col := rp.Column
		switch {
		case rp.Table == "" || rp.Table == table.Name || rp.Table == name:
			// Unqualified, or qualified with the served table/model name.
		case e.join != nil:
			mapped, err := legacyColumn(*e.join, rp.Table, rp.Column)
			if err != nil {
				return Resolution{}, err
			}
			col = mapped
		case graph != nil:
			mapped, err := graph.mapColumn(rp.Table, rp.Column)
			if err != nil {
				return Resolution{}, err
			}
			col = mapped
			graphTables[rp.Table] = true
		default:
			return Resolution{}, fmt.Errorf("registry: predicate on %s.%s does not match model %q (table %q)", rp.Table, rp.Column, name, table.Name)
		}
		p, err := workload.ResolvePredicate(table, col, rp.Op, rp.Lit)
		if err != nil {
			return Resolution{}, err
		}
		if graph != nil {
			q.Preds = graph.clampNull(q.Preds, p)
		} else {
			q.Preds = append(q.Preds, p)
		}
	}
	if len(graphTables) > 0 {
		q.Preds = append(q.Preds, graph.presencePreds(slices.Collect(maps.Keys(graphTables)))...)
	}
	r.met.routed.Inc()
	return Resolution{Model: name, Query: q, gen: g}, nil
}

// releaseOnError drops a route's pin when the route fails after taking it.
func releaseOnError(g *generation, err *error) {
	if *err != nil {
		g.release()
	}
}

// routeLegacyJoin resolves a single join clause against the legacy two-table
// views. It reports ok=false — with no error — when no legacy view serves the
// clause, letting the caller fall through to the join-graph views.
func (r *Registry) routeLegacyJoin(target string, rq workload.RawQuery) (res Resolution, ok bool, err error) {
	clause := rq.Joins[0]
	var e *entry
	var g *generation
	r.mu.RLock()
	name, ok, err := r.legacyViewLocked(target, clause)
	if ok && err == nil {
		e, g, err = r.pinLocked(name)
	}
	r.mu.RUnlock()
	if !ok || err != nil {
		return Resolution{}, ok, err
	}
	defer releaseOnError(g, &err)
	var q workload.Query
	for _, rp := range rq.Preds {
		if rp.Table == "" {
			return Resolution{}, true, fmt.Errorf("registry: predicate on %q in a join query must be qualified with %q or %q", rp.Column, e.join.LeftTable, e.join.RightTable)
		}
		col, err := legacyColumn(*e.join, rp.Table, rp.Column)
		if err != nil {
			return Resolution{}, true, err
		}
		p, err := workload.ResolvePredicate(g.table, col, rp.Op, rp.Lit)
		if err != nil {
			return Resolution{}, true, err
		}
		q.Preds = append(q.Preds, p)
	}
	r.met.routed.Inc()
	r.met.joinRouted.Inc()
	return Resolution{Model: name, Query: q, gen: g}, true, nil
}

// legacyViewLocked names the legacy two-table view serving clause; ok=false
// with no error when none does or target names a join-graph view (the graph
// router then checks the target serves the clause set). Callers hold r.mu.
func (r *Registry) legacyViewLocked(target string, clause relation.JoinEdge) (name string, ok bool, err error) {
	if r.closed {
		return "", false, ErrClosed
	}
	name, ok = r.joins[clause.Canonical()]
	if !ok || target == "" || target == name {
		return name, ok, nil
	}
	if te, tok := r.entries[target]; tok && te.gen.graph != nil {
		return "", false, nil
	}
	return "", false, fmt.Errorf("registry: model %q does not serve the join %q (view %q does)", target, clause, name)
}

// routeGraph resolves a join-clause set against the registered join-graph
// views: exactly when the set equals a view's edge set, or as a connected
// subset of the smallest view containing every clause, with fanout
// correction, anchored on base tables looked up as the view is pinned.
func (r *Registry) routeGraph(target string, rq workload.RawQuery) (res Resolution, err error) {
	clauses := rq.Joins
	key := workload.JoinSetKey(clauses)
	qTables := rq.JoinTables()

	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return Resolution{}, ErrClosed
	}
	var g *generation
	var base map[string]*relation.Table
	connected := relation.Connected(clauses)
	e := r.graphViewLocked(clauses, key, target, connected)
	if e != nil {
		g = e.gen
		g.pins.Add(1)
		base = r.baseTablesLocked(qTables)
	}
	r.mu.RUnlock()
	if e == nil {
		if target != "" {
			return Resolution{}, fmt.Errorf("registry: model %q does not serve the join %q", target, key)
		}
		if !connected {
			return Resolution{}, fmt.Errorf("registry: join clauses %q do not connect into one tree; a single view answers only connected joins", key)
		}
		distinct := map[relation.JoinEdge]bool{}
		for _, c := range clauses {
			distinct[c.Canonical()] = true
		}
		if len(distinct) != len(qTables)-1 {
			return Resolution{}, fmt.Errorf("registry: join clauses %q do not form a tree (they join %d tables with %d distinct clauses); every join view is a tree, so none can serve them",
				key, len(qTables), len(distinct))
		}
		return Resolution{}, fmt.Errorf("registry: no join view registered for %q; declare one over tables %s in a manifest and train it with duettrain -manifest FILE -join NAME",
			key, strings.Join(qTables, ", "))
	}
	defer releaseOnError(g, &err)
	name, v := e.name, g.graph
	if target != "" && target != name {
		return Resolution{}, fmt.Errorf("registry: model %q does not serve the join %q (view %q does)", target, key, name)
	}

	// Restrict to rows where every queried table participates, then rewrite
	// the value predicates through the per-table column map. The presence-only
	// restriction doubles as the calibration query.
	presence := v.presencePreds(qTables)
	q := workload.Query{Preds: presence[:len(presence):len(presence)]}
	inQuery := map[string]bool{}
	for _, t := range qTables {
		inQuery[t] = true
	}
	for _, rp := range rq.Preds {
		if rp.Table == "" {
			return Resolution{}, fmt.Errorf("registry: predicate on %q in a join query must be qualified with one of the joined tables (%s)", rp.Column, strings.Join(qTables, ", "))
		}
		if !inQuery[rp.Table] {
			if v.tables[rp.Table] {
				return Resolution{}, fmt.Errorf("registry: predicate on %s.%s references a table the query does not join; add its join clause", rp.Table, rp.Column)
			}
			return Resolution{}, fmt.Errorf("registry: table %q is not part of the join graph %s", rp.Table, v.spec)
		}
		col, err := v.mapColumn(rp.Table, rp.Column)
		if err != nil {
			return Resolution{}, err
		}
		p, err := workload.ResolvePredicate(v.view, col, rp.Op, rp.Lit)
		if err != nil {
			return Resolution{}, err
		}
		q.Preds = v.clampNull(q.Preds, p)
	}
	exactCard, err := v.exactJoin(clauses, qTables, base)
	if err != nil {
		return Resolution{}, err
	}
	r.met.routed.Inc()
	r.met.joinRouted.Inc()
	return Resolution{Model: name, Query: q, Calib: &workload.Query{Preds: presence}, Exact: exactCard, gen: g}, nil
}

// graphViewLocked picks the join-graph view serving a clause set: the view
// whose edge set is exactly the set, else — for a connected set — the
// smallest view whose edge set contains every clause (fewest tables, then
// fewest view rows, then name, so the choice is deterministic). An explicit
// target restricts the subset candidates to that view. Callers hold r.mu.
func (r *Registry) graphViewLocked(clauses []relation.JoinEdge, key, target string, connected bool) *entry {
	if name, ok := r.graphs[key]; ok {
		return r.entries[name]
	}
	if !connected {
		return nil
	}
	var best *entry
	for n, e := range r.entries {
		g := e.gen.graph
		if g == nil || (target != "" && n != target) {
			continue
		}
		all := true
		for _, c := range clauses {
			if !g.edges[c.Canonical()] {
				all = false
				break
			}
		}
		if all && (best == nil || better(g, n, best.gen.graph, best.name)) {
			best = e
		}
	}
	return best
}

// better orders candidate subset views: fewer base tables, then fewer view
// rows, then name.
func better(g *graphView, gname string, cur *graphView, curName string) bool {
	if len(g.spec.Tables) != len(cur.spec.Tables) {
		return len(g.spec.Tables) < len(cur.spec.Tables)
	}
	if g.view.NumRows() != cur.view.NumRows() {
		return g.view.NumRows() < cur.view.NumRows()
	}
	return gname < curName
}

// inferTargetLocked resolves an unnamed target from predicate qualifiers: when
// every qualified predicate names the same registered model, that model is
// the target ("orders.amount<=10" needs no explicit model field). When the
// qualifiers match no model but appear in registered join views — one table
// across several views, or several tables that only a join would relate —
// the error names the candidate views instead of failing generically.
// Callers hold r.mu.
func (r *Registry) inferTargetLocked(rq workload.RawQuery) (string, error) {
	var qualifiers []string
	seen := map[string]bool{}
	for _, rp := range rq.Preds {
		if rp.Table != "" && !seen[rp.Table] {
			seen[rp.Table] = true
			qualifiers = append(qualifiers, rp.Table)
		}
	}
	if len(qualifiers) == 0 {
		return "", nil
	}
	if len(r.entries) == 1 {
		// A sole registered model resolves regardless of qualifiers (the
		// pre-join-graph behavior): routeSingle maps or rejects them against
		// it with a per-predicate error.
		return "", nil
	}
	if len(qualifiers) == 1 {
		t := qualifiers[0]
		if _, ok := r.entries[t]; ok {
			return t, nil
		}
		if views := r.viewsCoveringLocked(qualifiers); len(views) > 0 {
			return "", fmt.Errorf("registry: predicates qualify %q, which is not a registered model; it is joined by views %s — set one as the model or add its join clause",
				t, strings.Join(views, ", "))
		}
		return "", nil
	}
	sort.Strings(qualifiers)
	views := r.viewsCoveringLocked(qualifiers)
	if len(views) == 0 {
		return "", fmt.Errorf("registry: predicates span tables %s but carry no join clause, and no registered join view covers them",
			strings.Join(qualifiers, ", "))
	}
	return "", fmt.Errorf("registry: predicates span tables %s but carry no join clause; candidate views: %s — add the join clause(s) or set the model explicitly",
		strings.Join(qualifiers, ", "), strings.Join(views, ", "))
}

// viewsCoveringLocked lists, sorted, the join views whose base tables include
// every given table. Callers hold r.mu.
func (r *Registry) viewsCoveringLocked(tables []string) []string {
	var out []string
	for name, e := range r.entries {
		covers := func(t string) bool {
			switch {
			case e.join != nil:
				return e.join.LeftTable == t || e.join.RightTable == t
			case e.gen.graph != nil:
				return e.gen.graph.tables[t]
			default:
				return false
			}
		}
		all := e.join != nil || e.gen.graph != nil
		for _, t := range tables {
			if !covers(t) {
				all = false
				break
			}
		}
		if all {
			out = append(out, fmt.Sprintf("%s (%s)", name, joinDesc(e)))
		}
	}
	sort.Strings(out)
	return out
}

// joinDesc renders the join a view serves, for error messages.
func joinDesc(e *entry) string {
	if e.join != nil {
		return e.join.String()
	}
	return e.gen.graph.key
}

// soleModelLocked returns the single registered model name, or an error
// telling the caller to disambiguate. Callers hold r.mu.
func (r *Registry) soleModelLocked() (string, error) {
	if r.closed {
		return "", ErrClosed
	}
	if len(r.entries) == 1 {
		for n := range r.entries {
			return n, nil
		}
	}
	names := slices.Sorted(maps.Keys(r.entries))
	return "", fmt.Errorf("registry: %d models registered (%s); specify one", len(r.entries), strings.Join(names, ", "))
}

// legacyColumn rewrites a base-table-qualified column onto the materialized
// columns of the legacy view over join j: left columns get the l_ prefix,
// right columns the r_ prefix, and the right join key — which EquiJoin
// deduplicates away — maps to the surviving l_<LeftCol>.
func legacyColumn(j relation.JoinEdge, table, column string) (string, error) {
	switch table {
	case j.LeftTable:
		return "l_" + column, nil
	case j.RightTable:
		if column == j.RightCol {
			return "l_" + j.LeftCol, nil
		}
		return "r_" + column, nil
	default:
		return "", fmt.Errorf("registry: table %q is not part of the join %s", table, j)
	}
}
