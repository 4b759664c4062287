package registry

import (
	"fmt"
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
// outer join with fanout columns).
func (r *Registry) Resolve(target, expr string) (Resolution, error) {
	rq, err := workload.ParseRaw(expr)
	if err != nil {
		return Resolution{}, err
	}
	if len(rq.Joins) == 0 {
		name, q, err := r.routeSingle(target, rq)
		if err != nil {
			return Resolution{}, err
		}
		return Resolution{Model: name, Query: q}, nil
	}
	if len(rq.Joins) == 1 {
		// Legacy two-table views keep first claim on single-clause joins so
		// existing deployments route bitwise-identically.
		if name, q, ok, err := r.routeLegacyJoin(target, rq); ok || err != nil {
			if err != nil {
				return Resolution{}, err
			}
			return Resolution{Model: name, Query: q}, nil
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
func (r *Registry) routeSingle(target string, rq workload.RawQuery) (string, workload.Query, error) {
	name := target
	if name == "" {
		var err error
		if name, err = r.inferTarget(rq); err != nil {
			return "", workload.Query{}, err
		}
	}
	if name == "" {
		var err error
		if name, err = r.soleModel(); err != nil {
			return "", workload.Query{}, err
		}
	}
	// A swap replaces the entry's table and graph under the write lock: copy
	// both while holding the read lock.
	r.mu.RLock()
	e, ok := r.entries[name]
	closed := r.closed
	var table *relation.Table
	var graph *graphView
	if ok {
		table, graph = e.table, e.graph
	}
	r.mu.RUnlock()
	if closed {
		return "", workload.Query{}, ErrClosed
	}
	if !ok {
		return "", workload.Query{}, fmt.Errorf("registry: unknown model %q", name)
	}
	var q workload.Query
	graphTables := map[string]bool{}
	for _, rp := range rq.Preds {
		col := rp.Column
		switch {
		case rp.Table == "" || rp.Table == table.Name || rp.Table == name:
			// Unqualified, or qualified with the served table/model name.
		case e.join != nil:
			mapped, err := e.join.mapColumn(rp.Table, rp.Column)
			if err != nil {
				return "", workload.Query{}, err
			}
			col = mapped
		case graph != nil:
			mapped, err := graph.mapColumn(rp.Table, rp.Column)
			if err != nil {
				return "", workload.Query{}, err
			}
			col = mapped
			graphTables[rp.Table] = true
		default:
			return "", workload.Query{}, fmt.Errorf("registry: predicate on %s.%s does not match model %q (table %q)", rp.Table, rp.Column, name, table.Name)
		}
		p, err := workload.ResolvePredicate(table, col, rp.Op, rp.Lit)
		if err != nil {
			return "", workload.Query{}, err
		}
		if graph != nil {
			q.Preds = graph.clampNull(q.Preds, p)
		} else {
			q.Preds = append(q.Preds, p)
		}
	}
	if len(graphTables) > 0 {
		q.Preds = append(q.Preds, graph.presencePreds(setKeys(graphTables))...)
	}
	r.met.routed.Inc()
	return name, q, nil
}

// routeLegacyJoin resolves a single join clause against the legacy two-table
// views. It reports ok=false — with no error — when no legacy view serves the
// clause, letting the caller fall through to the join-graph views.
func (r *Registry) routeLegacyJoin(target string, rq workload.RawQuery) (string, workload.Query, bool, error) {
	clause := rq.Joins[0]
	r.mu.RLock()
	name, ok := r.joins[clause.Canonical()]
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return "", workload.Query{}, false, ErrClosed
	}
	if !ok {
		return "", workload.Query{}, false, nil
	}
	if target != "" && target != name {
		r.mu.RLock()
		te, tok := r.entries[target]
		r.mu.RUnlock()
		if tok && te.graph != nil {
			// The caller explicitly targeted a join-graph view; fall through
			// and let the graph router resolve (it checks the target serves
			// the clause set).
			return "", workload.Query{}, false, nil
		}
		return "", workload.Query{}, false, fmt.Errorf("registry: model %q does not serve the join %q (view %q does)", target, clause, name)
	}
	r.mu.RLock()
	e := r.entries[name]
	table := e.table // a swap replaces it under the write lock
	r.mu.RUnlock()
	var q workload.Query
	for _, rp := range rq.Preds {
		if rp.Table == "" {
			return "", workload.Query{}, false, fmt.Errorf("registry: predicate on %q in a join query must be qualified with %q or %q", rp.Column, e.join.Left, e.join.Right)
		}
		col, err := e.join.mapColumn(rp.Table, rp.Column)
		if err != nil {
			return "", workload.Query{}, false, err
		}
		p, err := workload.ResolvePredicate(table, col, rp.Op, rp.Lit)
		if err != nil {
			return "", workload.Query{}, false, err
		}
		q.Preds = append(q.Preds, p)
	}
	r.met.routed.Inc()
	r.met.joinRouted.Inc()
	return name, q, true, nil
}

// routeGraph resolves a join-clause set against the registered join-graph
// views: exactly when the set equals a view's edge set, or as a connected
// subset of the smallest view containing every clause, with fanout
// correction.
func (r *Registry) routeGraph(target string, rq workload.RawQuery) (Resolution, error) {
	clauses := rq.Joins
	key := workload.JoinSetKey(clauses)
	qTables := rq.JoinTables()

	r.mu.RLock()
	closed := r.closed
	name, exact := r.graphs[key]
	var v *graphView
	if exact {
		v = r.entries[name].graph
	} else if rq.JoinsConnected() {
		// Subset match: the smallest view whose edge set contains every
		// clause (fewest tables, then fewest view rows, then name, so the
		// choice is deterministic). An explicit target restricts the
		// candidates to that view.
		for n, e := range r.entries {
			g := e.graph
			if g == nil || (target != "" && n != target) {
				continue
			}
			all := true
			for _, c := range clauses {
				if _, ok := g.edges[c.Canonical()]; !ok {
					all = false
					break
				}
			}
			if !all {
				continue
			}
			if v == nil || better(g, n, v, name) {
				v, name = g, n
			}
		}
	}
	r.mu.RUnlock()
	if closed {
		return Resolution{}, ErrClosed
	}
	if v == nil {
		if target != "" {
			return Resolution{}, fmt.Errorf("registry: model %q does not serve the join %q", target, key)
		}
		if len(clauses) == 1 {
			return Resolution{}, fmt.Errorf("registry: no join view registered for %q; build one with duetserve -build-join or duettrain -join", clauses[0])
		}
		if !rq.JoinsConnected() {
			return Resolution{}, fmt.Errorf("registry: join clauses %q do not connect into one tree; a single view answers only connected joins", key)
		}
		return Resolution{}, fmt.Errorf("registry: no join-graph view serves the clause set %q; build one with duetserve -build-join or duettrain -join over tables %s",
			key, strings.Join(qTables, ", "))
	}
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
	exactCard, err := v.exactJoin(clauses, qTables)
	if err != nil {
		return Resolution{}, err
	}
	r.met.routed.Inc()
	r.met.joinRouted.Inc()
	return Resolution{Model: name, Query: q, Calib: &workload.Query{Preds: presence}, Exact: exactCard}, nil
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

// inferTarget resolves an unnamed target from predicate qualifiers: when
// every qualified predicate names the same registered model, that model is
// the target ("orders.amount<=10" needs no explicit model field). When the
// qualifiers match no model but appear in registered join views — one table
// across several views, or several tables that only a join would relate —
// the error names the candidate views instead of failing generically.
func (r *Registry) inferTarget(rq workload.RawQuery) (string, error) {
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
	r.mu.RLock()
	defer r.mu.RUnlock()
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
				return e.join.Left == t || e.join.Right == t
			case e.graph != nil:
				return e.graph.tables[t]
			default:
				return false
			}
		}
		all := e.join != nil || e.graph != nil
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
	return e.graph.key
}

// soleModel returns the single registered model name, or an error telling
// the caller to disambiguate.
func (r *Registry) soleModel() (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return "", ErrClosed
	}
	if len(r.entries) == 1 {
		for n := range r.entries {
			return n, nil
		}
	}
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return "", fmt.Errorf("registry: %d models registered (%s); specify one", len(r.entries), strings.Join(names, ", "))
}

// setKeys returns a map's keys sorted.
func setKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// mapColumn rewrites a base-table-qualified column onto the legacy join
// view's materialized columns: left columns get the l_ prefix, right columns
// the r_ prefix, and the right join key — which EquiJoin deduplicates away —
// maps to the surviving l_<LeftCol>.
func (s *JoinSpec) mapColumn(table, column string) (string, error) {
	switch table {
	case s.Left:
		return "l_" + column, nil
	case s.Right:
		if column == s.RightCol {
			return "l_" + s.LeftCol, nil
		}
		return "r_" + column, nil
	default:
		return "", fmt.Errorf("registry: table %q is not part of the join %s", table, s)
	}
}
