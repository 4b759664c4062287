// Package workload defines the query model (conjunctions of comparison
// predicates over dictionary codes), the workload generators used in the
// Duet paper's evaluation, and the Q-Error accuracy metrics.
package workload

import (
	"fmt"
	"strings"

	"duet/internal/relation"
)

// Op is a predicate comparison operator. The set matches the paper:
// {=, >, <, >=, <=}.
type Op uint8

// Predicate operators, numbered 0-4 as in Algorithm 1 of the paper.
const (
	OpEq Op = iota
	OpGt
	OpLt
	OpGe
	OpLe
	NumOps = 5
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpGt:
		return ">"
	case OpLt:
		return "<"
	case OpGe:
		return ">="
	case OpLe:
		return "<="
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Predicate constrains one column against one dictionary code. Operating at
// code level is lossless here: the sorted dictionary makes code order equal
// value order, and generated predicate values are always values present in
// the column (the generation protocol of Naru/UAE/Duet). Raw query values
// are converted with Column.LowerBound*.
type Predicate struct {
	Col  int
	Op   Op
	Code int32
}

// String renders the predicate for debugging.
func (p Predicate) String() string { return fmt.Sprintf("c%d %s #%d", p.Col, p.Op, p.Code) }

// Interval returns the closed code interval [lo, hi] selected by the
// predicate over a domain of ndv codes. An empty selection has lo > hi.
func (p Predicate) Interval(ndv int) (lo, hi int32) {
	switch p.Op {
	case OpEq:
		return p.Code, p.Code
	case OpGt:
		return p.Code + 1, int32(ndv) - 1
	case OpLt:
		return 0, p.Code - 1
	case OpGe:
		return p.Code, int32(ndv) - 1
	case OpLe:
		return 0, p.Code
	default:
		panic("workload: unknown op")
	}
}

// Matches reports whether dictionary code v satisfies the predicate.
func (p Predicate) Matches(v int32) bool {
	switch p.Op {
	case OpEq:
		return v == p.Code
	case OpGt:
		return v > p.Code
	case OpLt:
		return v < p.Code
	case OpGe:
		return v >= p.Code
	case OpLe:
		return v <= p.Code
	default:
		panic("workload: unknown op")
	}
}

// Query is a conjunction of predicates. Multiple predicates may target the
// same column (the MPSN scenario of Section IV-F).
type Query struct {
	Preds []Predicate
}

// String renders the query as a WHERE clause.
func (q Query) String() string {
	parts := make([]string, len(q.Preds))
	for i, p := range q.Preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}

// NumPreds returns the number of predicates.
func (q Query) NumPreds() int { return len(q.Preds) }

// Columns returns the distinct constrained column indices in ascending order.
func (q Query) Columns() []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range q.Preds {
		if !seen[p.Col] {
			seen[p.Col] = true
			out = append(out, p.Col)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Interval is a closed code range; Empty reports lo > hi.
type Interval struct{ Lo, Hi int32 }

// Empty reports whether no code satisfies the interval.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Width returns the number of codes in the interval.
func (iv Interval) Width() int32 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo + 1
}

// ColumnIntervals intersects all predicates per column into one interval per
// table column. Unconstrained columns get the full domain [0, ndv-1].
func (q Query) ColumnIntervals(t *relation.Table) []Interval {
	return q.IntervalsInto(make([]Interval, t.NumCols()), t)
}

// IntervalsInto is ColumnIntervals into out, which must hold t.NumCols()
// intervals; it returns out[:t.NumCols()].
func (q Query) IntervalsInto(out []Interval, t *relation.Table) []Interval {
	out = out[:t.NumCols()]
	for i, c := range t.Cols {
		out[i] = Interval{0, int32(c.NumDistinct()) - 1}
	}
	for _, p := range q.Preds {
		ndv := t.Cols[p.Col].NumDistinct()
		lo, hi := p.Interval(ndv)
		iv := &out[p.Col]
		if lo > iv.Lo {
			iv.Lo = lo
		}
		if hi < iv.Hi {
			iv.Hi = hi
		}
	}
	return out
}

// LabeledQuery pairs a query with its true cardinality.
type LabeledQuery struct {
	Query Query
	Card  int64
}
