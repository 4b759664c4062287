package workload

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"duet/internal/relation"
)

// predPattern matches one comparison: [qualifier.]column op value, where
// value is a number, a single-quoted string, or a qualified column reference
// (the join-clause form "a.x = b.y").
var predPattern = regexp.MustCompile(`^\s*(?:([A-Za-z_][A-Za-z0-9_]*)\s*\.\s*)?([A-Za-z_][A-Za-z0-9_]*)\s*(<=|>=|=|<|>)\s*('(?:[^']*)'|-?\d+(?:\.\d+)?|[A-Za-z_][A-Za-z0-9_]*\s*\.\s*[A-Za-z_][A-Za-z0-9_]*)\s*$`)

// joinRHSPattern recognizes a qualified column reference on the right-hand
// side of a comparison, which turns the comparison into a join clause.
var joinRHSPattern = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*)\s*\.\s*([A-Za-z_][A-Za-z0-9_]*)$`)

// RawPredicate is one textual comparison before resolution against a table:
// an optionally qualified column, an operator, and the literal as written
// (quotes retained for strings).
type RawPredicate struct {
	Table  string // qualifier, "" when unqualified
	Column string
	Op     Op
	Lit    string
}

// JoinSetKey renders a set of join clauses as one canonical string:
// each clause canonicalized, the set sorted. Two clause sets describing the
// same multi-way join — any orientation, any order — produce the same key,
// which is how the registry matches a query's join set against a registered
// join-graph view's edge set.
func JoinSetKey(clauses []relation.JoinEdge) string {
	parts := make([]string, len(clauses))
	for i, c := range clauses {
		parts[i] = c.Canonical().String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " AND ")
}

// JoinTables returns the distinct table names referenced by the query's join
// clauses, sorted.
func (rq RawQuery) JoinTables() []string {
	seen := map[string]bool{}
	var out []string
	for _, j := range rq.Joins {
		for _, t := range []string{j.LeftTable, j.RightTable} {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	sort.Strings(out)
	return out
}

// RawQuery is the structural parse of a conjunctive expression: zero or more
// join clauses plus the remaining comparison predicates, none resolved
// against a table yet. The serving router resolves it against either a
// single table or a registered join view.
type RawQuery struct {
	Joins []relation.JoinEdge
	Preds []RawPredicate
}

// ParseRaw splits a conjunctive WHERE-style expression into join clauses and
// unresolved predicates. It validates shape only — column existence and
// literal/kind agreement are checked at resolution time. Duplicate join
// clauses (in either orientation) are rejected.
func ParseRaw(s string) (RawQuery, error) {
	var rq RawQuery
	s = strings.TrimSpace(s)
	if s == "" {
		return rq, nil
	}
	for _, part := range splitAnd(s) {
		m := predPattern.FindStringSubmatch(part)
		if m == nil {
			return RawQuery{}, fmt.Errorf("workload: cannot parse predicate %q (want [tbl.]col op value)", strings.TrimSpace(part))
		}
		op, err := parseOp(m[3])
		if err != nil {
			return RawQuery{}, err
		}
		if rhs := joinRHSPattern.FindStringSubmatch(m[4]); rhs != nil {
			if m[1] == "" {
				return RawQuery{}, fmt.Errorf("workload: join predicate %q needs a qualified left side (want a.x = b.y)", strings.TrimSpace(part))
			}
			if op != OpEq {
				return RawQuery{}, fmt.Errorf("workload: join predicate %q: only equality joins are supported", strings.TrimSpace(part))
			}
			j := relation.JoinEdge{LeftTable: m[1], LeftCol: m[2], RightTable: rhs[1], RightCol: rhs[2]}
			if j.LeftTable == j.RightTable {
				return RawQuery{}, fmt.Errorf("workload: join predicate %q relates a table to itself", strings.TrimSpace(part))
			}
			for _, seen := range rq.Joins {
				if seen.Canonical() == j.Canonical() {
					return RawQuery{}, fmt.Errorf("workload: duplicate join predicate %q", j)
				}
			}
			rq.Joins = append(rq.Joins, j)
			continue
		}
		rq.Preds = append(rq.Preds, RawPredicate{Table: m[1], Column: m[2], Op: op, Lit: m[4]})
	}
	return rq, nil
}

// ParseQuery parses a conjunctive WHERE-style expression ("age>=30 AND
// state='NY'") against a table, translating raw values to dictionary codes
// with lower-bound semantics, so the returned query selects exactly the rows
// the textual predicate describes even for values absent from the column.
// Predicates may qualify columns with the table's name ("orders.price<=10");
// any other qualifier is an error, and join clauses ("a.x = b.y") are
// rejected here — they only make sense against a registered join view, which
// the registry router resolves.
func ParseQuery(t *relation.Table, s string) (Query, error) {
	rq, err := ParseRaw(s)
	if err != nil {
		return Query{}, err
	}
	if len(rq.Joins) > 0 {
		return Query{}, fmt.Errorf("workload: join predicate %q cannot be answered by single table %q; route it to a registered join view", rq.Joins[0], t.Name)
	}
	var q Query
	for _, rp := range rq.Preds {
		if rp.Table != "" && rp.Table != t.Name {
			return Query{}, fmt.Errorf("workload: predicate on %s.%s does not match table %q", rp.Table, rp.Column, t.Name)
		}
		p, err := ResolvePredicate(t, rp.Column, rp.Op, rp.Lit)
		if err != nil {
			return Query{}, err
		}
		q.Preds = append(q.Preds, p)
	}
	return q, nil
}

func parseOp(s string) (Op, error) {
	switch s {
	case "=":
		return OpEq, nil
	case "<":
		return OpLt, nil
	case ">":
		return OpGt, nil
	case "<=":
		return OpLe, nil
	case ">=":
		return OpGe, nil
	default:
		return 0, fmt.Errorf("workload: unknown operator %q", s)
	}
}

// splitAnd splits on the AND keyword, case-insensitively, outside quotes.
func splitAnd(s string) []string {
	var parts []string
	depth := false // inside single quotes
	last := 0
	for i := 0; i+5 <= len(s); i++ {
		if s[i] == '\'' {
			depth = !depth
		}
		// EqualFold, not a ToUpper copy of s: upper-casing can change the
		// byte length, so the copy's offsets need not be s's.
		if !depth && strings.EqualFold(s[i:i+5], " AND ") {
			parts = append(parts, s[last:i])
			last = i + 5
			i += 4 // separators do not overlap: the next starts at last or later
		}
	}
	parts = append(parts, s[last:])
	return parts
}

// ResolvePredicate translates one textual comparison (unqualified column
// name, operator, literal as written — quotes retained for strings) into a
// code-level predicate on t with identical row semantics, using lower-bound
// mapping for literals absent from the column dictionary.
func ResolvePredicate(t *relation.Table, column string, op Op, lit string) (Predicate, error) {
	ci := t.ColumnIndex(column)
	if ci < 0 {
		return Predicate{}, fmt.Errorf("workload: unknown column %q", column)
	}
	col := t.Cols[ci]
	lb, exact, err := lowerBound(col, lit)
	if err != nil {
		return Predicate{}, err
	}
	return predicateFromBound(ci, col, op, lb, exact), nil
}

// DegeneratePredicate is the in-domain predicate equivalent to comparing a
// column against a value beyond its dictionary (typical once served data has
// drifted past the trained domain): =, > and >= select nothing (empty
// interval), < and <= select everything. Value encoders (one-hot) index by
// code, so out-of-domain comparisons must clamp here rather than carry
// code == NDV.
func DegeneratePredicate(col int, op Op, ndv int) Predicate {
	switch op {
	case OpEq, OpGt, OpGe:
		return Predicate{Col: col, Op: OpGt, Code: int32(ndv) - 1}
	default: // OpLt, OpLe
		return Predicate{Col: col, Op: OpGe, Code: 0}
	}
}

// lowerBound resolves the raw literal to (first code >= value, exact match).
func lowerBound(col *relation.Column, lit string) (int32, bool, error) {
	quoted := strings.HasPrefix(lit, "'")
	switch {
	case quoted && col.Kind != relation.KindString:
		return 0, false, fmt.Errorf("workload: string literal %s on %v column %q", lit, col.Kind, col.Name)
	case !quoted && col.Kind == relation.KindString:
		return 0, false, fmt.Errorf("workload: unquoted literal %q on string column %q", lit, col.Name)
	case col.Kind == relation.KindInt && strings.Contains(lit, "."):
		return ceilCode(col, lit) // a fraction
	}
	lb, exact, err := col.Lookup(strings.Trim(lit, "'"))
	if err != nil && col.Kind == relation.KindInt {
		return ceilCode(col, lit) // beyond int64
	}
	return lb, exact, err
}

// ceilCode compares an integer column with a literal that is not an int64
// on floats: the lower-bound code of the literal's ceiling, never exact.
func ceilCode(col *relation.Column, lit string) (int32, bool, error) {
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return 0, false, err
	}
	lb, _ := col.CodeOfInt(int64(f) + boolToInt(f > float64(int64(f))))
	return lb, false, nil
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// predicateFromBound converts (op, lower-bound code, exact) into a predicate
// over codes with identical row semantics to the raw-value comparison.
func predicateFromBound(ci int, col *relation.Column, op Op, lb int32, exact bool) Predicate {
	ndv := int32(col.NumDistinct())
	if lb >= ndv {
		return DegeneratePredicate(ci, op, int(ndv))
	}
	switch op {
	case OpEq:
		if !exact {
			// Always-false equality: empty interval.
			return Predicate{Col: ci, Op: OpGt, Code: ndv - 1}
		}
		return Predicate{Col: ci, Op: OpEq, Code: lb}
	case OpLt: // value < v  <=>  code < lb
		return Predicate{Col: ci, Op: OpLt, Code: lb}
	case OpGe: // value >= v <=>  code >= lb
		return Predicate{Col: ci, Op: OpGe, Code: lb}
	case OpLe: // value <= v <=>  code <= lb when exact, code < lb otherwise
		if exact {
			return Predicate{Col: ci, Op: OpLe, Code: lb}
		}
		return Predicate{Col: ci, Op: OpLt, Code: lb}
	case OpGt: // value > v  <=>  code > lb when exact, code >= lb otherwise
		if exact {
			return Predicate{Col: ci, Op: OpGt, Code: lb}
		}
		return Predicate{Col: ci, Op: OpGe, Code: lb}
	default:
		panic("workload: unknown op")
	}
}
