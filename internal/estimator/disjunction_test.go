package estimator

import (
	"testing"

	"duet/internal/exec"
	"duet/internal/relation"
	"duet/internal/workload"
)

// exactEstimator wraps the exact executor as an Estimator, isolating the
// inclusion-exclusion logic from model error.
type exactEstimator struct{ t *relation.Table }

func (e exactEstimator) Name() string { return "exact" }
func (e exactEstimator) EstimateCard(q workload.Query) float64 {
	return float64(exec.Cardinality(e.t, q))
}
func (e exactEstimator) SizeBytes() int64 { return 0 }

func disjTable() *relation.Table {
	return relation.Generate(relation.SynConfig{
		Name: "t", Rows: 500, Seed: 91,
		Cols: []relation.ColSpec{
			{Name: "a", NDV: 10, Skew: 1.3, Parent: -1},
			{Name: "b", NDV: 6, Skew: 0, Parent: 0, Noise: 0.2},
		},
	})
}

// bruteDNF counts rows satisfying any term.
func bruteDNF(t *relation.Table, q DNFQuery) float64 {
	count := 0
rows:
	for r := 0; r < t.NumRows(); r++ {
		for _, term := range q.Terms {
			ok := true
			for _, p := range term.Preds {
				if !p.Matches(t.Cols[p.Col].Codes.At(r)) {
					ok = false
					break
				}
			}
			if ok {
				count++
				continue rows
			}
		}
	}
	return float64(count)
}

func TestEstimateDNFExactWithExactOracle(t *testing.T) {
	tbl := disjTable()
	est := exactEstimator{t: tbl}
	cases := []DNFQuery{
		{Terms: []workload.Query{
			{Preds: []workload.Predicate{{Col: 0, Op: workload.OpLe, Code: 2}}},
			{Preds: []workload.Predicate{{Col: 0, Op: workload.OpGe, Code: 7}}},
		}},
		{Terms: []workload.Query{
			{Preds: []workload.Predicate{{Col: 0, Op: workload.OpEq, Code: 1}}},
			{Preds: []workload.Predicate{{Col: 1, Op: workload.OpEq, Code: 2}}},
			{Preds: []workload.Predicate{{Col: 0, Op: workload.OpGt, Code: 8}}},
		}},
		// Overlapping terms: inclusion-exclusion must not double count.
		{Terms: []workload.Query{
			{Preds: []workload.Predicate{{Col: 0, Op: workload.OpLe, Code: 5}}},
			{Preds: []workload.Predicate{{Col: 0, Op: workload.OpLe, Code: 3}}},
		}},
	}
	for i, q := range cases {
		got, err := EstimateDNF(est, q, int64(tbl.NumRows()))
		want := bruteDNF(tbl, q)
		if err != nil || got != want {
			t.Fatalf("case %d: got %v (%v) want %v", i, got, err, want)
		}
	}
}

func TestEstimateDNFEdgeCases(t *testing.T) {
	tbl := disjTable()
	est := exactEstimator{t: tbl}
	if got, err := EstimateDNF(est, DNFQuery{}, 500); got != 0 || err != nil {
		t.Fatalf("empty DNF: %v, %v", got, err)
	}
	// A single term is just the conjunction.
	q := DNFQuery{Terms: []workload.Query{
		{Preds: []workload.Predicate{{Col: 1, Op: workload.OpGe, Code: 3}}},
	}}
	if got, err := EstimateDNF(est, q, 500); got != est.EstimateCard(q.Terms[0]) || err != nil {
		t.Fatalf("single term: %v (%v) vs %v", got, err, est.EstimateCard(q.Terms[0]))
	}
	// Result is clamped to [0, |T|] even with an inconsistent estimator.
	bad := constEstimator{card: 1e9}
	if got, err := EstimateDNF(bad, q, 500); got != 500 || err != nil {
		t.Fatalf("clamp: %v, %v", got, err)
	}
}

// TestEstimateDNFRejectsTooManyTerms: a ninth term is an error, not dropped
// (which would undercount), and MaxDNFTerms terms still estimate exactly.
func TestEstimateDNFRejectsTooManyTerms(t *testing.T) {
	tbl := disjTable()
	est := exactEstimator{t: tbl}
	var q DNFQuery
	for c := int32(0); c <= MaxDNFTerms; c++ {
		q.Terms = append(q.Terms, workload.Query{Preds: []workload.Predicate{{Col: 0, Op: workload.OpEq, Code: c}}})
	}
	if got, err := EstimateDNF(est, q, 500); err == nil {
		t.Fatalf("%d terms: got %v and no error", len(q.Terms), got)
	}
	q.Terms = q.Terms[:MaxDNFTerms]
	if got, err := EstimateDNF(est, q, 500); err != nil || got != bruteDNF(tbl, q) {
		t.Fatalf("%d terms: got %v (%v), want %v", MaxDNFTerms, got, err, bruteDNF(tbl, q))
	}
}
