package estimator

import (
	"fmt"

	"duet/internal/workload"
)

// DNFQuery is a disjunction of conjunctive queries (OR of ANDs). The paper
// supports disjunctions by converting them into conjunctions; this helper
// implements that conversion via inclusion-exclusion over any conjunctive
// estimator.
type DNFQuery struct {
	Terms []workload.Query
}

// EstimateDNF estimates |q1 ∨ q2 ∨ ... ∨ qk| with inclusion-exclusion:
//
//	|∪ q_i| = Σ|q_i| − Σ|q_i ∧ q_j| + Σ|q_i ∧ q_j ∧ q_l| − ...
//
// Each intersection is itself a conjunction (predicate lists concatenated),
// estimable by the underlying model. The number of estimator calls is
// 2^k − 1, so a disjunction of more than MaxDNFTerms terms is an error:
// estimating only the first MaxDNFTerms would undercount.
func EstimateDNF(est Estimator, q DNFQuery, tableRows int64) (float64, error) {
	k := len(q.Terms)
	if k == 0 {
		return 0, nil
	}
	if k > MaxDNFTerms {
		return 0, fmt.Errorf("estimator: a disjunction of %d terms exceeds MaxDNFTerms (%d)", k, MaxDNFTerms)
	}
	var total float64
	for mask := 1; mask < 1<<k; mask++ {
		var conj workload.Query
		bits := 0
		for i := 0; i < k; i++ {
			if mask&(1<<i) != 0 {
				conj.Preds = append(conj.Preds, q.Terms[i].Preds...)
				bits++
			}
		}
		card := est.EstimateCard(conj)
		if bits%2 == 1 {
			total += card
		} else {
			total -= card
		}
	}
	return min(max(total, 0), float64(tableRows)), nil
}

// MaxDNFTerms bounds inclusion-exclusion blow-up (2^k − 1 estimator calls).
const MaxDNFTerms = 8
