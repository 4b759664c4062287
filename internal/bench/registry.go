package bench

import (
	"fmt"
	"io"
)

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID   string
	Desc string
	Run  func(w io.Writer, s Scale) error
}

// Experiments lists every table, figure and ablation in execution order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table I: MPSN variants (MLP/REC/RNN)", Table1},
		{"table2", "Table II: accuracy of all methods on three datasets", func(w io.Writer, s Scale) error { return Table2(w, s, nil) }},
		{"table3", "Table III: training throughput of data-driven and hybrid methods", Table3},
		{"fig3", "Figure 3: convergence of the hybrid loss terms", Fig3},
		{"fig4", "Figure 4: workload cardinality CDFs", Fig4},
		{"fig5", "Figure 5: lambda hyper-parameter sweep", Fig5},
		{"fig6", "Figure 6: estimation latency vs column count", Fig6},
		{"fig7", "Figure 7: estimation cost of learned methods", Fig7},
		{"fig8", "Figure 8: convergence on random queries", Fig8},
		{"fig9", "Figure 9: convergence on in-workload queries", Fig9},
		{"ablation-mu", "Ablation: expand coefficient mu", AblationMu},
		{"ablation-enc", "Ablation: value encoding strategies", AblationEncoding},
		{"ablation-stability", "Ablation: estimate stability across RNG states (Problem 4)", AblationStability},
	}
}

// RunExperiment executes one experiment by id ("all" runs everything).
func RunExperiment(id string, w io.Writer, s Scale) error {
	if id == "all" {
		for _, e := range Experiments() {
			if err := e.Run(w, s); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
		return nil
	}
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run(w, s)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q", id)
}
