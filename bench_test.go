package duet_test

import (
	"io"
	"os"
	"testing"

	"duet/internal/bench"
)

// benchOut streams experiment output to stdout when DUET_BENCH_VERBOSE=1,
// and discards it otherwise so -bench runs stay readable.
func benchOut() io.Writer {
	if os.Getenv("DUET_BENCH_VERBOSE") == "1" {
		return os.Stdout
	}
	return io.Discard
}

// runExp executes one paper experiment per benchmark iteration at the Tiny
// scale (the shape-preserving small configuration; use cmd/duetbench with
// -scale quick|full for report-grade runs).
func runExp(b *testing.B, id string) {
	b.Helper()
	w := benchOut()
	for i := 0; i < b.N; i++ {
		if err := bench.RunExperiment(id, w, bench.Tiny); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1MPSN regenerates Table I (MPSN variants MLP/REC/RNN).
func BenchmarkTable1MPSN(b *testing.B) { runExp(b, "table1") }

// BenchmarkTable2Accuracy regenerates Table II (all estimators × 3 datasets
// × {In-Q, Rand-Q}).
func BenchmarkTable2Accuracy(b *testing.B) { runExp(b, "table2") }

// BenchmarkTable3Throughput regenerates Table III (training throughput,
// including UAE's OOM row).
func BenchmarkTable3Throughput(b *testing.B) { runExp(b, "table3") }

// BenchmarkFig3LossCurves regenerates Figure 3 (hybrid loss convergence).
func BenchmarkFig3LossCurves(b *testing.B) { runExp(b, "fig3") }

// BenchmarkFig4WorkloadCDF regenerates Figure 4 (workload cardinality CDFs).
func BenchmarkFig4WorkloadCDF(b *testing.B) { runExp(b, "fig4") }

// BenchmarkFig5Lambda regenerates Figure 5 (λ sweep).
func BenchmarkFig5Lambda(b *testing.B) { runExp(b, "fig5") }

// BenchmarkFig6Scalability regenerates Figure 6 (latency vs column count).
func BenchmarkFig6Scalability(b *testing.B) { runExp(b, "fig6") }

// BenchmarkFig7EstCost regenerates Figure 7 (estimation cost of learned
// methods).
func BenchmarkFig7EstCost(b *testing.B) { runExp(b, "fig7") }

// BenchmarkFig8Convergence regenerates Figure 8 (Rand-Q convergence).
func BenchmarkFig8Convergence(b *testing.B) { runExp(b, "fig8") }

// BenchmarkFig9HybridConv regenerates Figure 9 (In-Q convergence, Duet vs
// DuetD).
func BenchmarkFig9HybridConv(b *testing.B) { runExp(b, "fig9") }

// BenchmarkAblationMu sweeps the expand coefficient µ of Algorithm 1.
func BenchmarkAblationMu(b *testing.B) { runExp(b, "ablation-mu") }

// BenchmarkAblationEncoding compares value-encoding strategies.
func BenchmarkAblationEncoding(b *testing.B) { runExp(b, "ablation-enc") }

// BenchmarkAblationStability measures estimate variance across RNG states
// (the paper's Problem 4: Duet deterministic, progressive sampling not).
func BenchmarkAblationStability(b *testing.B) { runExp(b, "ablation-stability") }
