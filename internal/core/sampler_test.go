package core

import (
	"math/rand"
	"testing"

	"duet/internal/relation"
	"duet/internal/tensor"
	"duet/internal/workload"
)

func samplerTable(rows int) *relation.Table {
	return relation.Generate(relation.SynConfig{
		Name: "t", Rows: rows, Seed: 5,
		Cols: []relation.ColSpec{
			{Name: "a", NDV: 12, Skew: 1.4, Parent: -1},
			{Name: "b", NDV: 3, Skew: 0, Parent: 0, Noise: 0.2},
			{Name: "c", NDV: 40, Skew: 1.1, Parent: -1},
		},
	})
}

// sampleVirtualTuples runs Algorithm 1 over the given table rows, each
// replicated cfg.Mu times: labels[k] holds row rows[k/Mu]'s codes and
// specs[k] the predicates sampled for it.
func sampleVirtualTuples(tbl *relation.Table, rows []int, cfg SamplerConfig, epoch int) ([]Spec, [][]int32) {
	specs := make([]Spec, len(rows)*cfg.Mu)
	labels := make([][]int32, len(specs))
	for k := range specs {
		specs[k] = make(Spec, tbl.NumCols())
		labels[k] = tbl.RowCodes(rows[k/cfg.Mu], nil)
	}
	sampleSpecs(tensor.Default(), tbl, specs, labels, cfg, epoch, make([]*rand.Rand, tbl.NumCols()))
	return specs, labels
}

// TestVirtualTupleInvariant checks the paper's I(x, x') = 1 definition:
// every sampled virtual tuple's predicates are satisfied by its source tuple.
func TestVirtualTupleInvariant(t *testing.T) {
	tbl := samplerTable(200)
	rows := make([]int, 64)
	for i := range rows {
		rows[i] = i * 3
	}
	cfg := SamplerConfig{Mu: 4, WildcardProb: 0.3, MaxPredsPerCol: 2, Seed: 11}
	specs, labels := sampleVirtualTuples(tbl, rows, cfg, 0)
	if len(specs) != len(rows)*4 {
		t.Fatalf("expected %d virtual tuples, got %d", len(rows)*4, len(specs))
	}
	for k, spec := range specs {
		for col, preds := range spec {
			x := labels[k][col]
			for _, p := range preds {
				wp := workload.Predicate{Col: col, Op: p.Op, Code: p.Code}
				if !wp.Matches(x) {
					t.Fatalf("virtual tuple %d: predicate %v not satisfied by x=%d", k, wp, x)
				}
				ndv := int32(tbl.Cols[col].NumDistinct())
				if p.Code < 0 || p.Code >= ndv {
					t.Fatalf("predicate code %d out of domain %d", p.Code, ndv)
				}
			}
		}
	}
}

func TestSamplerLabelsMatchSourceRows(t *testing.T) {
	tbl := samplerTable(50)
	rows := []int{7, 13}
	specs, labels := sampleVirtualTuples(tbl, rows, SamplerConfig{Mu: 3, Seed: 1}, 0)
	_ = specs
	for k := range labels {
		src := rows[k/3]
		want := tbl.RowCodes(src, nil)
		for c, v := range labels[k] {
			if v != want[c] {
				t.Fatalf("virtual tuple %d labels %v, want row %d codes %v", k, labels[k], src, want)
			}
		}
	}
}

func TestSamplerDeterministic(t *testing.T) {
	tbl := samplerTable(100)
	rows := []int{0, 10, 20, 30}
	cfg := SamplerConfig{Mu: 2, WildcardProb: 0.2, Seed: 9}
	s1, _ := sampleVirtualTuples(tbl, rows, cfg, 3)
	s2, _ := sampleVirtualTuples(tbl, rows, cfg, 3)
	for k := range s1 {
		for c := range s1[k] {
			if len(s1[k][c]) != len(s2[k][c]) {
				t.Fatal("sampler not deterministic")
			}
			for j := range s1[k][c] {
				if s1[k][c][j] != s2[k][c][j] {
					t.Fatal("sampler not deterministic")
				}
			}
		}
	}
	// Different epochs draw different predicates.
	s3, _ := sampleVirtualTuples(tbl, rows, cfg, 4)
	same := true
	for k := range s1 {
		for c := range s1[k] {
			if len(s1[k][c]) != len(s3[k][c]) {
				same = false
			}
		}
	}
	if same {
		equal := true
		for k := range s1 {
			for c := range s1[k] {
				for j := range s1[k][c] {
					if s1[k][c][j] != s3[k][c][j] {
						equal = false
					}
				}
			}
		}
		if equal {
			t.Fatal("different epochs produced identical virtual tuples")
		}
	}
}

func TestSamplerWildcardRate(t *testing.T) {
	tbl := samplerTable(400)
	rows := make([]int, 400)
	for i := range rows {
		rows[i] = i
	}
	specs, _ := sampleVirtualTuples(tbl, rows, SamplerConfig{Mu: 1, WildcardProb: 0.5, Seed: 2}, 0)
	wild, total := 0, 0
	for _, spec := range specs {
		for _, preds := range spec {
			total++
			if len(preds) == 0 {
				wild++
			}
		}
	}
	rate := float64(wild) / float64(total)
	if rate < 0.40 || rate > 0.65 {
		t.Fatalf("wildcard rate %.2f, expected ~0.5 (plus empty-range fallbacks)", rate)
	}
}

func TestSamplerOpCoverage(t *testing.T) {
	tbl := samplerTable(500)
	rows := make([]int, 500)
	for i := range rows {
		rows[i] = i
	}
	specs, _ := sampleVirtualTuples(tbl, rows, SamplerConfig{Mu: 1, Seed: 3}, 0)
	opCount := map[workload.Op]int{}
	for _, spec := range specs {
		for _, preds := range spec {
			for _, p := range preds {
				opCount[p.Op]++
			}
		}
	}
	for op := workload.Op(0); op < workload.NumOps; op++ {
		if opCount[op] == 0 {
			t.Fatalf("operator %v never sampled: %v", op, opCount)
		}
	}
}

func TestSampleVirtualTuplesMuDefault(t *testing.T) {
	tbl := samplerTable(10)
	m := NewModel(tbl, tinyConfig())
	src := &tableRows{t: tbl, perm: []int{0, 1}}
	specs, _ := (&streamBatch{ncols: tbl.NumCols()}).next(tensor.Default(), m, src, 2, 0, SamplerConfig{Seed: 1}, 0)
	if len(specs) != 2 {
		t.Fatalf("Mu<1 should default to 1, got %d tuples", len(specs))
	}
}
