package duet_test

import (
	"bytes"
	"math"
	"testing"

	"duet"
	"duet/internal/core"
	"duet/internal/deepdb"
	"duet/internal/estimator"
	"duet/internal/exec"
	"duet/internal/hist"
	"duet/internal/naru"
	"duet/internal/relation"
	"duet/internal/sample"
	"duet/internal/workload"
)

// TestAllEstimatorsAgreeOnTrivialQueries: every estimator must return ~|T|
// for the unconstrained query and ~0/small for a contradiction-free but
// maximally selective one.
func TestAllEstimatorsAgreeOnTrivialQueries(t *testing.T) {
	tbl := relation.SynCensus(1200, 9)
	n := float64(tbl.NumRows())
	ests := []estimator.Estimator{
		sample.NewSampler(tbl, 0.1, 1),
		sample.NewIndep(tbl),
		hist.New(tbl, hist.DefaultConfig()),
		deepdb.New(tbl, deepdb.DefaultConfig()),
		naru.New(tbl, naruTiny()),
		core.NewModel(tbl, duetTiny()),
	}
	for _, est := range ests {
		got := est.EstimateCard(workload.Query{})
		if math.Abs(got-n) > 0.05*n {
			t.Fatalf("%s: empty query estimate %v, want ~%v", est.Name(), got, n)
		}
	}
}

func naruTiny() naru.Config {
	c := naru.DefaultConfig()
	c.Hidden = []int{24, 24}
	c.Samples = 32
	return c
}

func duetTiny() core.Config {
	c := core.DefaultConfig()
	c.Hidden = []int{24, 24}
	return c
}

// TestDuetVsNaruDeterminismContrast is the paper's Problem (4) demonstrated
// end to end: Duet returns bit-identical estimates across repeated calls
// while Naru's progressive sampling varies with its RNG state.
func TestDuetVsNaruDeterminismContrast(t *testing.T) {
	tbl := relation.SynCensus(2000, 4)
	q := workload.Query{Preds: []workload.Predicate{
		{Col: 0, Op: workload.OpLe, Code: 30},
		{Col: 3, Op: workload.OpGe, Code: 4},
		{Col: 12, Op: workload.OpLt, Code: 50},
	}}

	dm := core.NewModel(tbl, duetTiny())
	tc := core.DefaultTrainConfig()
	tc.Epochs = 2
	tc.BatchSize = 256
	tc.Lambda = 0
	core.Train(dm, tc)
	first := dm.EstimateCard(q)
	for i := 0; i < 5; i++ {
		if dm.EstimateCard(q) != first {
			t.Fatal("Duet estimate varied across calls")
		}
	}

	nm := naru.New(tbl, naruTiny())
	nc := naru.DefaultTrainConfig()
	nc.Epochs = 2
	nc.BatchSize = 256
	naru.Train(nm, nc)
	nm.SetSeed(1)
	a := nm.EstimateCard(q)
	varied := false
	for seed := int64(2); seed < 12 && !varied; seed++ {
		nm.SetSeed(seed)
		if nm.EstimateCard(q) != a {
			varied = true
		}
	}
	if !varied {
		t.Log("naru estimates coincided across 10 seeds (statistically possible, but suspicious)")
	}
}

// TestJoinPipeline: materialize a join, train Duet on it, and check that a
// filtered join estimate lands within an order of magnitude of the truth
// after a short training run.
func TestJoinPipeline(t *testing.T) {
	dim := relation.Generate(relation.SynConfig{Name: "dim", Rows: 300, Seed: 5,
		Cols: []relation.ColSpec{
			{Name: "id", NDV: 300, Skew: 0, Parent: -1},
			{Name: "group", NDV: 6, Skew: 1.4, Parent: 0, Noise: 0.1},
		}})
	fact := relation.Generate(relation.SynConfig{Name: "fact", Rows: 2500, Seed: 6,
		Cols: []relation.ColSpec{
			{Name: "dim_id", NDV: 300, Skew: 1.3, Parent: -1},
			{Name: "metric", NDV: 40, Skew: 1.2, Parent: -1},
		}})
	joined, err := relation.EquiJoin("j", fact, "dim_id", dim, "id")
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := relation.MultiJoinCardinality(&relation.JoinGraph{Tables: []*relation.Table{fact, dim},
		Edges: []relation.JoinEdge{{LeftTable: "fact", LeftCol: "dim_id", RightTable: "dim", RightCol: "id"}}})
	if err != nil {
		t.Fatal(err)
	}
	if int64(joined.NumRows()) != wantRows {
		t.Fatalf("join rows %d, exact inner-join size %d", joined.NumRows(), wantRows)
	}
	m := core.NewModel(joined, duetTiny())
	tc := core.DefaultTrainConfig()
	tc.Epochs = 6
	tc.BatchSize = 256
	tc.Lambda = 0
	core.Train(m, tc)
	q, err := workload.ParseQuery(joined, "r_group<=2")
	if err != nil {
		t.Fatal(err)
	}
	est := m.EstimateCard(q)
	act := float64(exec.Cardinality(joined, q))
	if qe := workload.QError(est, act); qe > 10 {
		t.Fatalf("filtered join estimate q-error %.2f (est %.0f act %.0f)", qe, est, act)
	}
}

// TestParseEstimateWorkflow mirrors cmd/duetquery end to end through the
// public facade plus the parser.
func TestParseEstimateWorkflow(t *testing.T) {
	csv := "price,qty,city\n10,1,'a'\n20,2,'b'\n30,1,'a'\n20,3,'c'\n"
	tbl, err := duet.LoadCSV(bytes.NewReader([]byte(csv)), "t", true)
	if err != nil {
		t.Fatal(err)
	}
	m := duet.New(tbl, duetTiny())
	q, err := workload.ParseQuery(tbl, "price>=20 AND qty<=2")
	if err != nil {
		t.Fatal(err)
	}
	act := duet.Card(tbl, q)
	if act != 2 { // rows (20,2) and (30,1)
		t.Fatalf("exact card %d want 2", act)
	}
	est := m.EstimateCard(q)
	if est < 0 || est > float64(tbl.NumRows()) {
		t.Fatalf("estimate %v out of range", est)
	}
}

// TestLongTailFineTuneWorkflow: collect the worst queries of a workload and
// fine-tune on them, the paper's deployment loop.
func TestLongTailFineTuneWorkflow(t *testing.T) {
	tbl := relation.SynCensus(2500, 8)
	m := core.NewModel(tbl, duetTiny())
	tc := core.DefaultTrainConfig()
	tc.Epochs = 3
	tc.BatchSize = 256
	tc.Lambda = 0
	core.Train(m, tc)
	ws := exec.Label(tbl, workload.Generate(tbl, workload.RandQConfig(tbl.NumCols(), 150)))
	bad := core.CollectBadQueries(m, ws, 3)
	if len(bad) == 0 {
		t.Skip("no long-tail queries at this scale")
	}
	worstBefore := maxQErr(m, bad)
	ft := core.DefaultFineTuneConfig()
	ft.Steps = 80
	core.FineTune(m, bad, ft)
	worstAfter := maxQErr(m, bad)
	if worstAfter > worstBefore*1.05 {
		t.Fatalf("fine-tuning worsened the tail: %.2f -> %.2f", worstBefore, worstAfter)
	}
}

func maxQErr(m *core.Model, ws []workload.LabeledQuery) float64 {
	var mx float64
	for _, lq := range ws {
		if q := workload.QError(m.EstimateCard(lq.Query), float64(lq.Card)); q > mx {
			mx = q
		}
	}
	return mx
}
