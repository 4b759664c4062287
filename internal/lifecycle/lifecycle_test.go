package lifecycle

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"duet/internal/artifact"
	"duet/internal/core"
	"duet/internal/exec"
	"duet/internal/registry"
	"duet/internal/relation"
	"duet/internal/workload"
)

func lcTable(name string, seed int64) *relation.Table {
	return relation.Generate(relation.SynConfig{
		Name: name, Rows: 400, Seed: seed,
		Cols: []relation.ColSpec{
			{Name: "k", NDV: 40, Skew: 1.2, Parent: -1},
			{Name: "a", NDV: 16, Skew: 1.5, Parent: 0, Noise: 0.2},
			{Name: "b", NDV: 8, Skew: 1.1, Parent: -1},
		},
	})
}

// estimate answers one pre-parsed query with the named model.
func estimate(ctx context.Context, reg *registry.Registry, name string, q workload.Query) (float64, error) {
	res, err := reg.Query(ctx, registry.QueryRequest{Model: name, Queries: []workload.Query{q}})
	if err != nil {
		return 0, err
	}
	return res.Cards[0], nil
}

func lcConfig(seed int64) core.Config {
	c := core.DefaultConfig()
	c.Hidden = []int{16, 16}
	c.EmbedDim = 8
	c.Seed = seed
	return c
}

func lcTrainConfig() core.TrainConfig {
	tc := core.DefaultTrainConfig()
	tc.Epochs = 2
	tc.Lambda = 0
	return tc
}

// shiftedRows generates rows from a distribution disjoint from lcTable's
// domain (every value is fresh), the drift that forces a full retrain.
func shiftedRows(n, off int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		j := off + i
		rows[i] = []string{
			strconv.Itoa(100 + j%20),
			strconv.Itoa(50 + j%8),
			strconv.Itoa(20 + j%4),
		}
	}
	return rows
}

// medianQErr labels every expression exactly on tbl and summarizes the
// model's q-errors through est.
func medianQErr(t *testing.T, tbl *relation.Table, exprs []string, est func(workload.Query) float64) float64 {
	t.Helper()
	errs := make([]float64, 0, len(exprs))
	for _, expr := range exprs {
		q, err := workload.ParseQuery(tbl, expr)
		if err != nil {
			t.Fatalf("parse %q: %v", expr, err)
		}
		act := exec.Cardinality(tbl, q)
		errs = append(errs, workload.QError(est(q), float64(act)))
	}
	sort.Float64s(errs)
	return errs[len(errs)/2]
}

// TestEndToEndDriftRetrainAndSwap is the PR's acceptance test: append
// distribution-shifted rows to a served table until the median q-error on a
// fixed workload degrades past the policy threshold; the lifecycle worker
// must retrain and hot-swap without manual intervention, the post-swap
// median q-error must land within 1.25x of a freshly trained model, and a
// concurrent request stream across the swap must complete with zero errors
// (run under -race in CI).
func TestEndToEndDriftRetrainAndSwap(t *testing.T) {
	dir := t.TempDir()
	tbl := lcTable("alpha", 1)
	cfg := lcConfig(11)
	tc := lcTrainConfig()
	m := core.NewModel(tbl, cfg)
	core.Train(m, tc)

	reg := registry.New(registry.Config{Dir: dir})
	defer reg.Close()
	if err := reg.Add("alpha", tbl, m, registry.AddOpts{}); err != nil {
		t.Fatal(err)
	}

	retrained := make(chan RetrainStats, 8)
	sup := NewSupervisor(reg, Policy{
		MaxMedianQErr: 2.5,
		MinFeedback:   16,
		CheckInterval: 5 * time.Millisecond,
	}, Options{Dir: dir, OnRetrain: func(st RetrainStats) { retrained <- st }})
	defer sup.Close()
	if err := sup.Manage("alpha", ManageOpts{Config: cfg, Train: tc}); err != nil {
		t.Fatal(err)
	}

	// The fixed workload mixes the original and the shifted value regions.
	exprs := []string{
		"k>=100", "k>=105", "k>=110", "k<=115", "k>=100 AND a>=50",
		"a>=50", "a>=52", "b>=20", "b>=21", "k>=108 AND b>=20",
		"k<=10", "k<=20", "a<=5", "b<=3", "k<=15 AND a<=8",
		"k>=5 AND k<=30", "a>=2 AND a<=10", "b>=1 AND b<=5",
	}

	// Concurrent request stream across the whole degrade->retrain->swap arc:
	// zero errors, finite answers only.
	streamQ := workload.Query{Preds: []workload.Predicate{{Col: 0, Op: workload.OpLe, Code: 10}}}
	var (
		stop      atomic.Bool
		served    atomic.Uint64
		streamErr atomic.Value
		wg        sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				card, err := estimate(context.Background(), reg, "alpha", streamQ)
				if err != nil {
					streamErr.Store(err)
					return
				}
				if math.IsNaN(card) || math.IsInf(card, 0) || card < 0 {
					streamErr.Store(fmt.Errorf("non-finite estimate %v", card))
					return
				}
				served.Add(1)
			}
		}()
	}

	// Degrade: ingest shifted batches and report observed cardinalities until
	// the feedback signal trips.
	tripped := false
	for batch := 0; batch < 20 && !tripped; batch++ {
		res, err := sup.Ingest("alpha", shiftedRows(40, batch*40))
		if err != nil {
			t.Fatal(err)
		}
		if res.NewValues == 0 {
			t.Fatal("shifted rows reported no fresh dictionary values")
		}
		backing, err := sup.BackingTable("alpha")
		if err != nil {
			t.Fatal(err)
		}
		for _, expr := range exprs {
			q, err := workload.ParseQuery(backing, expr)
			if err != nil {
				t.Fatalf("parse %q: %v", expr, err)
			}
			fb, err := sup.Feedback("alpha", expr, exec.Cardinality(backing, q))
			if err != nil {
				t.Fatal(err)
			}
			if fb.Tripped {
				tripped = true
				break
			}
		}
	}
	if !tripped {
		t.Fatal("policy never tripped: the drift signal is broken")
	}

	// The worker must retrain and swap on its own.
	var st RetrainStats
	select {
	case st = <-retrained:
	case <-time.After(60 * time.Second):
		t.Fatal("lifecycle worker never retrained")
	}
	if st.Err != nil {
		t.Fatalf("retrain failed: %v", st.Err)
	}
	if st.Kind != KindFullTrain {
		t.Fatalf("grown dictionaries must force a full train, got %q", st.Kind)
	}

	stop.Store(true)
	wg.Wait()
	if err := streamErr.Load(); err != nil {
		t.Fatalf("request stream failed across the swap: %v", err)
	}
	if served.Load() == 0 {
		t.Fatal("no concurrent traffic served")
	}

	// The served generation now answers from the grown table...
	swapped, err := reg.Table("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if swapped.NumRows() <= tbl.NumRows() {
		t.Fatalf("swap did not install the grown table: %d rows", swapped.NumRows())
	}
	// ...and its accuracy on the fixed workload recovers to within 1.25x of
	// a model freshly trained on the same data.
	ctx := context.Background()
	servedMed := medianQErr(t, swapped, exprs, func(q workload.Query) float64 {
		card, err := estimate(ctx, reg, "alpha", q)
		if err != nil {
			t.Fatal(err)
		}
		return card
	})
	fresh := core.NewModel(swapped, cfg)
	core.Train(fresh, tc)
	freshMed := medianQErr(t, swapped, exprs, fresh.EstimateCard)
	if servedMed > 1.25*freshMed {
		t.Fatalf("post-swap median q-error %.3f exceeds 1.25x fresh-train %.3f", servedMed, freshMed)
	}

	// Versioned persistence: the retrain's artifact is the newest generation
	// on disk, it loads against the table now serving, and the registry
	// watches it.
	if v, path := artifact.Dir(dir).Latest("alpha"); v != st.Version || path != st.Path {
		t.Fatalf("newest generation on disk is v%d at %q, retrain reported v%d at %q", v, path, st.Version, st.Path)
	}
	if _, _, err := artifact.Load(st.Path, swapped); err != nil {
		t.Fatalf("versioned model file does not load: %v", err)
	}
	info := reg.Info()
	if len(info) != 1 || info[0].Swaps != 1 || info[0].Path != st.Path {
		t.Fatalf("registry info after lifecycle swap: %+v", info)
	}

	stats := sup.Stats()
	if len(stats) != 1 || stats[0].Retrains != 1 || stats[0].FullTrains != 1 || stats[0].Version != 1 {
		t.Fatalf("lifecycle stats: %+v", stats)
	}
	if stats[0].FeedbackN != 0 || stats[0].PendingRows != 0 {
		t.Fatalf("signals not reset after swap: %+v", stats[0])
	}
}

// TestFineTunePath: feedback drift without dictionary growth takes the cheap
// path — clone the served weights onto the backing table and fine-tune on
// the observed queries — and still swaps drain-safely.
func TestFineTunePath(t *testing.T) {
	tbl := lcTable("alpha", 3)
	cfg := lcConfig(7)
	tc := lcTrainConfig()
	m := core.NewModel(tbl, cfg)
	core.Train(m, tc)

	reg := registry.New(registry.Config{Dir: t.TempDir()})
	defer reg.Close()
	if err := reg.Add("alpha", tbl, m, registry.AddOpts{}); err != nil {
		t.Fatal(err)
	}
	retrained := make(chan RetrainStats, 8)
	ft := core.DefaultFineTuneConfig()
	ft.Steps = 20
	sup := NewSupervisor(reg, Policy{
		MaxMedianQErr: 1.5,
		MinFeedback:   8,
		CheckInterval: 5 * time.Millisecond,
		FineTune:      ft,
	}, Options{OnRetrain: func(st RetrainStats) { retrained <- st }})
	defer sup.Close()
	if err := sup.Manage("alpha", ManageOpts{Config: cfg, Train: tc}); err != nil {
		t.Fatal(err)
	}

	// Rows whose values all exist already: dictionaries stay fixed.
	rows := make([][]string, 32)
	for i := range rows {
		rows[i] = []string{"1", "1", "1"}
	}
	res, err := sup.Ingest("alpha", rows)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewValues != 0 {
		t.Fatalf("existing values reported fresh: %+v", res)
	}
	// Observed cardinalities far from the estimates trip the feedback signal.
	backing, _ := sup.BackingTable("alpha")
	for i := 0; i < 12; i++ {
		expr := fmt.Sprintf("k<=%d", 2+i)
		q, err := workload.ParseQuery(backing, expr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sup.Feedback("alpha", expr, 10*exec.Cardinality(backing, q)+100); err != nil {
			t.Fatal(err)
		}
	}
	var st RetrainStats
	select {
	case st = <-retrained:
	case <-time.After(60 * time.Second):
		t.Fatal("fine-tune never triggered")
	}
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	if st.Kind != KindFineTune {
		t.Fatalf("unchanged dictionaries must fine-tune, got %q", st.Kind)
	}
	if got, _ := reg.Table("alpha"); got.NumRows() != tbl.NumRows()+len(rows) {
		t.Fatalf("fine-tuned generation serves %d rows, want %d", got.NumRows(), tbl.NumRows()+len(rows))
	}
	stats := sup.Stats()
	if len(stats) != 1 || stats[0].FineTunes != 1 {
		t.Fatalf("stats after fine-tune: %+v", stats)
	}
}

// TestSupervisorErrors covers the management API's misuse paths.
func TestSupervisorErrors(t *testing.T) {
	tbl := lcTable("alpha", 5)
	reg := registry.New(registry.Config{Dir: t.TempDir()})
	defer reg.Close()
	if err := reg.Add("alpha", tbl, core.NewModel(tbl, lcConfig(1)), registry.AddOpts{}); err != nil {
		t.Fatal(err)
	}
	sup := NewSupervisor(reg, Policy{}, Options{})
	defer sup.Close()
	if err := sup.Manage("missing", ManageOpts{}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if err := sup.Manage("alpha", ManageOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := sup.Manage("alpha", ManageOpts{}); err == nil {
		t.Fatal("duplicate manage accepted")
	}
	if _, err := sup.Ingest("missing", nil); err == nil {
		t.Fatal("ingest into unmanaged model accepted")
	}
	if _, err := sup.Ingest("alpha", [][]string{{"1"}}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := sup.Ingest("alpha", [][]string{{"x", "1", "1"}}); err == nil {
		t.Fatal("unparseable cell accepted")
	}
	if _, err := sup.Feedback("missing", "k<=3", 1); err == nil {
		t.Fatal("feedback for unmanaged model accepted")
	}
	if _, err := sup.Feedback("alpha", "nonsense ===", 1); err == nil {
		t.Fatal("unparseable feedback expression accepted")
	}
	// An invalid ingest batch must leave no partial drift state.
	st := sup.Stats()
	if len(st) != 1 || st[0].PendingRows != 0 || st[0].MaxColumnDrift != 0 {
		t.Fatalf("failed ingest left state: %+v", st)
	}
}

// TestDataDriftForcesFullTrain: a distribution that shifts among EXISTING
// dictionary values keeps the encodings compatible, but a feedback-only
// fine-tune would not learn it (and resetting the drift counters afterwards
// would mask the signal for good) — so a data-side trip must take the
// full-train path even when stale feedback exists.
func TestDataDriftForcesFullTrain(t *testing.T) {
	tbl := lcTable("alpha", 13)
	cfg := lcConfig(5)
	tc := lcTrainConfig()
	m := core.NewModel(tbl, cfg)
	core.Train(m, tc)

	reg := registry.New(registry.Config{Dir: t.TempDir()})
	defer reg.Close()
	if err := reg.Add("alpha", tbl, m, registry.AddOpts{}); err != nil {
		t.Fatal(err)
	}
	retrained := make(chan RetrainStats, 4)
	sup := NewSupervisor(reg, Policy{
		MaxColumnDrift: 0.4, // data signal only; feedback signal disabled
		MinAppended:    32,
		CheckInterval:  5 * time.Millisecond,
	}, Options{OnRetrain: func(st RetrainStats) { retrained <- st }})
	defer sup.Close()
	if err := sup.Manage("alpha", ManageOpts{Config: cfg, Train: tc}); err != nil {
		t.Fatal(err)
	}

	// One stale feedback record exists (it must NOT divert the retrain onto
	// the fine-tune path).
	if _, err := sup.Feedback("alpha", "k<=3", 10); err != nil {
		t.Fatal(err)
	}
	// All mass on one existing value: huge TV distance, zero fresh values.
	rows := make([][]string, 48)
	for i := range rows {
		rows[i] = []string{"0", "0", "0"}
	}
	res, err := sup.Ingest("alpha", rows)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewValues != 0 {
		t.Fatalf("rows reused existing values, got %d fresh", res.NewValues)
	}
	if !res.Tripped {
		t.Fatalf("data drift %.3f did not trip", res.MaxColumnDrift)
	}
	select {
	case st := <-retrained:
		if st.Err != nil {
			t.Fatal(st.Err)
		}
		if st.Kind != KindFullTrain {
			t.Fatalf("data-drift retrain took the %q path; shifted distributions need a full train", st.Kind)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("data-drift retrain never ran")
	}
}
