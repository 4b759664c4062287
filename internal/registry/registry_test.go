package registry

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"duet/internal/artifact"
	"duet/internal/container"
	"duet/internal/core"
	"duet/internal/relation"
	"duet/internal/workload"
)

// The helpers below give tests the one-query, one-expression and
// route-only shapes over the registry's two entry points, Query and Resolve.

// estimate answers one pre-parsed query with the named model.
func estimate(ctx context.Context, r *Registry, name string, q workload.Query) (float64, error) {
	cards, err := estimateBatch(ctx, r, name, []workload.Query{q})
	if err != nil {
		return 0, err
	}
	return cards[0], nil
}

// estimateBatch answers pre-parsed queries with the named model.
func estimateBatch(ctx context.Context, r *Registry, name string, qs []workload.Query) ([]float64, error) {
	res, err := r.Query(ctx, QueryRequest{Model: name, Queries: qs})
	return res.Cards, err
}

// estimateExpr routes and answers one expression, returning the model that
// answered alongside the estimate.
func estimateExpr(ctx context.Context, r *Registry, target, expr string) (string, float64, error) {
	res, err := r.Query(ctx, QueryRequest{Model: target, Expr: expr})
	if err != nil {
		return "", 0, err
	}
	return res.Models[0], res.Cards[0], nil
}

// route resolves an expression to (model name, rewritten query).
func route(r *Registry, target, expr string) (string, workload.Query, error) {
	res, err := r.Resolve(target, expr)
	return res.Model, res.Query, err
}

// testTable builds a small deterministic table named name.
func testTable(name string, seed int64) *relation.Table {
	return relation.Generate(relation.SynConfig{
		Name: name, Rows: 400, Seed: seed,
		Cols: []relation.ColSpec{
			{Name: "k", NDV: 40, Skew: 1.2, Parent: -1},
			{Name: "a", NDV: 16, Skew: 1.5, Parent: 0, Noise: 0.2},
			{Name: "b", NDV: 8, Skew: 1.1, Parent: -1},
		},
	})
}

// smallConfig keeps models tiny so tests stay fast.
func smallConfig(seed int64) core.Config {
	c := core.DefaultConfig()
	c.Hidden = []int{16, 16}
	c.EmbedDim = 8
	c.Seed = seed
	return c
}

func testQueries(t *relation.Table, n int) []workload.Query {
	qs := workload.Generate(t, workload.RandQConfig(t.NumCols(), n))
	return qs
}

// trainedModel fits a tiny model for one epoch; unlike a freshly initialized
// model (whose output layer starts at zero and estimates uniformly), two
// trained models with different seeds produce distinguishable estimates.
func trainedModel(tb *relation.Table, seed int64) *core.Model {
	m := core.NewModel(tb, smallConfig(seed))
	tc := core.DefaultTrainConfig()
	tc.Epochs = 1
	tc.Lambda = 0
	tc.Seed = seed
	core.Train(m, tc)
	return m
}

// TestRoutedEstimatesBitwiseEqualDirect is the acceptance criterion: one
// registry serving two models plus a join view must answer routed estimates
// bitwise equal to calling each model's estimator directly.
func TestRoutedEstimatesBitwiseEqualDirect(t *testing.T) {
	ta := testTable("alpha", 1)
	tb := testTable("beta", 2)
	tj, err := relation.EquiJoin("alpha_beta", ta, "k", tb, "k")
	if err != nil {
		t.Fatal(err)
	}
	ma := core.NewModel(ta, smallConfig(11))
	mb := core.NewModel(tb, smallConfig(22))
	mj := core.NewModel(tj, smallConfig(33))

	// Direct reference answers, computed before the registry owns the models.
	type ref struct {
		m  *core.Model
		tb *relation.Table
		qs []workload.Query
		ex []float64
	}
	refs := map[string]*ref{
		"alpha":      {m: ma, tb: ta, qs: testQueries(ta, 30)},
		"beta":       {m: mb, tb: tb, qs: testQueries(tb, 30)},
		"alpha_beta": {m: mj, tb: tj, qs: testQueries(tj, 30)},
	}
	for _, r := range refs {
		for _, q := range r.qs {
			r.ex = append(r.ex, r.m.EstimateCardBatch([]workload.Query{q})[0])
		}
	}

	reg := New(Config{Dir: t.TempDir()})
	defer reg.Close()
	if err := reg.Add("alpha", ta, ma, AddOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("beta", tb, mb, AddOpts{}); err != nil {
		t.Fatal(err)
	}
	spec := &relation.JoinEdge{LeftTable: "alpha", LeftCol: "k", RightTable: "beta", RightCol: "k"}
	if err := reg.Add("alpha_beta", tj, mj, AddOpts{Join: spec}); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for name, r := range refs {
		for i, q := range r.qs {
			got, err := estimate(ctx, reg, name, q)
			if err != nil {
				t.Fatalf("%s query %d: %v", name, i, err)
			}
			if math.Float64bits(got) != math.Float64bits(r.ex[i]) {
				t.Fatalf("%s query %d: routed %v != direct %v", name, i, got, r.ex[i])
			}
		}
	}
	if got := reg.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
}

func TestRegistryErrors(t *testing.T) {
	ta := testTable("alpha", 1)
	reg := New(Config{Dir: t.TempDir()})
	if err := reg.Add("", ta, core.NewModel(ta, smallConfig(1)), AddOpts{}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := reg.Add("alpha", ta, core.NewModel(ta, smallConfig(1)), AddOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("alpha", ta, core.NewModel(ta, smallConfig(1)), AddOpts{}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := estimate(context.Background(), reg, "nope", workload.Query{}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if err := reg.Reload("alpha"); err == nil {
		t.Fatal("reload of in-memory model accepted")
	}
	// Order-sensitive MPSN variants cannot sit behind the cache.
	cfg := smallConfig(1)
	cfg.MPSN = core.MPSNRNN
	if err := reg.Add("rnn", ta, core.NewModel(ta, cfg), AddOpts{}); err == nil {
		t.Fatal("order-sensitive MPSN accepted")
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
	if _, err := estimate(context.Background(), reg, "alpha", workload.Query{}); err != ErrClosed {
		t.Fatalf("Estimate after Close: %v, want ErrClosed", err)
	}
	if err := reg.Add("later", ta, core.NewModel(ta, smallConfig(1)), AddOpts{}); err != ErrClosed {
		t.Fatalf("Add after Close: %v, want ErrClosed", err)
	}
}

// TestSaveLoadReload exercises the model-directory persistence loop: save a
// model, register from file, overwrite the file with different weights, and
// observe the explicit reload swap them in.
func TestSaveLoadReload(t *testing.T) {
	dir := t.TempDir()
	ta := testTable("alpha", 1)
	q := workload.Query{Preds: []workload.Predicate{{Col: 0, Op: workload.OpLe, Code: 20}}}

	m1 := trainedModel(ta, 11)
	m2 := trainedModel(ta, 99) // different seed -> different weights
	want1 := m1.EstimateCardBatch([]workload.Query{q})[0]
	want2 := m2.EstimateCardBatch([]workload.Query{q})[0]
	if want1 == want2 {
		t.Fatal("test needs distinguishable models")
	}

	path := filepath.Join(dir, "alpha.duet")
	writeModel(t, path, m1)

	reg := New(Config{Dir: dir, Serve: serveNoCache()})
	defer reg.Close()
	if err := reg.Add("alpha", ta, nil, AddOpts{}); err != nil {
		t.Fatal(err)
	}
	if got, _ := estimate(context.Background(), reg, "alpha", q); got != want1 {
		t.Fatalf("initial estimate %v, want %v", got, want1)
	}

	writeModel(t, path, m2)
	if err := reg.Reload("alpha"); err != nil {
		t.Fatal(err)
	}
	if got, _ := estimate(context.Background(), reg, "alpha", q); got != want2 {
		t.Fatalf("post-reload estimate %v, want %v", got, want2)
	}
	if info := reg.Info(); len(info) != 1 || info[0].Reloads != 1 {
		t.Fatalf("info after reload: %+v", info)
	}

	// SaveModel round-trips the current weights to the model directory.
	if _, err := reg.SaveModel("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := artifact.Load(path, ta); err != nil {
		t.Fatalf("saved model does not load: %v", err)
	}
}

// TestWatcherHotReload covers the file watcher: touching the model file with
// new weights swaps the served model without any admin call.
func TestWatcherHotReload(t *testing.T) {
	dir := t.TempDir()
	ta := testTable("alpha", 1)
	q := workload.Query{Preds: []workload.Predicate{{Col: 0, Op: workload.OpLe, Code: 20}}}
	m1 := trainedModel(ta, 11)
	m2 := trainedModel(ta, 99)
	want2 := m2.EstimateCardBatch([]workload.Query{q})[0]

	path := filepath.Join(dir, "alpha.duet")
	writeModel(t, path, m1)
	reloaded := make(chan error, 16)
	reg := New(Config{
		Dir: dir, Serve: serveNoCache(), WatchInterval: 5 * time.Millisecond,
		OnReload: func(name string, err error) { reloaded <- err },
	})
	defer reg.Close()
	if err := reg.Add("alpha", ta, nil, AddOpts{}); err != nil {
		t.Fatal(err)
	}

	writeModel(t, path, m2)
	// Force a visible mtime change even on coarse-grained filesystems.
	if err := os.Chtimes(path, time.Now(), time.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-reloaded:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never reloaded")
	}
	if got, _ := estimate(context.Background(), reg, "alpha", q); got != want2 {
		t.Fatalf("post-watch estimate %v, want %v", got, want2)
	}
}

// TestWatcherSurvivesMalformedFile: a malformed file written over a watched
// model fails its reload and the last good generation keeps serving; the
// watcher tries each such write once, not on every poll while it sits there,
// and a good write after it still reloads.
func TestWatcherSurvivesMalformedFile(t *testing.T) {
	dir := t.TempDir()
	ta := testTable("alpha", 1)
	q := workload.Query{Preds: []workload.Predicate{{Col: 0, Op: workload.OpLe, Code: 20}}}
	m1 := trainedModel(ta, 11)
	want := m1.EstimateCardBatch([]workload.Query{q})[0]

	path := filepath.Join(dir, "alpha.duet")
	writeModel(t, path, m1)
	reloaded := make(chan error, 64)
	reg := New(Config{
		Dir: dir, Serve: serveNoCache(), WatchInterval: 5 * time.Millisecond,
		// Never block the watcher (or Reload below) on a full channel: a
		// watcher that retried the unchanged file would fill it. 64 holds
		// the four outcomes this test expects and the retries that quiet
		// counts at 40 polls per wait.
		OnReload: func(name string, err error) {
			select {
			case reloaded <- err:
			default:
			}
		},
	})
	defer reg.Close()
	if err := reg.Add("alpha", ta, nil, AddOpts{}); err != nil {
		t.Fatal(err)
	}

	// place renames the finished file tmp over the watched path, stamped
	// hours ahead, so the watcher sees each write as one change however
	// slowly it was written.
	tmp := filepath.Join(dir, "next.tmp")
	place := func(hours int) {
		t.Helper()
		if err := os.Chtimes(tmp, time.Now(), time.Now().Add(time.Duration(hours)*time.Hour)); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
	}
	// writeBad writes a model file whose metadata holds hidden widths no
	// network can have.
	writeBad := func(write int) {
		t.Helper()
		bad := smallConfig(11)
		bad.Hidden = []int{-write, -write}
		f, err := os.Create(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if err := container.Encode(f, "DUETMOD1", struct {
			Config core.Config `json:"config"`
			NDVs   []int       `json:"ndvs"`
		}{bad, ta.NDVs()}, nil); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		place(write)
	}
	// next waits for the watcher's next reload outcome.
	next := func() error {
		t.Helper()
		select {
		case err := <-reloaded:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("the watcher never tried the new file")
			return nil
		}
	}
	// quiet checks that 40 polls pass with no further reload.
	quiet := func() {
		t.Helper()
		time.Sleep(200 * time.Millisecond)
		if n := len(reloaded); n != 0 {
			t.Fatalf("the watcher reloaded an unchanged file %d more times", n)
		}
	}

	for write := 1; write <= 2; write++ {
		writeBad(write)
		if err := next(); err == nil {
			t.Fatal("the watcher loaded a malformed model file")
		} else {
			t.Log(err)
		}
		quiet()
	}
	if err := reg.Reload("alpha"); err == nil {
		t.Fatal("Reload loaded a malformed model file")
	}
	<-reloaded // the admin Reload's own outcome
	if got, err := estimate(context.Background(), reg, "alpha", q); err != nil || got != want {
		t.Fatalf("estimate after the failed reloads: %v, %v; want %v from the first generation", got, err, want)
	}

	m2 := trainedModel(ta, 12)
	writeModel(t, tmp, m2)
	place(3)
	if err := next(); err != nil {
		t.Fatalf("the good write after the malformed ones did not reload: %v", err)
	}
	want2 := m2.EstimateCardBatch([]workload.Query{q})[0]
	if got, err := estimate(context.Background(), reg, "alpha", q); err != nil || got != want2 {
		t.Fatalf("estimate after the good write: %v, %v; want %v", got, err, want2)
	}
	quiet()
}

func writeModel(t *testing.T, path string, m *core.Model) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
