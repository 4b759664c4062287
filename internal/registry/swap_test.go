package registry

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"duet/internal/artifact"
	"duet/internal/core"
	"duet/internal/relation"
	"duet/internal/workload"
)

// TestSwapModelInstallsInMemory: SwapModel replaces model and table without a
// disk round-trip, records the versioned path as the new watch target, and
// serves the new generation's estimates.
func TestSwapModelInstallsInMemory(t *testing.T) {
	dir := t.TempDir()
	ta := testTable("alpha", 1)
	q := workload.Query{Preds: []workload.Predicate{{Col: 0, Op: workload.OpLe, Code: 20}}}
	m1 := trainedModel(ta, 11)

	reg := New(Config{Dir: dir, Serve: serveNoCache()})
	defer reg.Close()
	if err := reg.Add("alpha", ta, m1, AddOpts{}); err != nil {
		t.Fatal(err)
	}

	// The replacement serves a grown table (appended rows, same name).
	grown, err := relation.AppendRows(ta, [][]string{{"1", "2", "3"}, {"4", "5", "6"}})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := reg.CloneModelFor("alpha", grown)
	if err != nil {
		t.Fatal(err)
	}
	want := m2.EstimateCardBatch([]workload.Query{q})[0]

	path := filepath.Join(dir, "alpha.v1.duet")
	writeModel(t, path, m2)
	if err := reg.SwapModel("alpha", m2, SwapOpts{Path: path}); err != nil {
		t.Fatal(err)
	}
	if got, _ := estimate(context.Background(), reg, "alpha", q); got != want {
		t.Fatalf("post-swap estimate %v, want %v", got, want)
	}
	if tbl, _ := reg.Table("alpha"); tbl != grown {
		t.Fatal("swap did not install the new table")
	}
	info := reg.Info()
	if len(info) != 1 || info[0].Swaps != 1 || info[0].Path != path || info[0].Rows != grown.NumRows() {
		t.Fatalf("info after swap: %+v", info)
	}

	// Swapping a model whose table changed names must be rejected.
	other := testTable("beta", 2)
	if err := reg.SwapModel("alpha", core.NewModel(other, smallConfig(3)), SwapOpts{}); err == nil {
		t.Fatal("swap accepted a model serving a differently named table")
	}
	if err := reg.SwapModel("nope", m2, SwapOpts{}); err == nil {
		t.Fatal("swap accepted an unknown model")
	}
}

// TestWatchTickDebounce drives the watcher's per-poll decision directly: a
// changing file (a writer mid-flight) must never reload; only a signature
// stable across two consecutive polls may.
func TestWatchTickDebounce(t *testing.T) {
	dir := t.TempDir()
	ta := testTable("alpha", 1)
	path := filepath.Join(dir, "alpha.duet")
	writeModel(t, path, core.NewModel(ta, smallConfig(11)))
	reg := New(Config{Dir: dir, Serve: serveNoCache()})
	defer reg.Close()
	if err := reg.Add("alpha", ta, nil, AddOpts{}); err != nil {
		t.Fatal(err)
	}

	w := watchState{pending: map[string]artifact.Sig{}, failed: map[string]artifact.Sig{}}
	if got := reg.watchTick(w); len(got) != 0 {
		t.Fatalf("unchanged file reported stale: %v", got)
	}

	// A mid-write file: garbage bytes, then more garbage. Each poll sees a
	// different size, so no poll may trigger a reload.
	if err := os.WriteFile(path, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := reg.watchTick(w); len(got) != 0 {
		t.Fatalf("first observation of a change reloaded immediately: %v", got)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(" more bytes"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := reg.watchTick(w); len(got) != 0 {
		t.Fatalf("still-growing file reloaded: %v", got)
	}

	// The write completes (valid model, stable signature): the next two polls
	// observe the same signature and the second one triggers.
	m2 := trainedModel(ta, 99)
	writeModel(t, path, m2)
	if got := reg.watchTick(w); len(got) != 0 {
		t.Fatalf("settled file reloaded one poll early: %v", got)
	}
	if got := reg.watchTick(w); len(got) != 1 || got["alpha"] == (artifact.Sig{}) {
		t.Fatalf("settled file not reloaded on the confirming poll: %v", got)
	}
	if err := reg.Reload("alpha"); err != nil {
		t.Fatal(err)
	}

	// A file that reverts to the loaded signature drops its candidacy.
	if got := reg.watchTick(w); len(got) != 0 || len(w.pending) != 0 {
		t.Fatalf("post-reload state not clean: ready %v pending %v", got, w.pending)
	}

	// SaveModel records the signature of the file it wrote: the watcher must
	// not answer the registry's own save with a reload.
	if _, err := reg.SaveModel("alpha"); err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 2; tick++ {
		if got := reg.watchTick(w); len(got) != 0 || len(w.pending) != 0 {
			t.Fatalf("tick %d after SaveModel: ready %v pending %v", tick, got, w.pending)
		}
	}
}
