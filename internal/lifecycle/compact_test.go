package lifecycle

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"duet/internal/colstore"
	"duet/internal/core"
	"duet/internal/registry"
	"duet/internal/relation"
	"duet/internal/workload"
)

// tailFree reports whether every column of t reads straight off a packed code
// array — i.e. the append tail was compacted away.
func tailFree(t *relation.Table) bool {
	for _, c := range t.Cols {
		if _, tail := c.Codes.(*relation.TailCodes); tail {
			return false
		}
	}
	return true
}

// TestIngestRetrainCompactsMappedBase is the tentpole's lifecycle acceptance
// test: a model served off a mapped .duetcol base takes ingest (which builds
// an in-memory append tail over the immutable mapping), drift trips a retrain,
// and the retrain compacts base + tail into a fresh columnar file — swapped
// atomically with the model — while a concurrent estimate stream crosses every
// swap with zero errors (run under -race in CI). After each cycle the live
// backing must be tail-free again and the on-disk file must hold all rows.
func TestIngestRetrainCompactsMappedBase(t *testing.T) {
	dir := t.TempDir()
	pack := filepath.Join(dir, "alpha.duetcol")
	if err := colstore.Write(pack, lcTable("alpha", 3)); err != nil {
		t.Fatal(err)
	}
	st, err := colstore.Open(pack)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl := st.Table

	cfg := lcConfig(11)
	tc := lcTrainConfig()
	m := core.NewModel(tbl, cfg)
	core.Train(m, tc)

	reg := registry.New(registry.Config{Dir: t.TempDir()})
	defer reg.Close()
	if err := reg.Add("alpha", tbl, m, registry.AddOpts{}); err != nil {
		t.Fatal(err)
	}
	retrained := make(chan RetrainStats, 16)
	sup := NewSupervisor(reg, Policy{
		MaxColumnDrift: 0.05,
		MinAppended:    32,
		CheckInterval:  2 * time.Millisecond,
	}, Options{OnRetrain: func(rs RetrainStats) { retrained <- rs }})
	defer sup.Close()
	if err := sup.Manage("alpha", ManageOpts{Config: cfg, Train: tc, Pack: pack}); err != nil {
		t.Fatal(err)
	}

	queries := workload.Generate(tbl, workload.RandQConfig(tbl.NumCols(), 24))
	var (
		stop      atomic.Bool
		served    atomic.Uint64
		streamErr atomic.Value
		wg        sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				q := queries[(i*4+w)%len(queries)]
				card, err := estimate(context.Background(), reg, "alpha", q)
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
		}(w)
	}

	rows := tbl.NumRows()
	const cycles = 3
	for gen := 0; gen < cycles; gen++ {
		// Rows with fresh dictionary values: the append becomes a TailCodes
		// overlay on the mapped base, and the drift signal trips a full train.
		batch := make([][]string, 40)
		for i := range batch {
			j := gen*40 + i
			batch[i] = []string{
				strconv.Itoa(1000 + j),
				strconv.Itoa(500 + j%8),
				strconv.Itoa(200 + j%4),
			}
		}
		if _, err := sup.Ingest("alpha", batch); err != nil {
			t.Fatal(err)
		}
		rows += len(batch)

		backing, err := sup.BackingTable("alpha")
		if err != nil {
			t.Fatal(err)
		}
		if gen == 0 && tailFree(backing) {
			t.Fatal("ingest over a mapped base did not build an append tail")
		}

		select {
		case rs := <-retrained:
			if rs.Err != nil {
				t.Fatalf("cycle %d: retrain failed: %v", gen, rs.Err)
			}
			if rs.Kind != KindFullTrain {
				t.Fatalf("cycle %d: want full train, got %q", gen, rs.Kind)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("cycle %d never retrained", gen)
		}

		// The retrain must have compacted tail into the .duetcol and rebased
		// the live backing onto the new mapping.
		backing, err = sup.BackingTable("alpha")
		if err != nil {
			t.Fatal(err)
		}
		if backing.NumRows() != rows {
			t.Fatalf("cycle %d: backing has %d rows, want %d", gen, backing.NumRows(), rows)
		}
		if !tailFree(backing) {
			t.Fatalf("cycle %d: backing still carries an append tail after compaction", gen)
		}
		// And the file on disk is the compacted generation, independently
		// reopenable with every row.
		chk, err := colstore.Open(pack)
		if err != nil {
			t.Fatalf("cycle %d: reopen compacted file: %v", gen, err)
		}
		if chk.Table.NumRows() != rows {
			chk.Close()
			t.Fatalf("cycle %d: compacted file has %d rows, want %d", gen, chk.Table.NumRows(), rows)
		}
		chk.Close()
		// The served table swapped along with the model.
		cur, err := reg.Table("alpha")
		if err != nil {
			t.Fatal(err)
		}
		if cur.NumRows() != rows || !tailFree(cur) {
			t.Fatalf("cycle %d: served table rows=%d tailFree=%v, want %d/true", gen, cur.NumRows(), tailFree(cur), rows)
		}
	}

	stop.Store(true)
	wg.Wait()
	if err := streamErr.Load(); err != nil {
		t.Fatalf("request failed across compaction swaps: %v", err)
	}
	if served.Load() == 0 {
		t.Fatal("no traffic served")
	}
}

// TestManageRejectsPackOnGraphView pins the Manage-time validation: Pack only
// applies to base-table models.
func TestManageRejectsPackOnGraphView(t *testing.T) {
	t1, t2 := lcTable("t1", 5), lcTable("t2", 6)
	cfg := lcConfig(7)
	tc := lcTrainConfig()
	reg := registry.New(registry.Config{Dir: t.TempDir()})
	defer reg.Close()
	for name, tbl := range map[string]*relation.Table{"t1": t1, "t2": t2} {
		m := core.NewModel(tbl, cfg)
		core.Train(m, tc)
		if err := reg.Add(name, tbl, m, registry.AddOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	view, err := relation.MultiJoin("view", &relation.JoinGraph{
		Tables: []*relation.Table{t1, t2},
		Edges:  []relation.JoinEdge{{LeftTable: "t1", LeftCol: "k", RightTable: "t2", RightCol: "k"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	vm := core.NewModel(view, cfg)
	core.Train(vm, tc)
	spec := registry.JoinGraphSpec{
		Tables: []string{"t1", "t2"},
		Edges:  []relation.JoinEdge{{LeftTable: "t1", LeftCol: "k", RightTable: "t2", RightCol: "k"}},
	}
	if err := reg.Add("view", view, vm, registry.AddOpts{Graph: &spec}); err != nil {
		t.Fatal(err)
	}
	sup := NewSupervisor(reg, Policy{}, Options{})
	defer sup.Close()
	if err := sup.Manage("view", ManageOpts{Pack: "x.duetcol"}); err == nil {
		t.Fatal("Manage accepted Pack on a graph view")
	}
}
