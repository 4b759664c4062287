package lifecycle

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"duet/internal/core"
	"duet/internal/exec"
	"duet/internal/registry"
	"duet/internal/workload"
)

// TestLifecycleSwapsUnderLoad extends the registry reload-race pattern to
// lifecycle-triggered swaps: while estimate traffic hammers a managed model,
// repeated feedback-driven retrains fine-tune and hot-swap it. Every request
// issued before shutdown must succeed with a finite, non-negative estimate —
// a swap may change which generation answers, but it must never drop or fail
// an in-flight request, and no partially installed generation may ever be
// observed. Run under -race this also exercises the supervisor/registry
// synchronization.
func TestLifecycleSwapsUnderLoad(t *testing.T) {
	tbl := lcTable("alpha", 9)
	cfg := lcConfig(21)
	tc := lcTrainConfig()
	m := core.NewModel(tbl, cfg)
	core.Train(m, tc)

	reg := registry.New(registry.Config{Dir: t.TempDir()})
	defer reg.Close()
	if err := reg.Add("alpha", tbl, m, registry.AddOpts{}); err != nil {
		t.Fatal(err)
	}
	retrained := make(chan RetrainStats, 16)
	ft := core.DefaultFineTuneConfig()
	ft.Steps = 10
	sup := NewSupervisor(reg, Policy{
		MaxMedianQErr: 1.2,
		MinFeedback:   4,
		CheckInterval: 2 * time.Millisecond,
		FineTune:      ft,
	}, Options{OnRetrain: func(st RetrainStats) { retrained <- st }})
	defer sup.Close()
	if err := sup.Manage("alpha", ManageOpts{Config: cfg, Train: tc}); err != nil {
		t.Fatal(err)
	}

	queries := workload.Generate(tbl, workload.RandQConfig(tbl.NumCols(), 32))
	var (
		stop      atomic.Bool
		served    atomic.Uint64
		streamErr atomic.Value
		wg        sync.WaitGroup
	)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				q := queries[(i*6+w)%len(queries)]
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

	// Drive several consecutive swap generations: observed cardinalities far
	// from the estimates keep the feedback signal tripping after each reset.
	const nSwaps = 4
	for gen := 0; gen < nSwaps; gen++ {
		backing, err := sup.BackingTable("alpha")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			expr := fmt.Sprintf("k<=%d", 3+i)
			q, err := workload.ParseQuery(backing, expr)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sup.Feedback("alpha", expr, 20*exec.Cardinality(backing, q)+500); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case st := <-retrained:
			if st.Err != nil {
				t.Fatalf("generation %d: %v", gen, st.Err)
			}
			if st.Kind != KindFineTune {
				t.Fatalf("generation %d: want finetune, got %q", gen, st.Kind)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("generation %d never retrained", gen)
		}
	}

	stop.Store(true)
	wg.Wait()
	if err := streamErr.Load(); err != nil {
		t.Fatalf("request failed across lifecycle swaps: %v", err)
	}
	if served.Load() == 0 {
		t.Fatal("no traffic served")
	}
	// Leftover feedback recorded around a swap may trip one extra retrain, so
	// the counters are lower-bounded, not exact.
	info := reg.Info()
	if len(info) != 1 || info[0].Swaps < nSwaps {
		t.Fatalf("expected >= %d swaps, info %+v", nSwaps, info)
	}
	stats := sup.Stats()
	if len(stats) != 1 || stats[0].Retrains < nSwaps || stats[0].FineTunes < nSwaps {
		t.Fatalf("lifecycle stats after %d swaps: %+v", nSwaps, stats)
	}
}
