package registry

import (
	"context"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"duet/internal/core"
	"duet/internal/workload"
)

// TestHotReloadUnderLoadLosesNoRequests is the drain-safety acceptance test:
// while estimate traffic hammers a file-backed model, the file is reloaded
// repeatedly (admin path) and finally the registry closes. Every request
// issued before Close must succeed with a finite, positive estimate — a
// reload may change *which* model generation answers, but it must never drop
// or fail an in-flight request. Run under -race this also exercises the
// swap/pin synchronization.
func TestHotReloadUnderLoadLosesNoRequests(t *testing.T) {
	dir := t.TempDir()
	ta := testTable("alpha", 1)
	path := filepath.Join(dir, "alpha.duet")
	writeModel(t, path, core.NewModel(ta, smallConfig(11)))

	reg := New(Config{Dir: dir, Serve: serveNoCache()})
	if err := reg.Add("alpha", ta, nil, AddOpts{}); err != nil {
		t.Fatal(err)
	}

	queries := testQueries(ta, 64)
	var (
		stop      atomic.Bool
		served    atomic.Uint64
		wg        sync.WaitGroup
		errCh     = make(chan error, 64)
		ctx       = context.Background()
		nWorkers  = 8
		nReloads  = 25
		badAnswer atomic.Bool
	)
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				q := queries[(i*nWorkers+w)%len(queries)]
				card, err := estimate(ctx, reg, "alpha", q)
				if err != nil {
					errCh <- err
					return
				}
				if math.IsNaN(card) || math.IsInf(card, 0) || card < 0 {
					badAnswer.Store(true)
					return
				}
				served.Add(1)
			}
		}(w)
	}

	// Alternate two model generations through the file and reload each time.
	m1 := core.NewModel(ta, smallConfig(11))
	m2 := core.NewModel(ta, smallConfig(99))
	for i := 0; i < nReloads; i++ {
		if i%2 == 0 {
			writeModel(t, path, m2)
		} else {
			writeModel(t, path, m1)
		}
		if err := reg.Reload("alpha"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}

	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("request failed during hot reload: %v", err)
	}
	if badAnswer.Load() {
		t.Fatal("non-finite estimate observed during hot reload")
	}
	if served.Load() == 0 {
		t.Fatal("no traffic served")
	}
	info := reg.Info()
	if len(info) != 1 || info[0].Reloads != uint64(nReloads) {
		t.Fatalf("expected %d reloads, info %+v", nReloads, info)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReloadAndClose drives reloads, traffic, and Close against
// each other; after Close every path must settle to ErrClosed without
// panics, deadlocks, or leaked dispatchers.
func TestConcurrentReloadAndClose(t *testing.T) {
	dir := t.TempDir()
	ta := testTable("alpha", 1)
	path := filepath.Join(dir, "alpha.duet")
	writeModel(t, path, core.NewModel(ta, smallConfig(11)))

	reg := New(Config{Dir: dir, Serve: serveNoCache()})
	if err := reg.Add("alpha", ta, nil, AddOpts{}); err != nil {
		t.Fatal(err)
	}
	q := workload.Query{Preds: []workload.Predicate{{Col: 0, Op: workload.OpLe, Code: 10}}}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := estimate(context.Background(), reg, "alpha", q); err == ErrClosed {
					return
				} else if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := reg.Reload("alpha"); err == ErrClosed {
					return
				} else if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestConcurrentResolveDuringSwap: routing reads the table and graph a swap
// replaces, so under -race this fails unless the router copies them under
// the registry lock.
func TestConcurrentResolveDuringSwap(t *testing.T) {
	ta := testTable("alpha", 1)
	reg := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	defer reg.Close()
	if err := reg.Add("alpha", ta, core.NewModel(ta, smallConfig(11)), AddOpts{}); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	resolved := make(chan error, 1)
	go func() {
		for !stop.Load() {
			if _, err := reg.Resolve("", "alpha.a<=5"); err != nil {
				resolved <- err
				return
			}
		}
		resolved <- nil
	}()
	for i := 0; i < 40; i++ {
		m, err := reg.CloneModelFor("alpha", testTable("alpha", 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.SwapModel("alpha", m, SwapOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	if err := <-resolved; err != nil {
		t.Fatal(err)
	}
}

// TestReloadNeverSeesShortFile: SaveModel replaces the model file by rename,
// so a Reload racing a loop of saves loads the previous bytes or the new
// ones — never a file still being written.
func TestReloadNeverSeesShortFile(t *testing.T) {
	ta := testTable("alpha", 1)
	reg := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	defer reg.Close()
	if err := reg.Add("alpha", ta, core.NewModel(ta, smallConfig(11)), AddOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SaveModel("alpha"); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	saved := make(chan error, 1)
	go func() {
		for !stop.Load() {
			if _, err := reg.SaveModel("alpha"); err != nil {
				saved <- err
				return
			}
		}
		saved <- nil
	}()
	for i := 0; i < 200; i++ {
		if err := reg.Reload("alpha"); err != nil {
			t.Errorf("reload %d: %v", i, err)
			break
		}
	}
	stop.Store(true)
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
}
