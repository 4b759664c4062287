package registry

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"duet/internal/core"
	"duet/internal/exec"
	"duet/internal/made"
	"duet/internal/relation"
	"duet/internal/workload"
)

// servesBitwise fails t unless the named model answers every query bitwise
// as want does.
func servesBitwise(t *testing.T, reg *Registry, name string, qs []workload.Query, want []float64) {
	t.Helper()
	got, err := estimateBatch(context.Background(), reg, name, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s, query %d: served %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestAddQuantizedModel: Quant:"int8" compiles the generation's plan at Add,
// surfaces in Info, and sticks across SwapModel: the lifecycle install path
// compiles each incoming generation under the entry's mode, whatever model
// it is handed.
func TestAddQuantizedModel(t *testing.T) {
	ta := testTable("alpha", 1)
	ma := trainedModel(ta, 11)
	reg := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	defer reg.Close()

	if err := reg.Add("alpha", ta, ma, AddOpts{Quant: "int4"}); err == nil {
		t.Fatal("unknown quant mode accepted")
	}
	if err := reg.Add("alpha", ta, ma, AddOpts{Quant: QuantInt8}); err != nil {
		t.Fatal(err)
	}
	want := ma.Compile(made.PlanConfig{Quantize: true})
	info := reg.Info()
	if len(info) != 1 || info[0].Quant != QuantInt8 || info[0].PlanBytes != want.WeightBytes() {
		t.Fatalf("Info = %+v, want quant=int8 with %d plan bytes", info, want.WeightBytes())
	}
	qs := testQueries(ta, 8)
	servesBitwise(t, reg, "alpha", qs, want.EstimateCardBatch(qs))

	// A swapped-in replacement (e.g. a lifecycle fine-tune of a clone)
	// serves int8 too.
	mb, err := reg.CloneModelFor("alpha", ta)
	if err != nil {
		t.Fatal(err)
	}
	core.FineTune(mb, []workload.LabeledQuery{{Query: qs[0], Card: 1}},
		core.FineTuneConfig{Steps: 5, QueryBatch: 4, LR: 1e-2, Lambda: 1, Seed: 7})
	if err := reg.SwapModel("alpha", mb, SwapOpts{Version: 2}); err != nil {
		t.Fatal(err)
	}
	info = reg.Info()
	if info[0].Quant != QuantInt8 || info[0].PlanBytes <= 0 {
		t.Fatalf("post-swap Info = %+v, want quant=int8 with positive plan bytes", info[0])
	}
	servesBitwise(t, reg, "alpha", qs, mb.Compile(made.PlanConfig{Quantize: true}).EstimateCardBatch(qs))
}

// TestSharedModelKeepsEachEntrysQuant: one model registered as an f32 entry
// and as an int8 entry serves each under its own mode. Adding the int8 entry
// must not change the f32 entry's answers, nor the caller's model.
func TestSharedModelKeepsEachEntrysQuant(t *testing.T) {
	ta := testTable("alpha", 1)
	m := trainedModel(ta, 11)
	qs := testQueries(ta, 32)
	f32 := m.EstimateCardBatch(qs)
	reg := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	defer reg.Close()
	if err := reg.Add("a", ta, m, AddOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("b", ta, m, AddOpts{Quant: QuantInt8}); err != nil {
		t.Fatal(err)
	}
	servesBitwise(t, reg, "a", qs, f32)
	servesBitwise(t, reg, "b", qs, m.Compile(made.PlanConfig{Quantize: true}).EstimateCardBatch(qs))
	servesBitwise(t, reg, "a", qs, m.EstimateCardBatch(qs))
	info := reg.Info()
	if len(info) != 2 || info[0].Quant != "" || info[1].Quant != QuantInt8 {
		t.Fatalf("Info = %+v, want a f32 and b int8", info)
	}
}

// TestAddedModelIgnoresLaterTraining: an entry serves the weights its model
// had at Add. Fine-tuning the caller's model afterwards, an MLP-MPSN one or
// a direct one, changes the model's own answers and leaves every served
// answer bitwise as it was.
func TestAddedModelIgnoresLaterTraining(t *testing.T) {
	ta := testTable("alpha", 1)
	qs := testQueries(ta, 32)
	mlp := smallConfig(11)
	mlp.MPSN = core.MPSNMLP
	reg := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	defer reg.Close()
	for _, k := range []struct {
		name string
		cfg  core.Config
	}{{"mlp", mlp}, {"direct", smallConfig(11)}} {
		m := core.NewModel(ta, k.cfg)
		tc := core.DefaultTrainConfig()
		tc.Epochs = 1
		tc.Lambda = 0
		core.Train(m, tc)
		if err := reg.Add(k.name, ta, m, AddOpts{}); err != nil {
			t.Fatal(err)
		}
		served, err := estimateBatch(context.Background(), reg, k.name, qs)
		if err != nil {
			t.Fatal(err)
		}
		before := m.EstimateCardBatch(qs)
		core.FineTune(m, exec.Label(ta, qs), core.FineTuneConfig{Steps: 20, QueryBatch: 16, LR: 1e-2, Lambda: 1, Seed: 7})
		if slices.Equal(m.EstimateCardBatch(qs), before) {
			t.Fatalf("%s: fine-tuning left the model's own answers unchanged", k.name)
		}
		servesBitwise(t, reg, k.name, qs, served)
	}
}

// heapBytes is the live heap after a full collection.
func heapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestGenerationHeap: a generation keeps a compiled snapshot and the model's
// Save bytes, never the training model. Eight resident untrained DMV
// generations cost at most 24 MB of heap each with the f32 plan and 18 MB
// with int8; a generation holding its *core.Model (weights, gradients, MADE
// masks) cost 41.0 and 34.8 MB. CloneModelFor returns exactly the weights
// that were registered.
func TestGenerationHeap(t *testing.T) {
	tbl := relation.SynDMV(20000, 1)
	dmv := func(i int) *core.Model {
		cfg := core.DMVConfig()
		cfg.Seed = int64(i + 1)
		return core.NewModel(tbl, cfg)
	}
	const n = 8
	for _, k := range []struct {
		quant string
		maxMB float64
	}{{"", 24}, {QuantInt8, 18}} {
		reg := New(Config{Dir: t.TempDir()})
		before := heapBytes()
		for i := 0; i < n; i++ {
			if err := reg.Add(fmt.Sprint("m", i), tbl, dmv(i), AddOpts{Quant: k.quant}); err != nil {
				t.Fatal(err)
			}
		}
		perGen := float64(heapBytes()-before) / n / 1e6
		t.Logf("quant %q: %.2f MB per generation", k.quant, perGen)
		if perGen > k.maxMB {
			t.Errorf("quant %q: %.2f MB per generation, want <= %.0f MB", k.quant, perGen, k.maxMB)
		}

		clone, err := reg.CloneModelFor("m3", tbl)
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := clone.Save(&got); err != nil {
			t.Fatal(err)
		}
		if err := dmv(3).Save(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("quant %q: the clone's Save bytes differ from the registered model's", k.quant)
		}
		reg.Close()
	}
}
