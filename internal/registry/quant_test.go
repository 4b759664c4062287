package registry

import (
	"context"
	"testing"
)

// TestAddQuantizedModel: Quant:"int8" applies at Add, surfaces in Info, and
// sticks across SwapModel — the lifecycle install path re-applies the serving
// config to each incoming generation.
func TestAddQuantizedModel(t *testing.T) {
	ta := testTable("alpha", 1)
	ma := trainedModel(ta, 11)
	reg := New(Config{Dir: t.TempDir()})
	defer reg.Close()

	if err := reg.Add("alpha", ta, ma, AddOpts{Quant: "int4"}); err == nil {
		t.Fatal("unknown quant mode accepted")
	}
	if err := reg.Add("alpha", ta, ma, AddOpts{Quant: QuantInt8}); err != nil {
		t.Fatal(err)
	}
	if !ma.PlanConfig().Quantize {
		t.Fatal("Add did not apply the quantized plan config")
	}
	info := reg.Info()
	if len(info) != 1 || info[0].Quant != QuantInt8 || info[0].PlanBytes <= 0 {
		t.Fatalf("Info = %+v, want quant=int8 with positive plan bytes", info)
	}
	qs := testQueries(ta, 8)
	for i, q := range qs {
		if _, err := estimate(context.Background(), reg, "alpha", q); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	// A swapped-in replacement (e.g. a lifecycle retrain) inherits the mode.
	mb := trainedModel(ta, 22)
	if err := reg.SwapModel("alpha", mb, SwapOpts{Version: 2}); err != nil {
		t.Fatal(err)
	}
	if !mb.PlanConfig().Quantize {
		t.Fatal("SwapModel did not re-apply the quantized plan config")
	}
	info = reg.Info()
	if info[0].Quant != QuantInt8 || info[0].PlanBytes <= 0 {
		t.Fatalf("post-swap Info = %+v, want quant=int8 with positive plan bytes", info[0])
	}
}
