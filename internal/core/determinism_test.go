package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"

	"duet/internal/exec"
	"duet/internal/relation"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// trainedHash trains a fresh hybrid model on tbl with every step on w and
// hashes every parameter and every epoch's losses, bit for bit.
func trainedHash(w *tensor.Workers, tbl *relation.Table, labeled []workload.LabeledQuery) [sha256.Size]byte {
	cfg := DefaultConfig()
	cfg.Hidden = []int{64, 64}
	m := NewModel(tbl, cfg)
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	tc.Workload = labeled
	hist := train(w, m, tc)
	h := sha256.New()
	var buf [8]byte
	for _, p := range m.Params() {
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
			h.Write(buf[:4])
		}
	}
	for _, e := range hist {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.DataLoss))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.QueryLoss))
		h.Write(buf[:])
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestTrainingBitwiseAcrossWorkersAndTiers: a training run's parameters and
// losses depend on the seed alone — not on how many workers the GEMM driver
// and the row-parallel step stages (softmax loss, ReLU, bias, Adam) split
// their work across, nor on which kernel tier runs the tiles. The model is
// sized so that every one of those stages does fork at three workers: 1,024
// network rows of 64 hidden units and 200 logits. Run under -race this is
// also the check that the stages' chunks are disjoint.
func TestTrainingBitwiseAcrossWorkersAndTiers(t *testing.T) {
	tbl := relation.Generate(relation.SynConfig{
		Name: "t", Rows: 512, Seed: 21,
		Cols: []relation.ColSpec{
			{Name: "a", NDV: 60, Skew: 1.4, Parent: -1},
			{Name: "b", NDV: 40, Skew: 0, Parent: 0, Noise: 0.1},
			{Name: "c", NDV: 100, Skew: 1.2, Parent: -1},
		},
	})
	labeled := exec.Label(tbl, workload.Generate(tbl, workload.GenConfig{
		Seed: 3, NumQueries: 64, MinPreds: 1, MaxPreds: 3, BoundedCol: -1}))
	origTier := tensor.KernelTier()
	defer func() {
		if err := tensor.SetKernelTier(origTier); err != nil {
			t.Fatal(err)
		}
	}()
	want := trainedHash(tensor.NewWorkers(1), tbl, labeled)
	three := tensor.NewWorkers(3)
	defer three.Close()
	for _, tier := range tensor.KernelTiers() {
		if err := tensor.SetKernelTier(tier); err != nil {
			t.Fatal(err)
		}
		if got := trainedHash(three, tbl, labeled); got != want {
			t.Errorf("tier %s, 3 workers: parameters or losses differ from tier %s, 1 worker", tier, origTier)
		}
	}
}
