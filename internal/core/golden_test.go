package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"duet/internal/exec"
	"duet/internal/made"
	"duet/internal/relation"
	"duet/internal/tensor"
	"duet/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from this run")

const goldenPath = "testdata/golden.txt"

// bitHash is sha256 over values' exact bits, little-endian: float32 bits for
// parameters, float64 bits for losses and estimates.
type bitHash struct {
	h   hash.Hash
	buf [8]byte
}

func newBitHash() *bitHash { return &bitHash{h: sha256.New()} }

func (b *bitHash) params(m *Model) *bitHash {
	for _, p := range m.Params() {
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint32(b.buf[:4], math.Float32bits(v))
			b.h.Write(b.buf[:4])
		}
	}
	return b
}

func (b *bitHash) floats(vs ...float64) *bitHash {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b.buf[:], math.Float64bits(v))
		b.h.Write(b.buf[:])
	}
	return b
}

// table hashes every column's name, kind, dictionary and codes, in order.
func (b *bitHash) table(t *relation.Table) *bitHash {
	for _, c := range t.Cols {
		fmt.Fprintf(b.h, "%s/%v/%d\x00", c.Name, c.Kind, c.NumDistinct())
		for v := 0; v < c.NumDistinct(); v++ {
			fmt.Fprintf(b.h, "%s\x00", c.ValueString(int32(v)))
		}
		for _, code := range relation.DecodeCodes(c.Codes) {
			binary.LittleEndian.PutUint32(b.buf[:4], uint32(code))
			b.h.Write(b.buf[:4])
		}
	}
	return b
}

// sum is the first 16 hex digits of the digest.
func (b *bitHash) sum() string { return hex.EncodeToString(b.h.Sum(nil))[:16] }

// goldenRowSource is benchmark/stack.go's rowSource: uniform draws of a
// table's rows from one seeded generator, so a model trains on a fixed
// tuple budget whatever the table's size.
type goldenRowSource struct {
	t   *relation.Table
	rng *rand.Rand
}

func (s *goldenRowSource) DrawTuples(dst [][]int32) {
	for _, d := range dst {
		s.t.RowCodes(s.rng.Intn(s.t.NumRows()), d)
	}
}

// TestGolden pins, bit for bit, what training and estimation compute: the
// two benchmark models, a hybrid Train and a FineTune after it (direct and
// MLP-MPSN), 600 estimates under every plan kind, 640 Rand-Q estimates on
// each benchmark model (trained activations through the served plan's
// shapes), and a materialized and a
// sampled join view with a model trained on each. Each line of
// testdata/golden.txt is a name and the first 16 hex digits of a sha256 over
// parameter float32 bits then per-epoch or per-step losses, over estimate
// float64 bits, or over a view's column names, dictionaries and codes. A
// change that means to move numbers reruns with -update, and the file's diff
// is the record; any other change must leave it as it is.
// Estimates are also checked to be bitwise independent of how the queries
// are cut into calls (one call, 64, 7, 1) and of the worker count.
func TestGolden(t *testing.T) {
	var got []string
	line := func(name, sum string) { got = append(got, name+" "+sum) }

	// The benchmark's two set-ups (benchmark/stack.go trainModel): data-only,
	// one epoch over a tuple budget drawn from a seed-1 row source.
	benchModels := map[string]*Model{}
	for _, bm := range []struct {
		name   string
		table  *relation.Table
		cfg    Config
		budget int
	}{
		{"bench-dmv", relation.SynDMV(20000, 1), DMVConfig(), 512},
		{"bench-census", relation.SynCensus(20000, 1), DefaultConfig(), 8192},
	} {
		m := NewModel(bm.table, bm.cfg)
		tc := DefaultTrainConfig()
		tc.Epochs = 1
		tc.Lambda = 0
		tc.Source = &goldenRowSource{t: bm.table, rng: rand.New(rand.NewSource(1))}
		tc.SourceRows = bm.budget
		h := newBitHash()
		hist := Train(m, tc)
		h.params(m)
		for _, e := range hist {
			h.floats(e.DataLoss)
		}
		line(bm.name, h.sum())
		benchModels[bm.name] = m
	}

	// Hybrid training on the table path, then fine-tuning on its worst
	// queries, for the direct encoding and the MLP MPSN.
	tbl := relation.Generate(relation.SynConfig{
		Name: "g", Rows: 600, Seed: 21,
		Cols: []relation.ColSpec{
			{Name: "a", NDV: 12, Skew: 1.4, Parent: -1},
			{Name: "b", NDV: 5, Skew: 0, Parent: 0, Noise: 0.1},
			{Name: "c", NDV: 40, Skew: 1.2, Parent: -1},
			{Name: "d", NDV: 600, Skew: 1.1, Parent: 2, Noise: 0.2},
		},
	})
	labeled := exec.Label(tbl, workload.Generate(tbl, workload.GenConfig{
		Seed: 3, NumQueries: 200, MinPreds: 1, MaxPreds: 3, BoundedCol: -1, MultiPredCols: 1}))
	qs := workload.Generate(tbl, workload.GenConfig{
		Seed: 4, NumQueries: 600, MinPreds: 1, MaxPreds: 4, BoundedCol: -1, MultiPredCols: 1})
	mlp := DefaultConfig()
	mlp.Hidden = []int{48, 48}
	mlp.MPSN = MPSNMLP
	mlp.MPSNHidden = 16
	mlp.MPSNOut = 8
	direct := DefaultConfig()
	direct.Hidden = []int{48, 48}
	models := map[string]*Model{}
	for _, k := range []struct {
		name string
		cfg  Config
	}{{"direct", direct}, {"mlp", mlp}} {
		m := NewModel(tbl, k.cfg)
		tc := DefaultTrainConfig()
		tc.Epochs = 2
		tc.BatchSize = 128
		tc.Workload = labeled
		tc.ImportanceProb = 0.3
		if k.cfg.MPSN != MPSNNone {
			tc.MaxPredsPerCol = 2
		}
		h := newBitHash()
		hist := Train(m, tc)
		h.params(m)
		for _, e := range hist {
			h.floats(e.DataLoss, e.QueryLoss)
		}
		line("train-"+k.name, h.sum())

		ft := DefaultFineTuneConfig()
		ft.Steps = 12
		h = newBitHash()
		losses := FineTune(m, labeled[:64], ft)
		h.params(m)
		h.floats(losses...)
		line("finetune-"+k.name, h.sum())
		models[k.name] = m
	}

	// 600 estimates per plan kind, and 640 Rand-Q estimates on each
	// benchmark model, cut into calls four ways, at one and two workers: one
	// line per kind, and every cut must hash the same.
	randQ := func(m *Model) []workload.Query {
		return workload.Generate(m.Table(), workload.RandQConfig(m.Table().NumCols(), 640))
	}
	f32 := func(m *Model) *Snapshot { return m.current() }
	sets := []*tensor.Workers{tensor.NewWorkers(1), tensor.NewWorkers(2)}
	defer sets[1].Close()
	for _, k := range []struct {
		name  string
		model *Model
		setup func(*Model) *Snapshot
		qs    []workload.Query
	}{
		{"estimate-f32", models["direct"], f32, qs},
		{"estimate-int8", models["direct"], func(m *Model) *Snapshot { return m.Compile(made.PlanConfig{Quantize: true}) }, qs},
		{"estimate-mlp-unmerged", models["mlp"], f32, qs},
		{"estimate-bench-dmv", benchModels["bench-dmv"], f32, randQ(benchModels["bench-dmv"])},
		{"estimate-bench-census", benchModels["bench-census"], f32, randQ(benchModels["bench-census"])},
	} {
		est, qs := k.setup(k.model), k.qs
		first := ""
		for i, w := range sets {
			workers := i + 1
			for _, per := range []int{len(qs), 64, 7, 1} {
				h := newBitHash()
				for lo := 0; lo < len(qs); lo += per {
					h.floats(est.estimateBatch(w, qs[lo:min(lo+per, len(qs))])...)
				}
				s := h.sum()
				if first == "" {
					first = s
					line(k.name, s)
				} else if s != first {
					t.Errorf("%s: calls of %d at %d workers hash %s, one call at one worker %s", k.name, per, workers, s, first)
				}
			}
		}
	}

	// Join views over a three-table chain with dangling rows on every side:
	// the materialized full outer join, every column, then a model trained on
	// its rows (so row order is pinned through training); a sampled view's
	// codes, then a model trained on further draws from the same sampler.
	g := goldenChain()
	view, err := relation.MultiJoin("ocr", g)
	if err != nil {
		t.Fatal(err)
	}
	line("join-view", newBitHash().table(view).sum())
	joinCfg := DefaultConfig()
	joinCfg.Hidden = []int{32, 32}
	m := NewModel(view, joinCfg)
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	tc.BatchSize = 64
	tc.Lambda = 0
	hist := Train(m, tc)
	h := newBitHash().params(m)
	for _, e := range hist {
		h.floats(e.DataLoss)
	}
	line("join-train", h.sum())
	sampler, err := relation.NewJoinSampler(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := sampler.SampleTable("ocr", 400)
	if err != nil {
		t.Fatal(err)
	}
	line("join-sample", newBitHash().table(sampled).sum())
	m = NewModel(sampled, joinCfg)
	tc.Source = sampler
	tc.SourceRows = 800
	hist = Train(m, tc)
	h = newBitHash().params(m)
	for _, e := range hist {
		h.floats(e.DataLoss)
	}
	line("join-sample-train", h.sum())

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readGolden()
	if err != nil {
		t.Fatalf("%v (run go test -run Golden -update ./internal/core to create it)", err)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("results moved off %s; if that is intended, rerun with -update and commit the diff\ngot:\n%s\nwant:\n%s",
			goldenPath, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// goldenChain is orders -> customers -> regions with rows dangling on every
// side: orders whose customer is missing (cust 0..19), customers with no
// orders (ids 130..139) or an unknown region (20..24), and regions no
// customer names (0, 1).
func goldenChain() *relation.JoinGraph {
	seq := func(n int, f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	orders := relation.NewTable("orders", []*relation.Column{
		relation.NewIntColumn("cust", seq(400, func(i int) int64 { return int64(i * 7 % 130) })),
		relation.NewIntColumn("amount", seq(400, func(i int) int64 { return int64(i * 13 % 29) })),
	})
	customers := relation.NewTable("customers", []*relation.Column{
		relation.NewIntColumn("id", seq(120, func(i int) int64 { return int64(i + 20) })),
		relation.NewIntColumn("region", seq(120, func(i int) int64 { return int64(i%23 + 2) })),
		relation.NewIntColumn("seg", seq(120, func(i int) int64 { return int64(i % 4) })),
	})
	regions := relation.NewTable("regions", []*relation.Column{
		relation.NewIntColumn("id", seq(20, func(i int) int64 { return int64(i) })),
		relation.NewIntColumn("pop", seq(20, func(i int) int64 { return int64(i * 37 % 50) })),
	})
	return &relation.JoinGraph{
		Tables: []*relation.Table{orders, customers, regions},
		Edges: []relation.JoinEdge{
			{LeftTable: "orders", LeftCol: "cust", RightTable: "customers", RightCol: "id"},
			{LeftTable: "customers", LeftCol: "region", RightTable: "regions", RightCol: "id"},
		},
	}
}

func readGolden() ([]string, error) {
	f, err := os.Open(goldenPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", goldenPath, err)
	}
	return lines, nil
}
