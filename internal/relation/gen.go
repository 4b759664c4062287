package relation

import (
	"fmt"
	"math/rand"
)

// ColSpec describes one synthetic column.
type ColSpec struct {
	Name   string
	NDV    int     // domain size before compaction
	Skew   float64 // Zipf s parameter (>1); <=1 means uniform
	Parent int     // index of the column this one correlates with; -1 for none
	Noise  float64 // probability of ignoring the parent and sampling fresh
}

// SynConfig configures the generic correlated-Zipf generator.
type SynConfig struct {
	Name string
	Rows int
	Seed int64
	Cols []ColSpec
}

// Generate produces a synthetic table. Root columns draw codes from a Zipf
// (or uniform) distribution over their domain; dependent columns follow a
// fixed pseudo-random functional map of their parent's code with probability
// 1-Noise, which produces the strong cross-column correlation that separates
// joint-distribution estimators from attribute-independence ones.
func Generate(cfg SynConfig) *Table {
	if cfg.Rows <= 0 {
		panic("relation: Generate needs Rows > 0")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := len(cfg.Cols)
	codes := make([][]int32, n)
	samplers := make([]func() int32, n)
	for i, cs := range cfg.Cols {
		if cs.NDV < 1 {
			panic(fmt.Sprintf("relation: column %q NDV must be >= 1", cs.Name))
		}
		if cs.Parent >= i {
			panic(fmt.Sprintf("relation: column %q parent %d must precede it", cs.Name, cs.Parent))
		}
		codes[i] = make([]int32, cfg.Rows)
		samplers[i] = makeSampler(cs, rng)
	}
	for i, cs := range cfg.Cols {
		sample := samplers[i]
		if cs.Parent < 0 {
			for r := 0; r < cfg.Rows; r++ {
				codes[i][r] = sample()
			}
			continue
		}
		parent := codes[cs.Parent]
		ndv := int32(cs.NDV)
		for r := 0; r < cfg.Rows; r++ {
			if rng.Float64() < cs.Noise {
				codes[i][r] = sample()
			} else {
				codes[i][r] = funcMap(parent[r], ndv)
			}
		}
	}
	cols := make([]*Column, n)
	for i, cs := range cfg.Cols {
		cols[i] = NewCodedColumn(cs.Name, codes[i], cs.NDV)
	}
	return NewTable(cfg.Name, cols)
}

// funcMap is the deterministic parent→child code map (a Fibonacci hash into
// the child domain).
func funcMap(parent, ndv int32) int32 {
	h := uint64(uint32(parent)) * 2654435761
	return int32(h % uint64(ndv))
}

func makeSampler(cs ColSpec, rng *rand.Rand) func() int32 {
	if cs.Skew > 1 && cs.NDV > 1 {
		z := rand.NewZipf(rng, cs.Skew, 1, uint64(cs.NDV-1))
		return func() int32 { return int32(z.Uint64()) }
	}
	ndv := cs.NDV
	return func() int32 { return int32(rng.Intn(ndv)) }
}

// Synthetic generates one of the three evaluation stand-ins by the name the
// CLIs and manifests use: dmv, kdd or census.
func Synthetic(name string, rows int, seed int64) (*Table, error) {
	switch name {
	case "dmv":
		return SynDMV(rows, seed), nil
	case "kdd":
		return SynKDD(rows, seed), nil
	case "census":
		return SynCensus(rows, seed), nil
	default:
		return nil, fmt.Errorf("unknown synthetic dataset %q", name)
	}
}

// SynDMV mirrors the shape of the DMV dataset used by Naru and Duet: 11
// columns mixing tiny flag domains, mid-size categorical domains, a
// date-like column, and a large 2774-value domain, with Zipf skew and a
// correlation chain (e.g. county depends on state, body type on record
// type). The paper's table has 12.37M rows; pass rows to scale.
func SynDMV(rows int, seed int64) *Table {
	return Generate(SynConfig{
		Name: "syn-dmv", Rows: rows, Seed: seed,
		Cols: []ColSpec{
			{Name: "record_type", NDV: 4, Skew: 1.3, Parent: -1},
			{Name: "reg_class", NDV: 75, Skew: 1.5, Parent: 0, Noise: 0.3},
			{Name: "state", NDV: 67, Skew: 2.0, Parent: -1},
			{Name: "county", NDV: 63, Skew: 1.2, Parent: 2, Noise: 0.15},
			{Name: "body_type", NDV: 35, Skew: 1.4, Parent: 1, Noise: 0.25},
			{Name: "fuel_type", NDV: 9, Skew: 1.8, Parent: 4, Noise: 0.2},
			{Name: "reg_date", NDV: 367, Skew: 0, Parent: -1},
			{Name: "color", NDV: 225, Skew: 1.6, Parent: -1},
			{Name: "scofflaw", NDV: 2, Skew: 2.5, Parent: -1},
			{Name: "suspension", NDV: 2, Skew: 2.5, Parent: 8, Noise: 0.4},
			{Name: "max_weight", NDV: 2774, Skew: 1.1, Parent: 4, Noise: 0.35},
		},
	})
}

// SynKDD mirrors Kddcup98: 100 columns with NDV in [2, 57], organized as 20
// correlated blocks of 5 columns (a root plus four noisy dependents). This
// is the high-dimensional table on which the paper demonstrates progressive
// sampling's long-tail problem and Duet's O(1) scalability. The original has
// 95,412 rows.
func SynKDD(rows int, seed int64) *Table {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	cols := make([]ColSpec, 0, 100)
	for b := 0; b < 20; b++ {
		root := len(cols)
		cols = append(cols, ColSpec{
			Name: fmt.Sprintf("c%02d_root", b), NDV: 2 + rng.Intn(56),
			Skew: 1.1 + rng.Float64(), Parent: -1,
		})
		for k := 1; k < 5; k++ {
			cols = append(cols, ColSpec{
				Name: fmt.Sprintf("c%02d_%d", b, k), NDV: 2 + rng.Intn(56),
				Skew: 1.1 + rng.Float64(), Parent: root, Noise: 0.1 + 0.2*rng.Float64(),
			})
		}
	}
	return Generate(SynConfig{Name: "syn-kdd", Rows: rows, Seed: seed, Cols: cols})
}

// SynCensus mirrors the UCI Census (adult) dataset: 14 columns, NDV in
// [2, 123], moderate skew, a few correlated pairs (education/occupation,
// relationship/marital status). The original has 48,842 rows.
func SynCensus(rows int, seed int64) *Table {
	return Generate(SynConfig{
		Name: "syn-census", Rows: rows, Seed: seed,
		Cols: []ColSpec{
			{Name: "age", NDV: 74, Skew: 1.2, Parent: -1},
			{Name: "workclass", NDV: 9, Skew: 1.7, Parent: -1},
			{Name: "fnlwgt_bin", NDV: 100, Skew: 0, Parent: -1},
			{Name: "education", NDV: 16, Skew: 1.4, Parent: -1},
			{Name: "education_num", NDV: 16, Skew: 0, Parent: 3, Noise: 0.02},
			{Name: "marital", NDV: 7, Skew: 1.5, Parent: 0, Noise: 0.3},
			{Name: "occupation", NDV: 15, Skew: 1.3, Parent: 3, Noise: 0.25},
			{Name: "relationship", NDV: 6, Skew: 1.4, Parent: 5, Noise: 0.2},
			{Name: "race", NDV: 5, Skew: 2.2, Parent: -1},
			{Name: "sex", NDV: 2, Skew: 1.3, Parent: 7, Noise: 0.35},
			{Name: "capital_gain", NDV: 123, Skew: 2.8, Parent: -1},
			{Name: "capital_loss", NDV: 99, Skew: 2.8, Parent: 10, Noise: 0.3},
			{Name: "hours", NDV: 96, Skew: 1.6, Parent: -1},
			{Name: "income", NDV: 2, Skew: 1.5, Parent: 3, Noise: 0.3},
		},
	})
}
