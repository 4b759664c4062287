package bench

import (
	"fmt"
	"io"
	"time"

	"duet/internal/core"
	"duet/internal/workload"
)

// AblationMu studies the expand coefficient µ of Algorithm 1 (the paper
// fixes µ=4): larger µ draws more virtual tuples per source tuple,
// accelerating convergence per epoch at proportional compute cost.
func AblationMu(w io.Writer, s Scale) error {
	header(w, "Ablation: expand coefficient mu (Census, DuetD)")
	d, err := BuildDataset("census", s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%4s %14s %14s %14s\n", "mu", "mean Q-Error", "max Q-Error", "epoch time(s)")
	for _, mu := range []int{1, 2, 4, 8} {
		m := core.NewModel(d.Table, duetConfig(d.Name, s))
		cfg := core.DefaultTrainConfig()
		cfg.Epochs = s.Epochs
		cfg.BatchSize = s.BatchSize
		cfg.Lambda = 0
		cfg.Mu = mu
		var epochSec float64
		cfg.OnEpoch = func(_ int, st core.EpochStats) bool {
			epochSec = st.Duration.Seconds()
			return true
		}
		core.Train(m, cfg)
		r := Eval(m, d.RandQ)
		fmt.Fprintf(w, "%4d %14.3f %14.2f %14.3f\n", mu, r.Stats.Mean, r.Stats.Max, epochSec)
	}
	return nil
}

// AblationMergedMPSN studies the paper's block-diagonal MPSN fusion: per-
// query estimation latency with per-column MPSN calls versus the merged
// single-network path on the 100-column table.
func AblationMergedMPSN(w io.Writer, s Scale) error {
	header(w, "Ablation: merged block-diagonal MLP MPSN vs per-column (Kddcup98)")
	d, err := BuildDataset("kdd", s)
	if err != nil {
		return err
	}
	cfg := duetConfig(d.Name, s)
	cfg.MPSN = core.MPSNMLP
	cfg.MPSNHidden = 32
	cfg.MPSNOut = 8
	m := core.NewModel(d.Table, cfg)
	tc := core.DefaultTrainConfig()
	tc.Epochs = 1
	tc.BatchSize = s.BatchSize
	tc.Lambda = 0
	core.Train(m, tc)
	m.WarmPlan() // compile outside the timed estimates

	qs := kColQueries(d, 50, 20)
	measure := func() float64 {
		start := time.Now()
		for _, q := range qs {
			m.EstimateCard(q)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(qs))
	}
	perCol := measure()
	if err := m.Merge(); err != nil {
		return err
	}
	merged := measure()
	// Sanity: merged path must agree with per-column results.
	m.Unmerge()
	base := m.EstimateCard(qs[0])
	if err := m.Merge(); err != nil {
		return err
	}
	fused := m.EstimateCard(qs[0])
	fmt.Fprintf(w, "%-12s %14s %16s\n", "path", "ms/query", "agreement")
	fmt.Fprintf(w, "%-12s %14s %16s\n", "per-column", fmtMS(perCol), "-")
	fmt.Fprintf(w, "%-12s %14s %15.4f%%\n", "merged", fmtMS(merged),
		100*(1-absDiffFrac(base, fused)))
	return nil
}

func absDiffFrac(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	den := a
	if den < 1 {
		den = 1
	}
	return d / den
}

// AblationEncoding compares the binary, one-hot and embedding value-encoding
// strategies the paper provides (Section IV-C) on accuracy and model size.
func AblationEncoding(w io.Writer, s Scale) error {
	header(w, "Ablation: predicate value encodings (Census, DuetD)")
	d, err := BuildDataset("census", s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %10s %14s %14s\n", "encoding", "size(MB)", "mean Q-Error", "max Q-Error")
	for _, enc := range []core.ValueEncoding{core.EncBinary, core.EncOneHot, core.EncEmbed} {
		cfg := duetConfig(d.Name, s)
		cfg.Encoding = enc
		cfg.EmbedDim = 16
		m := core.NewModel(d.Table, cfg)
		tc := core.DefaultTrainConfig()
		tc.Epochs = s.Epochs
		tc.BatchSize = s.BatchSize
		tc.Lambda = 0
		core.Train(m, tc)
		r := Eval(m, d.RandQ)
		fmt.Fprintf(w, "%-8s %10s %14.3f %14.2f\n", enc, fmtMB(m.SizeBytes()), r.Stats.Mean, r.Stats.Max)
	}
	return nil
}

// wildcard keeps workload referenced (kColQueries builds raw queries).
var _ = workload.OpEq
