package bench

import (
	"fmt"
	"io"

	"duet/internal/core"
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
