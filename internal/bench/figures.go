package bench

import (
	"fmt"
	"io"
	"time"

	"duet/internal/core"
	"duet/internal/deepdb"
	"duet/internal/estimator"
	"duet/internal/exec"
	"duet/internal/mscn"
	"duet/internal/naru"
	"duet/internal/uae"
	"duet/internal/workload"
)

// Fig3 reproduces Figure 3: the convergence of the raw training Q-Error,
// Duet's smoothed log2(QErr+1) query loss, and L_data over training steps on
// the DMV dataset — the evidence for the hybrid-loss design.
func Fig3(w io.Writer, s Scale) error {
	header(w, "Figure 3: convergence of Q-Error losses (DMV)")
	d, err := BuildDataset("dmv", s)
	if err != nil {
		return err
	}
	type point struct{ raw, mapped, data float64 }
	var series []point
	m := core.NewModel(d.Table, duetConfig(d.Name, s))
	cfg := core.DefaultTrainConfig()
	cfg.Epochs = s.Epochs
	cfg.BatchSize = s.BatchSize
	cfg.Lambda = 0.1
	cfg.QueryBatch = s.QueryBatch
	cfg.Workload = d.Train
	cfg.OnStep = func(step int, st core.StepStats) {
		series = append(series, point{raw: st.RawQErr, mapped: st.QueryLoss, data: st.DataLoss})
	}
	core.Train(m, cfg)
	fmt.Fprintf(w, "%8s %14s %18s %12s\n", "step", "raw Q-Error", "log2(QErr+1)", "L_data")
	stride := len(series)/20 + 1
	for i := 0; i < len(series); i += stride {
		p := series[i]
		fmt.Fprintf(w, "%8d %14.3f %18.4f %12.4f\n", i+1, p.raw, p.mapped, p.data)
	}
	if len(series) > 0 {
		last := series[len(series)-1]
		fmt.Fprintf(w, "%8s %14.3f %18.4f %12.4f\n", "final", last.raw, last.mapped, last.data)
	}
	return nil
}

// Fig4 reproduces Figure 4: the cumulative cardinality distribution of the
// generated test workloads, showing In-Q and Rand-Q differ substantially
// (the premise of the workload-drift evaluation).
func Fig4(w io.Writer, s Scale) error {
	header(w, "Figure 4: cumulative cardinality distribution of test workloads")
	fractions := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	for _, name := range DatasetNames {
		d, err := BuildDataset(name, s)
		if err != nil {
			return err
		}
		toF := func(ws []workload.LabeledQuery) []float64 {
			out := make([]float64, len(ws))
			for i, lq := range ws {
				out[i] = float64(lq.Card)
			}
			return out
		}
		fmt.Fprintf(w, "\n-- %s (cardinality at CDF deciles)\n%8s", name, "")
		for _, f := range fractions {
			fmt.Fprintf(w, "%10.0f%%", f*100)
		}
		fmt.Fprintln(w)
		for _, wl := range []struct {
			label string
			data  []float64
		}{{"In-Q", toF(d.InQ)}, {"Rand-Q", toF(d.RandQ)}} {
			cdf := workload.CDF(wl.data, fractions)
			fmt.Fprintf(w, "%8s", wl.label)
			for _, v := range cdf {
				fmt.Fprintf(w, "%11.0f", v)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Fig5 reproduces Figure 5: the λ hyper-parameter sweep on Kddcup98,
// evaluated on random queries. λ=0.1 should dominate, with λ=1 degrading
// generalization (the model drifts toward query-driven behaviour).
func Fig5(w io.Writer, s Scale) error {
	header(w, "Figure 5: hyper-parameter study on lambda (Kddcup98, Rand-Q)")
	d, err := BuildDataset("kdd", s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%10s %12s %12s %12s\n", "lambda", "mean", "99th", "max")
	for _, lambda := range []float64{1e-3, 1e-2, 1e-1, 1} {
		m := TrainDuet(d, s, lambda, nil)
		r := Eval(m, d.RandQ)
		fmt.Fprintf(w, "%10.3f %12.3f %12.3f %12.2f\n", lambda, r.Stats.Mean, r.Stats.P99, r.Stats.Max)
	}
	return nil
}

// Fig6 reproduces Figure 6: estimation latency versus the number of
// predicate columns (2..100) on Kddcup98 for Duet, Naru and UAE, with the
// encode/inference/sampling breakdown. Naru and UAE grow linearly in the
// constrained column count (one forward pass of batch s per column); Duet
// stays a single forward pass.
func Fig6(w io.Writer, s Scale) error {
	header(w, "Figure 6: scalability on column count (Kddcup98)")
	d, err := BuildDataset("kdd", s)
	if err != nil {
		return err
	}
	short := s
	short.Epochs = 1 // latency shape does not depend on convergence
	duetM := TrainDuet(d, short, 0, nil)
	duetM.WarmPlan() // compile outside the timed estimates
	naruM := TrainNaru(d, short, nil)
	uaeM, _ := TrainUAE(d, short, 0, nil)

	colCounts := []int{2, 5, 10, 25, 50, 75, 100}
	const queriesPer = 5
	fmt.Fprintf(w, "%6s | %28s | %36s | %36s\n", "#cols",
		"duet total(ms) enc/inf", "naru total(ms) enc/inf/sample", "uae total(ms) enc/inf/sample")
	for _, k := range colCounts {
		qs := kColQueries(d, k, queriesPer)
		var dTot, dEnc, dInf float64
		var nTot, nEnc, nInf, nSmp float64
		var uTot, uEnc, uInf, uSmp float64
		for _, q := range qs {
			t0 := time.Now()
			_, e, i := duetM.EstimateDetail(q)
			dTot += float64(time.Since(t0).Nanoseconds())
			dEnc += float64(e)
			dInf += float64(i)

			t1 := time.Now()
			_, e2, i2, s2 := naruM.EstimateDetail(q)
			nTot += float64(time.Since(t1).Nanoseconds())
			nEnc += float64(e2)
			nInf += float64(i2)
			nSmp += float64(s2)

			t2 := time.Now()
			_, e3, i3, s3 := uaeM.EstimateDetail(q)
			uTot += float64(time.Since(t2).Nanoseconds())
			uEnc += float64(e3)
			uInf += float64(i3)
			uSmp += float64(s3)
		}
		n := float64(len(qs))
		fmt.Fprintf(w, "%6d | %10s %7s/%-7s | %10s %7s/%-7s/%-7s | %10s %7s/%-7s/%-7s\n", k,
			fmtMS(dTot/n), fmtMS(dEnc/n), fmtMS(dInf/n),
			fmtMS(nTot/n), fmtMS(nEnc/n), fmtMS(nInf/n), fmtMS(nSmp/n),
			fmtMS(uTot/n), fmtMS(uEnc/n), fmtMS(uInf/n), fmtMS(uSmp/n))
	}
	return nil
}

// kColQueries builds queries constraining exactly k columns.
func kColQueries(d *Dataset, k, n int) []workload.Query {
	cfg := workload.GenConfig{Seed: int64(1000 + k), NumQueries: n,
		MinPreds: k, MaxPreds: k, BoundedCol: -1}
	return workload.Generate(d.Table, cfg)
}

// Fig7 reproduces Figure 7: mean estimation cost of the learned methods on
// each dataset (all on CPU here; the paper's point — Duet's single forward
// pass is cheaper than sampling methods even when those run on GPU — shows
// up as an order-of-magnitude gap on the same hardware).
func Fig7(w io.Writer, s Scale) error {
	header(w, "Figure 7: estimation cost of learned methods (ms/query)")
	fmt.Fprintf(w, "%-9s %12s %12s %12s\n", "estimator", "dmv", "kdd", "census")
	results := map[string]map[string]string{}
	order := []string{"mscn", "deepdb", "naru", "uae", "duet-d", "duet"}
	for _, o := range order {
		results[o] = map[string]string{}
	}
	for _, name := range DatasetNames {
		d, err := BuildDataset(name, s)
		if err != nil {
			return err
		}
		short := s
		short.Epochs = 1
		ests := []estimator.Estimator{}
		ms := mscn.New(d.Table, mscn.DefaultConfig())
		mscn.Train(ms, d.Train, mscn.TrainConfig{Epochs: 5, BatchSize: 64, LR: 1e-3, Seed: 1})
		ests = append(ests, ms)
		ests = append(ests, deepdb.New(d.Table, deepdb.DefaultConfig()))
		ests = append(ests, TrainNaru(d, short, nil))
		um, _ := TrainUAE(d, short, 0, nil)
		ests = append(ests, um)
		ests = append(ests, Rename(TrainDuet(d, short, 0, nil), "duet-d"))
		ests = append(ests, TrainDuet(d, short, 0.1, nil))
		for _, est := range ests {
			r := Eval(est, d.RandQ[:min(len(d.RandQ), 50)])
			results[est.Name()][name] = fmtMS(r.MeanLatNS)
		}
	}
	for _, o := range order {
		fmt.Fprintf(w, "%-9s %12s %12s %12s\n", o, results[o]["dmv"], results[o]["kdd"], results[o]["census"])
	}
	return nil
}

// Fig8 reproduces Figure 8: convergence speed on Rand-Q — max Q-Error after
// each training epoch for Duet, DuetD, Naru and UAE.
func Fig8(w io.Writer, s Scale) error {
	header(w, "Figure 8: convergence of max Q-Error on Rand-Q")
	return convergenceFigure(w, s, false)
}

// Fig9 reproduces Figure 9: convergence on In-Q — hybrid Duet versus
// data-only DuetD, showing hybrid training accelerates in-workload
// convergence.
func Fig9(w io.Writer, s Scale) error {
	header(w, "Figure 9: convergence of max Q-Error on In-Q (Duet vs DuetD)")
	return convergenceFigure(w, s, true)
}

func convergenceFigure(w io.Writer, s Scale, inQ bool) error {
	datasets := []string{"dmv", "kdd"}
	for _, name := range datasets {
		d, err := BuildDataset(name, s)
		if err != nil {
			return err
		}
		testSet := d.RandQ
		if inQ {
			testSet = d.InQ
		}
		sub := testSet[:min(len(testSet), 60)]
		fmt.Fprintf(w, "\n-- %s: max Q-Error after each epoch\n", name)
		evalMax := func(est estimator.Estimator) float64 {
			var mx float64
			for _, lq := range sub {
				if q := workload.QError(est.EstimateCard(lq.Query), float64(lq.Card)); q > mx {
					mx = q
				}
			}
			return mx
		}

		runDuet := func(label string, lambda float64) {
			fmt.Fprintf(w, "%-8s", label)
			m := core.NewModel(d.Table, duetConfig(d.Name, s))
			cfg := core.DefaultTrainConfig()
			cfg.Epochs = s.Epochs
			cfg.BatchSize = s.BatchSize
			cfg.Lambda = lambda
			cfg.QueryBatch = s.QueryBatch
			if lambda > 0 {
				cfg.Workload = d.Train
			}
			cfg.OnEpoch = func(epoch int, _ core.EpochStats) bool {
				fmt.Fprintf(w, " %9.2f", evalMax(m))
				return true
			}
			core.Train(m, cfg)
			fmt.Fprintln(w)
		}
		runDuet("duet", 0.1)
		runDuet("duet-d", 0)
		if inQ {
			continue // Figure 9 compares only Duet vs DuetD
		}

		fmt.Fprintf(w, "%-8s", "naru")
		nm := naru.New(d.Table, naruConfig(d.Name, s))
		nc := naru.DefaultTrainConfig()
		nc.Epochs = s.Epochs
		nc.BatchSize = s.BatchSize
		nc.OnEpoch = func(epoch int, _ naru.EpochStats) bool {
			nm.SetSeed(7)
			fmt.Fprintf(w, " %9.2f", evalMax(nm))
			return true
		}
		naru.Train(nm, nc)
		fmt.Fprintln(w)

		fmt.Fprintf(w, "%-8s", "uae")
		ucfg := uae.DefaultConfig()
		ucfg.Naru = naruConfig(d.Name, s)
		ucfg.TrainSamples = s.UAETrainSamples
		um := uae.New(d.Table, ucfg)
		utc := uae.DefaultTrainConfig()
		utc.Epochs = s.Epochs
		utc.BatchSize = s.BatchSize
		utc.QueryBatch = s.QueryBatch
		utc.Workload = d.Train
		utc.MemLimitBytes = uaeMemBudget(s)
		utc.OnEpoch = func(epoch int, _ naru.EpochStats) bool {
			um.SetSeed(7)
			fmt.Fprintf(w, " %9.2f", evalMax(um))
			return true
		}
		if _, err := uae.Train(um, utc); err != nil {
			fmt.Fprintf(w, "   OOM")
		}
		fmt.Fprintln(w)
	}
	return nil
}

// mkExecLabel keeps exec imported for labelling helpers used across files.
var _ = exec.Cardinality
