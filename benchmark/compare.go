package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// spec is BENCHMARK.json: the metrics every workload reports and, for each
// end-to-end metric, which direction is better and how much worse it may get.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// working directory or, under go test, its parent.
func loadSpec() (*spec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		b, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	}
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

// stat is one metric of one workload over the runs of a result file.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median, 0 for fewer than two runs
	Values []float64 `json:"values"`
}

// summary is a result file: every run's figures and, per metric, the median
// and quartiles over them.
type summary struct {
	Env       map[string]environment     `json:"env"` // workload -> its last run's record
	Runs      int                        `json:"runs"`
	Attempted map[string]int64           `json:"attempted"`
	Failed    map[string]int64           `json:"failed"`
	EndToEnd  map[string]map[string]stat `json:"end_to_end"` // workload -> metric
	PerLayer  map[string]map[string]stat `json:"per_layer"`
}

// quartiles are Python's statistics.quantiles(values, n=4), the rule the
// driver uses, so that a spread here reads the same as a spread there.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func newStat(unit string, values []float64) stat {
	st := stat{Unit: unit, Values: values}
	st.Q1, st.Median, st.Q3 = quartiles(values)
	if len(values) > 1 && st.Median != 0 {
		st.Spread = (st.Q3 - st.Q1) / st.Median
	}
	return st
}

// orchestrate runs both passes of every named workload o.repeat times, each
// run in a process of its own so that none inherits another's heap, and
// writes the summary.
func orchestrate(o options) error {
	defs := workloads
	if o.workload != "all" {
		def := findWorkload(o.workload)
		if def == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		defs = []*workloadDef{def}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := filepath.Join(benchDir(), "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	sum := summary{Env: map[string]environment{}, Runs: o.repeat, Attempted: map[string]int64{}, Failed: map[string]int64{},
		EndToEnd: map[string]map[string]stat{}, PerLayer: map[string]map[string]stat{}}
	for _, def := range defs {
		values := [2]map[string][]float64{{}, {}}
		units := map[string]string{}
		for rep := 0; rep < o.repeat; rep++ {
			for trace := 0; trace < 2; trace++ {
				if o.trace != "" && o.trace != strconv.Itoa(trace) {
					continue
				}
				file := filepath.Join(out, fmt.Sprintf("%s.t%d.r%d.json", def.name, trace, rep))
				cmd := exec.Command(self, "--workload", def.name, "--seed", strconv.FormatInt(o.seed, 10),
					"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
					"--ladder", strconv.Itoa(o.ladder), "--out", file)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s trace %d run %d: %w", def.name, trace, rep, err)
				}
				b, err := os.ReadFile(file)
				if err != nil {
					return err
				}
				var res runResult
				if err := json.Unmarshal(b, &res); err != nil {
					return err
				}
				os.Remove(file)
				if trace == 0 || o.trace == "1" {
					sum.Env[def.name] = res.Env // the measured run's, when there is one
				}
				sum.Attempted[def.name] += res.Attempted
				sum.Failed[def.name] += res.Failed
				for _, m := range []metrics{res.EndToEnd, res.PerLayer} {
					for name, mt := range m {
						values[trace][name] = append(values[trace][name], mt.Value)
						units[name] = mt.Unit
					}
				}
			}
		}
		for trace, dst := range []map[string]map[string]stat{sum.EndToEnd, sum.PerLayer} {
			dst[def.name] = map[string]stat{}
			for name, vs := range values[trace] {
				dst[def.name][name] = newStat(units[name], vs)
			}
		}
	}
	if o.out == "" {
		o.out = filepath.Join(out, "result.json")
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", o.out)
	return nil
}

// compareFiles prints one row per workload and end-to-end metric: a's and
// b's medians, b's change in the bad direction, and a verdict against the
// bound in BENCHMARK.json. A metric whose run-to-run spread on either side
// is wider than its bound is unresolved, not unchanged; setup_s, measured a
// few times per run, is judged by its medians alone.
func compareFiles(aPath, bPath string) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	var a, b summary
	for i, dst := range []*summary{&a, &b} {
		path := []string{aPath, bPath}[i]
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, dst); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	fmt.Printf("%-12s %-18s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "a median", "b median", "worse %", "bound %", "spread %", "verdict")
	bad := 0
	for _, w := range sp.Workloads {
		for _, sm := range sp.EndToEnd {
			sa, okA := a.EndToEnd[w.Name][sm.Name]
			sb, okB := b.EndToEnd[w.Name][sm.Name]
			if !okA || !okB {
				continue
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if sm.Better == "higher" {
				worse = -worse
			}
			spread := max(sa.Spread, sb.Spread)
			verdict := "ok"
			switch {
			case spread > sm.Bound && sm.Name != "setup_s": // the driver, too, bounds setup_s by its medians only
				verdict = "unresolved"
				bad++
			case worse > sm.Bound:
				verdict = "regressed"
				bad++
			}
			fmt.Printf("%-12s %-18s %14.4f %14.4f %9.2f %8.1f %8.2f  %s\n",
				w.Name, sm.Name, sa.Median, sb.Median, worse*100, sm.Bound*100, spread*100, verdict)
		}
		if f := a.Failed[w.Name] + b.Failed[w.Name]; f > 0 {
			fmt.Printf("%-12s %d operations failed\n", w.Name, f)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, unresolved or with failures", bad)
	}
	return nil
}
