package main

import (
	"math"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func declared(ms []specMetric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestSpecLimits holds BENCHMARK.json to the driver's schema limits and to
// the workloads this package defines.
func TestSpecLimits(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", sp.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range sp.Workloads {
		use(w.Name)
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, not in workloads.go", i, w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must have 1..200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range sp.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range sp.PerLayer {
		use(m.Name)
	}
}

// TestDeclaredMetrics runs every workload for a second and checks that it
// emits exactly the metrics BENCHMARK.json declares, in the declared units.
// churn is not in BENCHMARK.json; it emits the same and its retrain figures.
func TestDeclaredMetrics(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			t.Parallel() // only names are checked, so sharing the processors is fine
			res, err := run(def, options{seed: 1, seconds: 1, ladder: 200, quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			for kind, pair := range map[string]struct {
				got  metrics
				want map[string]string
			}{"end-to-end": {res.EndToEnd, declared(sp.EndToEnd)}, "per-layer": {res.PerLayer, declared(sp.PerLayer)}} {
				for name, unit := range pair.want {
					got, ok := pair.got[name]
					switch {
					case !ok:
						t.Errorf("%s metric %s is declared but not emitted", kind, name)
					case got.Unit != unit:
						t.Errorf("%s metric %s has unit %q, declared %q", kind, name, got.Unit, unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s metric %s is %v", kind, name, got.Value)
					}
				}
				for name := range pair.got {
					if def.lifecycle && (name == "retrain_rows_per_s" || strings.HasPrefix(name, "lifecycle.")) {
						continue
					}
					if _, ok := pair.want[name]; !ok {
						t.Errorf("%s metric %s is emitted but not declared", kind, name)
					}
				}
			}
			if e := res.Env; e.Callers+e.Connections > max(2, e.NProc) {
				t.Errorf("%d callers + %d connections on %d processors", e.Callers, e.Connections, e.NProc)
			}
		})
	}
}

// TestSameSeedSameInputs: a seed gives the same input bytes twice, and
// another seed gives others.
func TestSameSeedSameInputs(t *testing.T) {
	t.Parallel()
	var first string
	for i, def := range workloads {
		a := makeInputs(def, def.table(def.rows, datasetSeed), 7, 2).digest()
		if b := makeInputs(def, def.table(def.rows, datasetSeed), 7, 2).digest(); a != b {
			t.Errorf("%s: seed 7 gave %s, then %s", def.name, a, b)
		}
		if i == 0 {
			first = a
		}
	}
	def := workloads[0]
	if c := makeInputs(def, def.table(def.rows, datasetSeed), 8, 2).digest(); c == first {
		t.Errorf("%s: seeds 7 and 8 gave the same inputs", def.name)
	}
}

// TestQuartiles checks the quartile rule against values computed with
// Python's statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		want   [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 4}, [3]float64{1, 4, 10}},
		{[]float64{3, 1, 2, 5, 8}, [3]float64{1.5, 3, 6.5}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(tc.values)
		got := [3]float64{q1, q2, q3}
		sort.Float64s(tc.values)
		if got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.values, got, tc.want)
		}
	}
}
