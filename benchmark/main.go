// Command benchmark is the repository's performance reference: three gated
// serving workloads and a diagnostic one, their end-to-end metrics, and a
// ladder of per-layer timings from the saxpy kernel up to the cluster proxy.
// README.md says why each workload exists and how the metrics interact.
//
//	go run ./benchmark --workload http_point --seed 1 --seconds 30 --trace 0
//	go run ./benchmark --workload all --seed 1 --repeat 10 --out benchmark/out/a.json
//	go run ./benchmark --compare benchmark/baseline.json benchmark/out/a.json
//
// With --trace 0 a run sets up, warms up, measures for --seconds with tracing
// off and prints the end-to-end metrics; with --trace 1 it prints the
// per-layer metrics of a traced pass. The last line of standard output is one
// JSON object {correct, attempted, failed, metrics}. Without --trace, with
// --workload all or with --repeat, the command runs both passes of every
// named workload, each in a process of its own, and writes medians and
// quartiles to --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"duet"
)

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string // "0", "1", or "" for both passes
	out      string
	repeat   int
	ladder   int  // inputs replayed per rung
	quick    bool // tests: one set-up, fewer repetitions of the small timings
}

// setUps is how often a measured run sets up; setup_s is the median.
const setUps = 3

// In a traced run the load runs twice, without and with span recording,
// each for this share of --seconds; the ladder takes about as long again.
const tracedShare = 0.25

func main() {
	var o options
	var compare bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the measured window")
	flag.StringVar(&o.trace, "trace", "", "0: measured pass, end-to-end metrics; 1: traced pass, per-layer metrics; unset: both")
	flag.StringVar(&o.out, "out", "", "result file (default: out/ in the benchmark's directory)")
	flag.IntVar(&o.repeat, "repeat", 1, "runs per workload; the result file holds median and quartiles")
	flag.IntVar(&o.ladder, "ladder", 2000, "inputs replayed at each rung of the traced pass")
	flag.BoolVar(&compare, "compare", false, "compare two result files: --compare a.json b.json")
	flag.Parse()

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("--compare takes two result files")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1))
		}
	case o.workload != "all" && o.repeat == 1 && (o.trace == "0" || o.trace == "1"):
		err = single(o)
	default:
		err = orchestrate(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// metric is one reported figure with its sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

func (m metrics) names() []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// environment is recorded in every result file.
type environment struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	KernelTier  string  `json:"kernel_tier"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Seed        int64   `json:"seed"`
	Callers     int     `json:"callers"`     // in-process callers
	Connections int     `json:"connections"` // HTTP connections, the churn writer's included
	RatePerS    float64 `json:"open_loop_rate_per_s"`
	Seconds     float64 `json:"measured_s"`
	WarmupS     float64 `json:"warmup_s"`
	SetUps      int     `json:"setups"`
	LadderN     int     `json:"ladder_inputs"`
	Inputs      string  `json:"inputs_sha256"`
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string      `json:"workload"`
	Env       environment `json:"env"`
	Correct   bool        `json:"correct"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	EndToEnd  metrics     `json:"end_to_end,omitempty"`
	PerLayer  metrics     `json:"per_layer,omitempty"`
}

// benchDir is the benchmark's own directory, from the repository root or
// from inside it (where go test runs).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "main.go")); err == nil {
		return "benchmark"
	}
	return "."
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// run sets a workload up and runs the passes o.trace names.
func run(def *workloadDef, o options) (*runResult, error) {
	units := loadUnits()
	in := makeInputs(def, def.table(def.rows, datasetSeed), o.seed, units)
	res := &runResult{Workload: def.name, Env: environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), KernelTier: duet.KernelTier(),
		GoVersion: runtime.Version(), Commit: commit(), Seed: o.seed,
		RatePerS: def.rate, Seconds: o.seconds, WarmupS: o.seconds / 20, LadderN: o.ladder, Inputs: in.digest(),
	}}
	switch {
	case def.replicas == 0:
		res.Env.Callers = units
	case def.lifecycle:
		res.Env.Connections = 2
	default:
		res.Env.Connections = units
	}

	// Set up; a measured run does it several times and reports the median.
	n := 1
	if o.trace != "1" && !o.quick {
		n = setUps
	}
	res.Env.SetUps = n
	out := filepath.Join(benchDir(), "out")
	var s *stack
	var setupS []float64
	for i := 0; i < n; i++ {
		if s != nil {
			s.close()
			s = nil
			runtime.GC() // the next set-up starts from the same heap as the first
		}
		t0 := time.Now()
		var err error
		if s, err = setUp(def, in, out); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer s.close()

	qerrs, err := s.qerrors()
	if err != nil {
		return nil, err
	}
	before, err := s.checkBefore()
	if err != nil {
		return nil, err
	}
	// pass runs the load for a share of --seconds and counts what it asked.
	pass := func(share float64, rec bool) loopResult {
		r := s.loop(time.Duration(o.seconds*share*float64(time.Second)), rec)
		res.Attempted += r.ops
		res.Failed += r.failed
		return r
	}
	pass(1.0/20, false) // warm-up
	runtime.GC()        // set-up's garbage is not the measured window's to collect

	if o.trace != "1" {
		from := time.Now()
		pass := pass(1, false)
		to := time.Now()
		m := metrics{}
		res.EndToEnd = m
		m.set("setup_s", quantile(setupS, 0.5), "s", len(setupS))
		rate, k := pass.perWindow(func(lat []int64, width time.Duration) float64 {
			return float64(len(lat)*def.batch) / width.Seconds()
		})
		m.set("qps", rate*float64(pass.ops-pass.failed)/float64(pass.ops), "estimates/s", k)
		p50, k := pass.perWindow(func(lat []int64, _ time.Duration) float64 { return quantileUS(lat, 0.5) })
		m.set("lat_p50_us", p50, "us", k)
		m.set("qerr_p50", quantile(qerrs, 0.5), "ratio", len(qerrs))
		m.set("qerr_p95", quantile(qerrs, 0.95), "ratio", len(qerrs))
		m.set("peak_rss_mb", peakRSSMB(), "MB", 1)
		if def.lifecycle {
			rate, k := s.retrainRate(from, to)
			m.set("retrain_rows_per_s", rate, "rows/s", k)
		}
	}

	if o.trace != "0" {
		m := metrics{}
		res.PerLayer = m
		base := pass(tracedShare, false)
		traced := pass(tracedShare, true)
		if err := s.tracedPass(o, &base, &traced, m); err != nil {
			return nil, err
		}
	}

	checked, bad, err := s.checkAfter(before, res.Attempted)
	if err != nil {
		return nil, err
	}
	res.Attempted += int64(checked)
	res.Failed += int64(bad)
	res.Correct = res.Failed == 0
	return res, nil
}

// tracedPass turns the two traced-run load passes and the ladder into the
// per-layer metrics, and writes the spans to out/<workload>.trace.json.
func (s *stack) tracedPass(o options, base, traced *loopResult, m metrics) error {
	p50 := quantileUS(base.lat, 0.5)
	m.set("core.train_tuples_per_s", s.trainRate, "rows/s", 1)

	st := s.serveStats()
	req := float64(max(1, st.Requests))
	m.set("serve.cache_hit_ratio", float64(st.CacheHits)/req, "ratio", int(st.Requests))
	m.set("serve.dedup_ratio", float64(st.Requests-st.CacheHits-st.BatchedQueries)/req, "ratio", int(st.Requests))
	m.set("serve.mean_batch", float64(st.BatchedQueries)/float64(max(1, st.Batches)), "count", int(st.Batches))
	m.set("serve.max_batch", float64(st.MaxBatch), "count", int(st.Batches))
	m.set("serve.shed", float64(st.Shed), "count", int(st.Requests))

	if s.def.lifecycle {
		stats, _ := s.retrains.snapshot()
		var trainS, swapMS []float64
		failures := 0
		for _, r := range stats {
			if r.Err != nil {
				failures++
				continue
			}
			trainS = append(trainS, r.TrainDuration.Seconds())
			swapMS = append(swapMS, float64(r.SwapLatency.Microseconds())/1e3)
		}
		m.set("lifecycle.retrains", float64(len(trainS)), "count", len(stats))
		m.set("lifecycle.train_s", quantile(trainS, 0.5), "s", len(trainS))
		m.set("lifecycle.swap_ms", quantile(swapMS, 0.5), "ms", len(swapMS))
		m.set("lifecycle.ingest_ms", quantile(s.ingestMS, 0.5), "ms", len(s.ingestMS))
		m.set("lifecycle.failures", float64(failures), "count", len(stats))
	}

	// The tail is a diagnostic, not a gate. At 1,000 requests/s the 99th
	// percentile sits on the edge of the few requests a GC cycle delays, and
	// reads 1 ms on one run and 50 ms on the next; the 90th sits, on
	// embed_burst, on the edge of the calls that waited for two of the other
	// caller's, and reads 18 ms on a quiet host and 26 ms on a busy one.
	m.set("loadgen.lat_p90_us", quantileUS(base.lat, 0.9), "us", len(base.lat))
	m.set("loadgen.lat_p99_us", quantileUS(base.lat, 0.99), "us", len(base.lat))
	m.set("loadgen.lat_p999_us", quantileUS(base.lat, 0.999), "us", len(base.lat))
	lag := append(append([]int64(nil), base.lag...), traced.lag...)
	m.set("loadgen.late_ratio", float64(base.late+traced.late)/float64(max(1, len(lag))), "ratio", len(lag))
	m.set("loadgen.lag_p99_us", quantileUS(lag, 0.99), "us", len(lag))

	s.awaitRetrains(8 * time.Second)
	l, err := newLadder(s, o.quick)
	if err != nil {
		return err
	}
	defer l.close()
	if err := l.run(o.ladder, m); err != nil {
		return err
	}
	entry, n := l.tr.medianUS(s.def.entry)
	m.set("trace.ladder_close_ratio", entry/p50, "ratio", n)
	m.set("trace.overhead_pct", (quantileUS(traced.lat, 0.5)-p50)/p50*100, "%", len(traced.lat))
	return l.tr.write(filepath.Join(benchDir(), "out", s.def.name+".trace.json"), s.def.name, o.seed, traced)
}

// single is the contract's form: one workload, one pass, and the result
// object as the last line of standard output.
func single(o options) error {
	def := findWorkload(o.workload)
	if def == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	res, err := run(def, o)
	if err != nil {
		return err
	}
	shown := res.EndToEnd
	if o.trace == "1" {
		shown = res.PerLayer
	}
	fmt.Printf("%s seed %d: %d attempted, %d failed, correct %v\n", def.name, o.seed, res.Attempted, res.Failed, res.Correct)
	last := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for _, name := range shown.names() {
		mt := shown[name]
		fmt.Printf("  %-28s %16.4f %-12s n=%d\n", name, mt.Value, mt.Unit, mt.N)
		last.Metrics[name] = metric{Value: mt.Value, Unit: mt.Unit}
	}
	if o.out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
