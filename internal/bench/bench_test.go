package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"tiny", "quick", "full"} {
		s, err := ScaleByName(name)
		if err != nil || s.Name != name {
			t.Fatalf("%s: %v %+v", name, err, s)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestBuildDatasetShapes(t *testing.T) {
	for _, name := range DatasetNames {
		d, err := BuildDataset(name, Tiny)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Train) != Tiny.TrainQueries || len(d.InQ) != Tiny.TestQueries || len(d.RandQ) != Tiny.TestQueries {
			t.Fatalf("%s workload sizes: %d/%d/%d", name, len(d.Train), len(d.InQ), len(d.RandQ))
		}
		if d.BoundedCol < 0 || d.BoundedCol >= d.Table.NumCols() {
			t.Fatalf("%s bounded col %d", name, d.BoundedCol)
		}
	}
	if _, err := BuildDataset("bogus", Tiny); err == nil {
		t.Fatal("expected error")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("nope", &buf, Tiny); err == nil {
		t.Fatal("expected error")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "table3", "fig3", "fig4", "fig5",
		"fig6", "fig7", "fig8", "fig9", "ablation-mu",
		"ablation-enc", "ablation-stability"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("experiment %d is %q, want %q", i, got[i].ID, id)
		}
	}
}

// TestCheapExperimentsRun smoke-tests the fast experiments at Tiny scale.
func TestCheapExperimentsRun(t *testing.T) {
	for _, id := range []string{"fig4", "ablation-enc"} {
		var buf bytes.Buffer
		if err := RunExperiment(id, &buf, Tiny); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), "===") {
			t.Fatalf("%s produced no banner:\n%s", id, buf.String())
		}
		if len(buf.String()) < 100 {
			t.Fatalf("%s produced suspiciously little output", id)
		}
	}
}

// TestFig3TraceRuns checks the hybrid loss trace end to end on the smallest
// dataset path.
func TestFig3TraceRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	s := Tiny
	s.Epochs = 1
	var buf bytes.Buffer
	if err := Fig3(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "L_data") || !strings.Contains(out, "final") {
		t.Fatalf("missing series:\n%s", out)
	}
}

// TestAllExperimentsTiny runs the complete registry when explicitly asked
// (DUET_BENCH_ALL=1): minutes of training, so not part of the default suite.
func TestAllExperimentsTiny(t *testing.T) {
	if os.Getenv("DUET_BENCH_ALL") != "1" {
		t.Skip("set DUET_BENCH_ALL=1 to run the full registry")
	}
	var buf bytes.Buffer
	if err := RunExperiment("all", &buf, Tiny); err != nil {
		t.Fatalf("%v\noutput so far:\n%s", err, buf.String())
	}
}
