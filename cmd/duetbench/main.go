// Command duetbench regenerates the paper's tables and figures.
//
// Usage:
//
//	duetbench -exp table2 -scale quick
//	duetbench -exp all -scale tiny -out results.txt
//	duetbench -list
//
// Scales: tiny (seconds, CI-sized), quick (minutes, report-grade shapes),
// full (closest to the paper's sizes).
//
// duetbench prints the paper's evaluation only. Serving, training and
// storage performance is measured by the harness in benchmark/ (go run
// ./benchmark, see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"duet/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	scaleName := flag.String("scale", "quick", "tiny | quick | full")
	out := flag.String("out", "", "write output to this file as well as stdout")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-15s %s\n", e.ID, e.Desc)
		}
		return
	}
	scale, err := bench.ScaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}
	fmt.Fprintf(w, "duetbench: experiment=%s scale=%s\n", *exp, scale.Name)
	start := time.Now()
	if err := bench.RunExperiment(*exp, w, scale); err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "\ncompleted in %s\n", time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "duetbench:", err)
	os.Exit(1)
}
