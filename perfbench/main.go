// Command perfbench is the repository benchmark. It runs one of three
// seeded workloads against the lineage system, checks every answer
// against black-box re-execution, and prints each metric by name with its
// unit and sample count. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload micro-lookup --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it measures the per-layer metrics: counters over an
// untraced half of the run, span self times over a traced half, and the
// tracing overhead between the two. See README.md for the metric list.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		workDir = flag.String("work-dir", filepath.Join(".bench_build", "perfbench-work"), "directory for lineage stores and span dumps")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	p := params{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traced == 1,
		scale:   1,
		workDir: filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid())),
	}
	if err := os.MkdirAll(p.workDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(p.workDir)
	rep, err := wl(ctx, p)
	if err != nil {
		return err
	}
	if p.trace {
		rep.fillPerLayer()
		if err := rep.writeSpans(filepath.Join(*workDir, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))); err != nil {
			return err
		}
	}
	rep.printTable(os.Stdout, *name, p)
	line, err := json.Marshal(rep.summary())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
