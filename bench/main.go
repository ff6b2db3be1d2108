// Command bench is the repo's benchmark: four closed-loop workloads
// over the whole pipeline (crawl → segments → compact → mmap → study),
// six end-to-end metrics each, and a per-layer split from a traced
// repetition. BENCHMARK.json at the repo root names the workloads and
// metrics; README.md in this directory explains them.
//
//	go run ./bench                                   # every workload
//	go run ./bench -workload study_mmap -seed 7 -trace 1 -out run.json
//	go run ./bench -compare old.json new.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	if len(args) > 0 && args[0] == "child" {
		if err := childMain(args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (default: all): crawl_e2e, study_ram, study_mmap, ingest_compact")
		seed    = fs.Uint64("seed", 2011, "workload seed: the crawl's start profile, the ingest stream's order and provisional numbering")
		seconds = fs.Float64("seconds", 30, "seconds of untraced repetitions per workload, set-up included (never fewer than 3 repetitions)")
		reps    = fs.Int("reps", 0, "run exactly this many untraced repetitions instead of filling -seconds")
		trace   = fs.Int("trace", 0, "1 adds a traced repetition after 3 untraced ones (or -reps) and reports the per-layer metrics")
		out     = fs.String("out", "", "write the stamped result document (JSON) here, and the traced spans beside it")
		compare = fs.Bool("compare", false, "compare two result documents: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		regressed, err := compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg := &config{
		workloads: workloads,
		seed:      *seed, seconds: *seconds, reps: *reps, trace: *trace == 1, out: *out,
		// Scratch stays inside the directory the benchmark is run from.
		workRoot: ".bench_work",
		exe:      exe, stdout: os.Stdout, stderr: os.Stderr,
	}
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		cfg.workloads = []workload{w}
	}
	// A signal cancels the running child and lets the deferred scratch
	// clean-up run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	correct, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if !correct {
		return 1
	}
	return 0
}
