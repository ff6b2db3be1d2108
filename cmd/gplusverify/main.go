// Command gplusverify evaluates a dataset against the paper's published
// findings and reports pass/fail per check — the automated reproduction
// audit behind EXPERIMENTS.md.
//
// Usage:
//
//	gplusverify -data ./data
//
// Exit status is non-zero when any check fails.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"gplus/internal/core"
	"gplus/internal/dataset"
	"gplus/internal/paper"
	"gplus/internal/report"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run is the audit: everything main does. It returns an error exactly
// when the dataset could not be audited or a row of the table says FAIL.
func run(stdout io.Writer, args []string) error {
	fs := flag.NewFlagSet("gplusverify", flag.ExitOnError)
	var (
		dataDir = fs.String("data", "data", "dataset directory")
		seed    = fs.Uint64("analysis-seed", 2012, "seed for sampled analyses")
	)
	fs.Parse(args) //nolint:errcheck — ExitOnError

	ds, err := dataset.Load(*dataDir)
	if err != nil {
		return fmt.Errorf("loading dataset: %w", err)
	}
	log.Printf("verifying dataset: %d users, %d edges", ds.NumUsers(), ds.View().NumEdges())

	study := core.New(ds, core.Options{Seed: *seed})
	results, err := paper.Collect(context.Background(), study)
	if err != nil {
		return fmt.Errorf("collecting analyses: %w", err)
	}

	outcomes := paper.Evaluate(results)
	if failed := report.Audit(stdout, outcomes); failed > 0 {
		return fmt.Errorf("%d of %d checks failed", failed, len(outcomes))
	}
	return nil
}
