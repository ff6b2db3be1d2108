package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
)

// Every measured repetition runs in a fresh child process of the bench
// binary (`bench child ...`), so peak RSS is that repetition's own and
// nothing an earlier repetition allocated or cached is resident.

// childEnv is what a child is told.
type childEnv struct {
	workload string
	users    int
	seed     uint64
	// dir is the repetition's scratch directory. The prepare child of a
	// study workload leaves the dataset there for the measure child.
	dir string
	// rec is nil unless this is the traced repetition.
	rec *recorder
}

// childResult is what a child prints, as one JSON line on stdout.
type childResult struct {
	SetupS float64 `json:"setup_s"`
	// WallS and CPUS are the timed region's wall and user+system CPU.
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	// Work units were completed in WorkS seconds (work_per_s).
	Work  float64 `json:"work"`
	WorkS float64 `json:"work_s"`
	// V2Bytes is the size of the v2 graph file holding Edges distinct
	// edges (bytes_per_edge).
	V2Bytes int64 `json:"v2_bytes"`
	Edges   int64 `json:"edges"`
	// Attempted counts requests issued (crawl), experiments run (study)
	// or observations written (ingest), plus one per cross-check the
	// traced repetition makes; Failed counts permanent fetch errors,
	// experiments that errored and failed checks, each explained in
	// Problems.
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Digest is the study's result digest (the yardstick's lane sums in a
	// yardstick child).
	Digest string `json:"digest,omitempty"`
	// Layer holds per-layer metrics: the synth layer always, the rest
	// only from the traced repetition, together with SelfS (self time
	// by span name) and ObsCrawlS (wall of crawler.Crawl with the
	// repo's own metrics and tracing attached).
	Layer     map[string]float64 `json:"layer"`
	SelfS     map[string]float64 `json:"self_s,omitempty"`
	ObsCrawlS float64            `json:"obs_crawl_s,omitempty"`
}

func newChildResult() *childResult {
	return &childResult{Layer: map[string]float64{}}
}

func (r *childResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// childMain runs one phase of one workload and prints its result.
func childMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench child", flag.ContinueOnError)
	var (
		env   childEnv
		phase = fs.String("phase", "measure", "prepare, measure or yardstick")
		trace = fs.Int("trace", 0, "1 records spans")
		spans = fs.String("spans", "", "write the spans here as JSONL")
	)
	fs.StringVar(&env.workload, "workload", "", "workload name")
	fs.IntVar(&env.users, "users", 0, "universe size")
	fs.Uint64Var(&env.seed, "seed", 0, "workload seed")
	fs.StringVar(&env.dir, "dir", "", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace == 1 {
		env.rec = newRecorder(fmt.Sprintf("%s-%s-seed%d", env.workload, *phase, env.seed))
	}
	run := map[string]func(*childEnv) (*childResult, error){
		"crawl_e2e/measure":      measureCrawl,
		"study_ram/prepare":      prepareStudy,
		"study_ram/measure":      func(e *childEnv) (*childResult, error) { return measureStudy(e, false) },
		"study_mmap/prepare":     prepareStudy,
		"study_mmap/measure":     func(e *childEnv) (*childResult, error) { return measureStudy(e, true) },
		"ingest_compact/measure": measureIngest,
	}[env.workload+"/"+*phase]
	if *phase == "yardstick" {
		run = measureYardstick
	}
	if run == nil {
		return fmt.Errorf("no %s phase for workload %q", *phase, env.workload)
	}
	res, err := run(&env)
	if err != nil {
		return fmt.Errorf("%s: %w", env.workload, err)
	}
	if env.rec != nil {
		res.SelfS = env.rec.selfSeconds()
		if *spans != "" {
			if err := env.rec.writeJSONL(*spans); err != nil {
				return fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	return json.NewEncoder(stdout).Encode(res)
}
