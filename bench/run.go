package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one invocation of the benchmark.
type config struct {
	workloads []workload
	seed      uint64
	// seconds a workload's untraced repetitions may take all told, set-up
	// and process starts included (at least minReps repetitions
	// regardless); reps, when positive, fixes the repetition count
	// instead.
	seconds float64
	reps    int
	// trace adds one traced repetition after the untraced ones, of which
	// there are then only minReps unless reps says otherwise: a traced run
	// is read for its per-layer metrics.
	trace bool
	// out, when set, receives the result document, and the traced
	// repetition's spans go beside it.
	out string
	// workRoot is where scratch directories are made.
	workRoot string
	// exe is re-executed as `exe child ...` for every repetition.
	exe    string
	stdout io.Writer
	stderr io.Writer
}

// minReps is the fewest untraced repetitions a median is taken over.
const minReps = 3

// summary is an end-to-end metric, or the pace, over the untraced
// repetitions.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one workload measured.
type workloadResult struct {
	Users     int                `json:"users"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	// Pace is the machine's wall pace around each untraced repetition:
	// multiply a paced time by it to get back the seconds measured.
	Pace summary `json:"pace"`
	// PerLayer and SelfS come from the traced repetition only.
	PerLayer map[string]value   `json:"per_layer,omitempty"`
	SelfS    map[string]float64 `json:"self_s,omitempty"`
}

// stamp identifies the machine, toolchain and settings behind a result
// document.
type stamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Date       string  `json:"date"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

type document struct {
	Stamp     stamp                      `json:"stamp"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// run measures every configured workload, prints each one's table and
// result line, and writes the result document. It reports whether every
// correctness check passed.
func run(ctx context.Context, cfg *config) (bool, error) {
	if err := os.MkdirAll(cfg.workRoot, 0o755); err != nil {
		return false, err
	}
	defer os.Remove(cfg.workRoot) //nolint:errcheck — succeeds only once empty, which is the point
	doc := &document{
		Stamp: stamp{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(ctx), Date: time.Now().UTC().Format(time.RFC3339), Seed: cfg.seed, Seconds: cfg.seconds,
		},
		Workloads: map[string]*workloadResult{},
	}
	correct := true
	for _, w := range cfg.workloads {
		res, err := runWorkload(ctx, cfg, w)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		doc.Workloads[w.name] = res
		correct = correct && res.Correct
		if err := printWorkload(cfg, w, res); err != nil {
			return false, err
		}
	}
	if cfg.out != "" {
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(cfg.out, append(raw, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return correct, nil
}

func commit(ctx context.Context) string {
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func runWorkload(ctx context.Context, cfg *config, w workload) (*workloadResult, error) {
	dir, err := os.MkdirTemp(cfg.workRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &workloadResult{Users: w.users, EndToEnd: map[string]summary{}}
	samples := map[string][]float64{}
	var digest string
	record := func(r *repetition) {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Problems = append(res.Problems, r.Problems...)
		if digest == "" {
			digest = r.Digest
		} else if r.Digest != digest {
			res.Attempted++
			res.Failed++
			res.Problems = append(res.Problems, fmt.Sprintf("result digest %s differs from the first repetition's %s", r.Digest, digest))
		}
	}

	// enough reports whether n untraced repetitions, taking the given
	// seconds so far, are all this run makes: the next one would end past
	// cfg.seconds.
	enough := func(n int, elapsed float64) bool {
		switch {
		case cfg.reps > 0:
			return n >= cfg.reps
		case n < minReps:
			return false
		default:
			return cfg.trace || elapsed+elapsed/float64(n) > cfg.seconds
		}
	}
	// Every repetition sits between two yardstick passes, the one after it
	// being the one before the next.
	before, err := runYardstick(ctx, cfg, w, dir)
	if err != nil {
		return nil, err
	}
	paced := func(traced bool) (*repetition, pace, error) {
		r, err := repeat(ctx, cfg, w, dir, traced)
		if err != nil {
			return nil, pace{}, err
		}
		after, err := runYardstick(ctx, cfg, w, dir)
		if err != nil {
			return nil, pace{}, err
		}
		p := paceBetween(before, after)
		before = after
		record(r)
		return r, p, nil
	}
	for n, began := 0, time.Now(); !enough(n, time.Since(began).Seconds()); n++ {
		r, p, err := paced(false)
		if err != nil {
			return nil, err
		}
		for name, v := range r.endToEnd(p) {
			samples[name] = append(samples[name], v)
		}
		samples["work_s"] = append(samples["work_s"], r.WorkS/p.wall)
		samples["pace"] = append(samples["pace"], p.wall)
	}
	for _, m := range endToEnd {
		res.EndToEnd[m.name] = summarize(samples[m.name], m.unit)
	}
	res.Pace = summarize(samples["pace"], "ratio")

	if cfg.trace {
		r, p, err := paced(true)
		if err != nil {
			return nil, err
		}
		r.Layer["bench.pace"] = p.wall
		r.Layer["bench.trace_overhead_ratio"] = r.WallS / p.wall / res.EndToEnd["wall_s"].Median
		if r.ObsCrawlS > 0 {
			r.Layer["obs.crawl_overhead_ratio"] = r.ObsCrawlS / p.wall / summarize(samples["work_s"], "s").Median
		}
		res.PerLayer = map[string]value{}
		for _, m := range perLayer {
			res.PerLayer[m.name] = value{Value: r.Layer[m.name], Unit: m.unit}
		}
		res.SelfS = r.SelfS
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// repetition is one pass over a workload: the measure child's result
// with the prepare child's (if any) folded in and the child's peak RSS.
type repetition struct {
	childResult
	peakRSSMiB float64
}

// endToEnd is the repetition's end-to-end metrics, its times and rate
// paced by p.
func (r *repetition) endToEnd(p pace) map[string]float64 {
	return map[string]float64{
		"setup_s":        r.SetupS / p.wall,
		"wall_s":         r.WallS / p.wall,
		"work_per_s":     r.Work / (r.WorkS / p.wall),
		"cpu_s":          r.CPUS / p.cpu,
		"peak_rss_mib":   r.peakRSSMiB,
		"bytes_per_edge": float64(r.V2Bytes) / float64(r.Edges),
	}
}

// repeat runs one repetition in a scratch directory that is emptied
// first: the prepare child where the workload has one, then the measure
// child.
func repeat(ctx context.Context, cfg *config, w workload, dir string, traced bool) (*repetition, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	var prepared *childResult
	if w.prepare {
		var err error
		if prepared, _, err = child(ctx, cfg, w, "prepare", dir, traced); err != nil {
			return nil, err
		}
	}
	measured, rss, err := child(ctx, cfg, w, "measure", dir, traced)
	if err != nil {
		return nil, err
	}
	r := &repetition{childResult: *measured, peakRSSMiB: rss}
	if prepared != nil {
		r.SetupS += prepared.SetupS
		for name, v := range prepared.Layer {
			r.Layer[name] = v
		}
		for name, v := range prepared.SelfS {
			r.SelfS[name] += v // traced: the measure child recorded spans too
		}
	}
	return r, nil
}

// child runs one phase in a fresh process and waits for it to end.
func child(ctx context.Context, cfg *config, w workload, phase, dir string, traced bool) (*childResult, float64, error) {
	args := []string{"child",
		"-workload", w.name, "-phase", phase, "-users", strconv.Itoa(w.users),
		"-seed", strconv.FormatUint(cfg.seed, 10), "-dir", dir}
	if traced {
		args = append(args, "-trace", "1")
		if cfg.out != "" {
			base := strings.TrimSuffix(cfg.out, filepath.Ext(cfg.out))
			args = append(args, "-spans", fmt.Sprintf("%s.%s.%s.spans.jsonl", base, w.name, phase))
		}
	}
	cmd := exec.CommandContext(ctx, cfg.exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, cfg.stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", phase, err)
	}
	res := newChildResult()
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return nil, 0, fmt.Errorf("%s child printed %q: %w", phase, out.String(), err)
	}
	return res, peakRSSMiB(cmd.ProcessState), nil
}

// summarize reduces a sample to its median and quartiles.
func summarize(values []float64, unit string) summary {
	s := summary{Unit: unit, N: len(values), Values: values}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Q1, s.Median, s.Q3 = quartiles(sorted)
	return s
}

// quartiles are Python's statistics.quantiles(values, n=4) (the default
// exclusive method) over an ascending sample; a sample of one is its
// own quartiles.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// printWorkload prints every metric by name with its unit and n, then
// the workload's result as one JSON line: the end-to-end metrics, or
// the per-layer metrics when the run was traced.
func printWorkload(cfg *config, w workload, res *workloadResult) error {
	out := cfg.stdout
	fmt.Fprintf(out, "%s  users=%d seed=%d  attempted=%d failed=%d correct=%v\n",
		w.name, w.users, cfg.seed, res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Fprintf(out, "  FAILED: %s\n", p)
	}
	fmt.Fprintf(out, "  %-36s %14s %-10s %3s %14s %14s\n", "metric", "median", "unit", "n", "q1", "q3")
	row := func(name string, s summary) {
		fmt.Fprintf(out, "  %-36s %14.6g %-10s %3d %14.6g %14.6g\n", name, s.Median, s.Unit, s.N, s.Q1, s.Q3)
	}
	for _, m := range endToEnd {
		row(m.name, res.EndToEnd[m.name])
	}
	row("(pace)", res.Pace)
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	if cfg.trace {
		for _, m := range perLayer {
			v := res.PerLayer[m.name]
			fmt.Fprintf(out, "  %-36s %14.6g %-10s %3d\n", m.name, v.Value, v.Unit, 1)
		}
		fmt.Fprintf(out, "  self time by span, s:\n")
		names := make([]string, 0, len(res.SelfS))
		for name := range res.SelfS {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(out, "    %-34s %14.6g\n", name, res.SelfS[name])
		}
		line.Metrics = res.PerLayer
	} else {
		for _, m := range endToEnd {
			line.Metrics[m.name] = value{Value: res.EndToEnd[m.name].Median, Unit: m.unit}
		}
	}
	return json.NewEncoder(out).Encode(line)
}
