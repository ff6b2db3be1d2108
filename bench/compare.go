package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// compareFiles prints, for every workload both documents hold, each
// metric's delta from A (the baseline) to B with both sides' medians
// and quartiles, and reports whether any end-to-end metric worsened
// past its bound.
func compareFiles(out io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "A: %s  commit %s  %s  nproc %d  %s  seed %d\n", pathA, a.Stamp.Commit, a.Stamp.Date, a.Stamp.NProc, a.Stamp.GoVersion, a.Stamp.Seed)
	fmt.Fprintf(out, "B: %s  commit %s  %s  nproc %d  %s  seed %d\n", pathB, b.Stamp.Commit, b.Stamp.Date, b.Stamp.NProc, b.Stamp.GoVersion, b.Stamp.Seed)
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil {
			continue
		}
		fmt.Fprintf(out, "\n%s\n", w.name)
		fmt.Fprintf(out, "  %-34s %-6s %11s [%11s %11s] %11s [%11s %11s] %8s  %s\n",
			"metric", "unit", "A median", "q1", "q3", "B median", "q1", "q3", "delta", "verdict")
		for _, m := range endToEnd {
			sa, sb := ra.EndToEnd[m.name], rb.EndToEnd[m.name]
			verdict := judge(m, sa, sb)
			regressed = regressed || verdict == "REGRESSED"
			fmt.Fprintf(out, "  %-34s %-6s %11.5g [%11.5g %11.5g] %11.5g [%11.5g %11.5g] %+7.2f%%  %s\n",
				m.name, m.unit, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, 100*(sb.Median-sa.Median)/sa.Median, verdict)
		}
		if rb.Failed > ra.Failed {
			regressed = true
			fmt.Fprintf(out, "  failed operations rose from %d to %d: REGRESSED\n", ra.Failed, rb.Failed)
		}
		names := make([]string, 0, len(ra.PerLayer))
		for name := range ra.PerLayer {
			if _, ok := rb.PerLayer[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			va, vb := ra.PerLayer[name], rb.PerLayer[name]
			if va.Value == 0 && vb.Value == 0 {
				continue
			}
			fmt.Fprintf(out, "  %-34s %-10s %11.5g -> %11.5g  %+7.2f%%\n", name, va.Unit, va.Value, vb.Value, 100*(vb.Value-va.Value)/va.Value)
		}
	}
	return regressed, nil
}

// judge applies the simplicity-review guide's rule to one end-to-end
// metric. Worse than the bound is a regression. Otherwise a difference
// counts as resolved only when the run-to-run spread (the distance
// between the quartiles, as a share of the median, on either side) is
// within the bound, or when every run of B reads better than every run
// of A.
func judge(m metricSpec, a, b summary) string {
	worse := (b.Median - a.Median) / a.Median
	if m.better == "higher" {
		worse = -worse
	}
	if worse > m.bound {
		return "REGRESSED"
	}
	if allBetter(m, a, b) {
		return "improved"
	}
	if spread(a) > m.bound || spread(b) > m.bound {
		return "unresolved"
	}
	if -worse > max(spread(a), spread(b)) {
		return "improved"
	}
	return "unchanged"
}

func spread(s summary) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func allBetter(m metricSpec, a, b summary) bool {
	if len(a.Values) == 0 || len(b.Values) == 0 {
		return false
	}
	for _, x := range a.Values {
		for _, y := range b.Values {
			if (m.better == "lower" && y >= x) || (m.better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}
