package report

import (
	"context"
	"errors"
	"fmt"
	"io"

	"gplus/internal/core"
	"gplus/internal/paper"
	"gplus/internal/synth"
)

// Experiment is one table or figure of the study: the id gplusanalyze
// -only selects it by, and the text renderer that prints it.
type Experiment struct {
	ID    string
	Print func(ctx context.Context, w io.Writer, s *core.Study) error
}

// Experiments is every experiment in print order, the paper-claim audit
// first. Each calls the Study methods it renders, and a Study computes
// each structural stage at most once, so a subset pays for exactly the
// stages its experiments name. The audit returns a checksFailed error
// when a row says FAIL, after printing the whole table. baselines adds
// Table 4's Twitter-, Facebook- and Orkut-like rows, generated from
// seed; circleCap is the circle cap the §2.2 lost-edge estimate assumes.
func Experiments(baselines bool, seed uint64, circleCap int) []Experiment {
	return []Experiment{
		{"audit", func(ctx context.Context, w io.Writer, s *core.Study) error {
			results, err := paper.Collect(ctx, s)
			if err != nil {
				return err
			}
			outcomes := paper.Evaluate(results)
			if failed := Audit(w, outcomes); failed > 0 {
				return checksFailed{failed, len(outcomes)}
			}
			return nil
		}},
		{"table1", func(_ context.Context, w io.Writer, s *core.Study) error { Table1(w, s.TopUsers(20)); return nil }},
		{"table2", func(_ context.Context, w io.Writer, s *core.Study) error { Table2(w, s.AttributeTable()); return nil }},
		{"table3", func(_ context.Context, w io.Writer, s *core.Study) error { Table3(w, s.TelUsers()); return nil }},
		{"table4", func(ctx context.Context, w io.Writer, s *core.Study) error {
			rows := []core.TopologyRow{s.Topology(ctx)}
			if baselines {
				n := max(s.Dataset().NumUsers()/3, 1000)
				for _, kind := range []synth.Baseline{synth.TwitterLike, synth.FacebookLike, synth.OrkutLike} {
					g, err := synth.GenerateBaseline(kind, n, seed)
					if err != nil {
						return fmt.Errorf("baseline %v: %w", kind, err)
					}
					rows = append(rows, s.BaselineTopology(ctx, kind.String(), g))
				}
			}
			Table4(w, rows)
			return nil
		}},
		{"table5", func(_ context.Context, w io.Writer, s *core.Study) error {
			Table5(w, s.TopOccupationsByCountry(10))
			return nil
		}},
		{"fig2", func(_ context.Context, w io.Writer, s *core.Study) error { Fig2(w, s.FieldsShared()); return nil }},
		{"fig3", func(_ context.Context, w io.Writer, s *core.Study) error {
			dd, err := s.Degrees()
			if err == nil {
				Fig3(w, dd)
			}
			return err
		}},
		{"fig4", func(_ context.Context, w io.Writer, s *core.Study) error {
			Fig4(w, s.Reciprocity(), s.Clustering(), s.SCC())
			return nil
		}},
		{"fig5", func(ctx context.Context, w io.Writer, s *core.Study) error { Fig5(w, s.PathLengths(ctx)); return nil }},
		{"fig6", func(_ context.Context, w io.Writer, s *core.Study) error { Fig6(w, s.TopCountries(11)); return nil }},
		{"fig7", func(_ context.Context, w io.Writer, s *core.Study) error { Fig7(w, s.Penetration()); return nil }},
		{"fig8", func(_ context.Context, w io.Writer, s *core.Study) error { Fig8(w, s.FieldsByCountry(nil)); return nil }},
		{"fig9", func(_ context.Context, w io.Writer, s *core.Study) error {
			Fig9(w, s.PathMiles(), s.AveragePathMiles())
			return nil
		}},
		{"fig10", func(_ context.Context, w io.Writer, s *core.Study) error { Fig10(w, s.CountryLinks()); return nil }},
		{"connectivity", func(_ context.Context, w io.Writer, s *core.Study) error {
			Connectivity(w, s.WCC(), s.SCC())
			return nil
		}},
		{"motifs", func(_ context.Context, w io.Writer, s *core.Study) error {
			m, err := s.Motifs()
			Motifs(w, m)
			return err
		}},
		{"lostedges", func(_ context.Context, w io.Writer, s *core.Study) error {
			LostEdges(w, s.LostEdges(circleCap))
			return nil
		}},
	}
}

// ExperimentIDs is the id of every experiment, in print order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range Experiments(false, 0, 0) {
		ids = append(ids, e.ID)
	}
	return ids
}

// Print writes what each of exps prints over s, in order, each followed
// by a blank line: the text report. With md set it is the Markdown
// report instead, the measured half of EXPERIMENTS.md: a title and the
// dataset line, then a "## <id>" section per experiment whose fenced
// block holds exactly those text lines. A failed audit check does not cut
// the report short: Print writes every experiment, then returns the
// audit's "N of M checks failed".
func Print(ctx context.Context, w io.Writer, s *core.Study, exps []Experiment, md bool) error {
	if md {
		ds := s.Dataset()
		fmt.Fprintf(w, "# Google+ reproduction report\n\nDataset: %d users (%d crawled), %d edges.\n\n",
			ds.NumUsers(), ds.NumCrawled(), ds.View().NumEdges())
	}
	var failed error
	for _, e := range exps {
		if md {
			fmt.Fprintf(w, "## %s\n\n```\n", e.ID)
		}
		if err := e.Print(ctx, w, s); errors.As(err, new(checksFailed)) {
			failed = err
		} else if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if md {
			fmt.Fprint(w, "```\n")
		}
		fmt.Fprintln(w)
	}
	return failed
}

// checksFailed is the audit's verdict on a dataset some rows of whose
// table say FAIL: the report is whole, but the paper is not reproduced.
type checksFailed struct{ failed, total int }

func (e checksFailed) Error() string {
	return fmt.Sprintf("%d of %d checks failed", e.failed, e.total)
}

// Audit writes the paper-claim audit table, the audit experiment's text:
// one row per check, in the order of paper.Checks, then how many rows
// say PASS. It returns how many say FAIL.
func Audit(w io.Writer, outcomes []paper.Outcome) (failed int) {
	fmt.Fprintf(w, "%-26s %-8s %10s %10s  %s\n", "check", "status", "paper", "measured", "claim")
	for _, o := range outcomes {
		status := "PASS"
		if !o.Pass {
			status = "FAIL"
			failed++
		}
		if o.Check.IsOrdering() {
			holds := "holds"
			if !o.Pass {
				holds = "violated"
			}
			fmt.Fprintf(w, "%-26s %-8s %10s %10s  %s\n", o.Check.ID, status, "-", holds, o.Check.Claim)
		} else {
			fmt.Fprintf(w, "%-26s %-8s %10.4f %10.4f  %s\n", o.Check.ID, status, o.Check.Published, o.Measured, o.Check.Claim)
		}
	}
	fmt.Fprintf(w, "\n%d/%d checks passed\n", len(outcomes)-failed, len(outcomes))
	return failed
}
