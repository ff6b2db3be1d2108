package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4). Families and series are emitted in sorted
// order so the output is deterministic for a quiescent registry.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.Snapshot()
	r.mu.RLock()
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.RUnlock()

	// Registered names are canonical: they parse, and are written back
	// verbatim; only a histogram's expansion builds new names.
	type row struct {
		id   Series
		name string
		typ  string
		v    int64
		hs   HistogramSnapshot
	}
	var rows []row
	add := func(name, typ string, v int64, hs HistogramSnapshot) {
		id, _ := ParseSeries(name)
		rows = append(rows, row{id, name, typ, v, hs})
	}
	for name, v := range snap.Counters {
		add(name, "counter", v, HistogramSnapshot{})
	}
	for name, v := range snap.Gauges {
		add(name, "gauge", v, HistogramSnapshot{})
	}
	for name, hs := range snap.Histograms {
		add(name, "histogram", 0, hs)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].id.Family != rows[j].id.Family {
			return rows[i].id.Family < rows[j].id.Family
		}
		return rows[i].name < rows[j].name
	})
	for i, r := range rows {
		if fam := r.id.Family; i == 0 || rows[i-1].id.Family != fam {
			if h := help[fam]; h != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, escapeHelp(h)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, r.typ); err != nil {
				return err
			}
		}
		var err error
		if r.typ == "histogram" {
			err = writeHistogram(w, r.id, r.hs)
		} else {
			_, err = fmt.Fprintf(w, "%s %d\n", r.name, r.v)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram emits the _bucket (cumulative, with le labels), _sum,
// and _count series of one histogram.
func writeHistogram(w io.Writer, id Series, hs HistogramSnapshot) error {
	n := len(id.Labels)
	bucket := func(le string) Series {
		return Series{id.Family + "_bucket", append(id.Labels[:n:n], Label{KeyLE, le})}
	}
	cum := int64(0)
	for i, bound := range hs.Bounds {
		cum += hs.Counts[i]
		if _, err := fmt.Fprintf(w, "%s %d\n", bucket(strconv.FormatFloat(bound, 'g', -1, 64)), cum); err != nil {
			return err
		}
	}
	cum += hs.Counts[len(hs.Counts)-1]
	if _, err := fmt.Fprintf(w, "%s %d\n", bucket("+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s %s\n", Series{id.Family + "_sum", id.Labels}, strconv.FormatFloat(hs.Sum, 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", Series{id.Family + "_count", id.Labels}, hs.Count)
	return err
}

// escapeHelp escapes HELP text per the exposition format: backslash and
// newline (a raw newline would start a bogus exposition line).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// ServeHTTP serves the registry in Prometheus text. A nil registry
// serves an empty exposition, so wiring the handler is safe before
// deciding whether telemetry is on.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WritePrometheus(w) //nolint:errcheck — best effort to a dead client
}
