package trace

import (
	"fmt"
	"net/http"
)

// ServeHTTP serves the flight recorder at /debug/traces: the report
// `gplusanalyze traces` prints offline over the retained traces
// (Analysis.WriteText, slowest 10); the machine-readable JSONL dump with
// ?format=jsonl (one Trace per line — feed it to `gplusanalyze traces`).
// A nil recorder serves an empty summary, so the handler can be mounted
// before deciding whether tracing is on. The recorder's counts are the
// trace_* series on /metrics.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/jsonl")
		if r != nil {
			r.WriteJSONL(w) //nolint:errcheck — best effort to a dead client
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if r == nil {
		fmt.Fprintln(w, "tracing disabled")
		return
	}
	Analyze(r.Traces(), 10).WriteText(w) //nolint:errcheck — best effort to a dead client
}
