package series

import (
	"net/http"

	"gplus/internal/obs"
)

// Handler serves a Collector's store at /debug/timeseries as the tick
// log: every retained tick, as the series.jsonl lines WriteTicks
// writes, so the body is a dump `gplusanalyze metrics` reads.
//
//	GET /debug/timeseries          — every tick, every series
//	GET /debug/timeseries?name=X   — every tick, only the series X selects (a series
//	                                 name, or a family with the labels to match;
//	                                 repeatable)
//
// A selector that is not a series name is a 400.
type Handler struct {
	C *Collector
}

func (h Handler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	selectors := req.URL.Query()["name"]
	if _, err := parseSelectors(selectors); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ticks := h.C.Ticks()
	if len(selectors) > 0 {
		ticks = h.C.selected(selectors)
	}
	w.Header().Set("Content-Type", "application/jsonl")
	WriteTicks(w, ticks) //nolint:errcheck — best effort to a dead client
}

// selected returns the retained ticks, each cut to the series that match
// a selector (selectNames, the reports' own matcher), so a report read
// from the result agrees with one read from the whole store.
func (s *Store) selected(selectors []string) []Tick {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := s.selectNames(selectors...)
	out := make([]Tick, len(s.ticks))
	for i, t := range s.ticks {
		out[i] = Tick{T: t.T, Snapshot: obs.Snapshot{
			Counters: pick(t.Counters, names), Gauges: pick(t.Gauges, names), Histograms: pick(t.Histograms, names),
		}}
	}
	return out
}

// pick returns the entries of m under names.
func pick[V any](m map[string]V, names []string) map[string]V {
	out := make(map[string]V)
	for _, name := range names {
		if v, ok := m[name]; ok {
			out[name] = v
		}
	}
	return out
}
