package series

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Handler serves a Collector's store over HTTP at /debug/timeseries.
//
//	GET /debug/timeseries                 — series listing (name, kind, points, span)
//	GET /debug/timeseries?name=X          — window query: points of X (a series name,
//	                                        or a family with the labels to match; repeatable)
//	GET /debug/timeseries?name=X&since=30s — only the 30s up to the newest tick (a
//	                                        duration) or points from an RFC3339 timestamp
//	GET /debug/timeseries?name=X&rate=1   — derive per-interval rates (counters)
//	GET /debug/timeseries?format=jsonl    — every retained tick, as series.jsonl lines
//
// A duration counts back on the store's own time axis. Live ticks are
// stamped by the wall clock, so against time.Now() the window moves by
// less than one sampling interval.
type Handler struct {
	C *Collector
}

type seriesInfo struct {
	Name   string    `json:"name"`
	Kind   Kind      `json:"kind"`
	Points int       `json:"points"`
	Oldest time.Time `json:"oldest,omitempty"`
	Newest time.Time `json:"newest,omitempty"`
}

type seriesWindow struct {
	Name   string  `json:"name"`
	Kind   Kind    `json:"kind"`
	Points []Point `json:"points"`
}

func (h Handler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	c := h.C
	q := req.URL.Query()
	if q.Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/jsonl")
		WriteTicks(w, c.Ticks()) //nolint:errcheck — best effort to a dead client
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	selectors := q["name"]
	if len(selectors) == 0 {
		enc.Encode(struct { //nolint:errcheck
			Interval string       `json:"interval"`
			Samples  int64        `json:"samples"`
			Series   []seriesInfo `json:"series"`
		}{c.Interval().String(), c.Samples(), c.listing()})
		return
	}
	out, err := c.windows(selectors, q.Get("since"), q.Get("rate") != "" && q.Get("rate") != "0")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	enc.Encode(out) //nolint:errcheck
}

// listing describes every series of s. Each has a point at every tick.
func (s *Store) listing() []seriesInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	infos := make([]seriesInfo, 0, 64)
	for _, name := range s.names {
		info := seriesInfo{Name: name, Kind: s.kinds[name], Points: len(s.ticks)}
		if n := len(s.ticks); n > 0 {
			info.Oldest, info.Newest = s.ticks[0].T, s.ticks[n-1].T
		}
		infos = append(infos, info)
	}
	return infos
}

// windows reads every series of s that matches a selector at the ticks
// since (parseSince) — each histogram point with its snapshot — or, with
// rate, as per-second rates over each of their intervals that has a
// duration.
func (s *Store) windows(selectors []string, since string, rate bool) ([]seriesWindow, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var newest time.Time
	if n := len(s.ticks); n > 0 {
		newest = s.ticks[n-1].T
	}
	from, err := parseSince(since, newest)
	if err != nil {
		return nil, err
	}
	if _, err := parseSelectors(selectors); err != nil {
		return nil, err
	}
	ticks := s.window(from, time.Time{})
	out := []seriesWindow{}
	for _, name := range s.selectNames(selectors...) {
		kind := s.kinds[name]
		pts := make([]Point, 0, len(ticks))
		for i := range ticks {
			switch {
			case !rate || kind == KindGauge:
				p := Point{T: ticks[i].T, V: ticks[i].value(name, kind)}
				if kind == KindHistogram {
					h := ticks[i].Histograms[name]
					p.Hist = &h
				}
				pts = append(pts, p)
			case i > 0:
				if v, ok := perSecond(ticks, i, name, kind); ok {
					pts = append(pts, Point{T: ticks[i].T, V: v})
				}
			}
		}
		out = append(out, seriesWindow{Name: name, Kind: kind, Points: pts})
	}
	return out, nil
}

// parseSince accepts a duration ("30s" — a lookback from newest) or an
// RFC3339 timestamp; empty means everything retained.
func parseSince(s string, newest time.Time) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if d, err := time.ParseDuration(s); err == nil && d > 0 {
		return newest.Add(-d), nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	if t, err := time.Parse(time.RFC3339Nano, s); err == nil {
		return t, nil
	}
	return time.Time{}, fmt.Errorf("series: since=%q is neither a duration nor an RFC3339 time", s)
}
