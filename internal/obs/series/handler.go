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
//	GET /debug/timeseries?name=X&since=30s — only the last 30s (duration) or points
//	                                        after an RFC3339 timestamp
//	GET /debug/timeseries?name=X&rate=1   — derive per-interval rates (counters)
//	GET /debug/timeseries?format=jsonl    — every retained tick, as series.jsonl lines
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
		infos := make([]seriesInfo, 0, 64)
		for _, name := range c.Names() {
			kind, _ := c.SeriesKind(name)
			pts := c.PointsSince(name, time.Time{})
			info := seriesInfo{Name: name, Kind: kind, Points: len(pts)}
			if len(pts) > 0 {
				info.Oldest, info.Newest = pts[0].T, pts[len(pts)-1].T
			}
			infos = append(infos, info)
		}
		enc.Encode(struct { //nolint:errcheck
			Interval string       `json:"interval"`
			Samples  int64        `json:"samples"`
			Series   []seriesInfo `json:"series"`
		}{c.Interval().String(), c.Samples(), infos})
		return
	}
	since, err := parseSince(q.Get("since"), time.Now())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if _, err := parseSelectors(selectors); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rate := q.Get("rate") != "" && q.Get("rate") != "0"
	var out []seriesWindow
	for _, name := range selectNames(c, selectors...) {
		kind, _ := c.SeriesKind(name)
		pts := c.PointsSince(name, since)
		if rate && kind != KindGauge {
			pts = RatePoints(pts)
		}
		out = append(out, seriesWindow{Name: name, Kind: kind, Points: pts})
	}
	if out == nil {
		out = []seriesWindow{}
	}
	enc.Encode(out) //nolint:errcheck
}

// parseSince accepts a duration ("30s" — a lookback from now) or an
// RFC3339 timestamp; empty means everything retained.
func parseSince(s string, now time.Time) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if d, err := time.ParseDuration(s); err == nil && d > 0 {
		return now.Add(-d), nil
	}
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	if t, err := time.Parse(time.RFC3339Nano, s); err == nil {
		return t, nil
	}
	return time.Time{}, fmt.Errorf("series: since=%q is neither a duration nor an RFC3339 time", s)
}
