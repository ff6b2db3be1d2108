package series

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"gplus/internal/durable"
	"gplus/internal/obs"
)

// dumpRecord is one JSONL line of a series dump: one point of one
// series.
type dumpRecord struct {
	Name string                 `json:"name"`
	Kind Kind                   `json:"kind"`
	T    time.Time              `json:"t"`
	V    float64                `json:"v"`
	Hist *obs.HistogramSnapshot `json:"hist,omitempty"`
}

// WriteJSONL dumps every retained point of every series, one JSON
// object per line — series sorted by name, points oldest first. The
// format round-trips through Dump.ReadJSONL for offline analysis.
func (c *Collector) WriteJSONL(w io.Writer) error {
	if c == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, name := range c.Names() {
		kind, _ := c.SeriesKind(name)
		for _, p := range c.PointsSince(name, time.Time{}) {
			rec := dumpRecord{Name: name, Kind: kind, T: p.T, V: p.V, Hist: p.Hist}
			if err := enc.Encode(&rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Dump is an offline, replayable set of series read back from one or
// more JSONL dumps. It implements Source, so the SLO evaluator and the
// health-report analyzers run identically over live rings and dumps.
type Dump struct {
	series map[string]*dumpSeries
}

type dumpSeries struct {
	kind   Kind
	pts    []Point
	sorted bool
}

// NewDump returns an empty dump; feed it with ReadJSONL.
func NewDump() *Dump { return &Dump{series: make(map[string]*dumpSeries)} }

// ReadJSONL merges one JSONL stream into the dump (multiple files from
// one crawl — or shards of a fleet — accumulate). A stream cut
// mid-record loads up to its last complete point, and torn counts the
// unterminated final record that was dropped (durable.ReadLog's
// torn-tail rule).
func (d *Dump) ReadJSONL(r io.Reader) (torn int, err error) {
	line := 0
	return durable.ReadLog(r, func(raw []byte) error {
		line++
		if len(raw) == 0 {
			return nil
		}
		var rec dumpRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("series: dump line %d: %w", line, err)
		}
		if rec.Name == "" {
			return fmt.Errorf("series: dump line %d: missing series name", line)
		}
		s := d.series[rec.Name]
		if s == nil {
			s = &dumpSeries{kind: rec.Kind}
			d.series[rec.Name] = s
		}
		s.pts = append(s.pts, Point{T: rec.T, V: rec.V, Hist: rec.Hist})
		s.sorted = false
		return nil
	})
}

func (s *dumpSeries) sort() {
	if s.sorted {
		return
	}
	sort.SliceStable(s.pts, func(i, j int) bool { return s.pts[i].T.Before(s.pts[j].T) })
	s.sorted = true
}

// Names implements Source.
func (d *Dump) Names() []string {
	names := make([]string, 0, len(d.series))
	for name := range d.series {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SeriesKind implements Source.
func (d *Dump) SeriesKind(name string) (Kind, bool) {
	s := d.series[name]
	if s == nil {
		return "", false
	}
	return s.kind, true
}

// PointsSince implements Source.
func (d *Dump) PointsSince(name string, since time.Time) []Point {
	s := d.series[name]
	if s == nil {
		return nil
	}
	s.sort()
	start := 0
	if !since.IsZero() {
		start = sort.Search(len(s.pts), func(i int) bool { return !s.pts[i].T.Before(since) })
		if start > 0 {
			start--
		}
	}
	return append([]Point(nil), s.pts[start:]...)
}
