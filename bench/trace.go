package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The bench's own tracing: an in-memory span around every call into a
// layer, recorded from the bench's files only (spans inside internal/
// are a later issue). A nil *recorder is tracing off and costs a nil
// check; the end-to-end metrics are always measured that way.

// span is one timed call into a layer. Times are nanoseconds since the
// recorder was created; Parent is the id of the span that caused this
// one (0 for a root), and every span of one child process shares Run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tally aggregates calls too frequent to give a span each
// (EdgeSink.ObserveEdge, Writer.Add) as a count plus busy time.
type tally struct {
	name  string
	n, ns atomic.Int64
}

func (t *tally) add(start time.Time) {
	t.n.Add(1)
	t.ns.Add(int64(time.Since(start)))
}

func (t *tally) busy() time.Duration { return time.Duration(t.ns.Load()) }

type recorder struct {
	run string
	t0  time.Time

	mu      sync.Mutex
	spans   []span
	tallies []*tally
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, t0: time.Now()}
}

// start opens a span and returns its id; 0 on a nil recorder.
func (r *recorder) start(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: r.run, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// do runs fn inside a span and returns the span's duration in seconds
// (the plain wall of fn on a nil recorder).
func (r *recorder) do(name string, parent int, fn func()) float64 {
	id := r.start(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.end(id)
	return d.Seconds()
}

func (r *recorder) tally(name string) *tally {
	t := &tally{name: name}
	r.mu.Lock()
	r.tallies = append(r.tallies, t)
	r.mu.Unlock()
	return t
}

// durations returns the length of every span with the given name, in
// seconds.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for i := range r.spans {
		if s := &r.spans[i]; s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// selfSeconds is each span name's self time: a span's duration minus
// the part of that interval its child spans cover (their union, since
// children on several goroutines overlap), summed by name.
func (r *recorder) selfSeconds() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for i := range r.spans {
		if p := r.spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make(map[string]float64)
	for i := range r.spans {
		s := &r.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(r.spans[k].Start, edge), min(r.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// writeJSONL writes every span, then every tally, one JSON object per
// line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	for _, t := range r.tallies {
		err := enc.Encode(struct {
			Name  string `json:"name"`
			Run   string `json:"run"`
			Count int64  `json:"count"`
			Busy  int64  `json:"busy_ns"`
		}{t.name, r.run, t.n.Load(), t.ns.Load()})
		if err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
