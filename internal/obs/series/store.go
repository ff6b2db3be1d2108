package series

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"gplus/internal/durable"
	"gplus/internal/obs"
)

// Tick is one sample of a registry: the instant it was taken and every
// metric's value then. It is also one line of series.jsonl — {"t":…}
// plus the registry Snapshot's counters, gauges and histograms.
type Tick struct {
	T time.Time `json:"t"`
	obs.Snapshot
}

// value reads series name, of the given kind, at t: a counter's or a
// gauge's value, a histogram's observation count. A series missing from
// the tick reads zero.
func (t *Tick) value(name string, kind Kind) float64 {
	switch kind {
	case KindCounter:
		return float64(t.Counters[name])
	case KindGauge:
		return float64(t.Gauges[name])
	}
	return float64(t.Histograms[name].Count)
}

// Store is the one home of metric history, live and offline: ticks on
// one shared time axis, oldest first. The Collector fills it on every
// sample, ReadTicks from series.jsonl. Every reader takes a run of ticks
// by index and reads each series at each tick by name and kind; a series
// missing from a tick reads as zero there — registry metrics are born at
// zero, so a counter first seen mid-run counts its whole first value as
// growth. All methods are safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	capacity int // 0 keeps every tick
	ticks    []Tick
	kinds    map[string]Kind
	names    []string // sorted; replaced, never written in place
}

func newStore(capacity int) *Store {
	return &Store{capacity: capacity, kinds: make(map[string]Kind)}
}

// add appends t, and reports whether that took the store to 2 ×
// capacity ticks so it dropped back to the newest capacity: the
// retention rule a run directory's series.jsonl follows too.
func (s *Store) add(t Tick) (dropped bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	learn(s, t.Counters, KindCounter)
	learn(s, t.Gauges, KindGauge)
	learn(s, t.Histograms, KindHistogram)
	s.ticks = append(s.ticks, t)
	if s.capacity <= 0 || len(s.ticks) < 2*s.capacity {
		return false
	}
	n := copy(s.ticks, s.ticks[len(s.ticks)-s.capacity:])
	clear(s.ticks[n:])
	s.ticks = s.ticks[:n]
	return true
}

// learn records the kind of every series of m the store has not seen.
// Caller holds the write lock.
func learn[V any](s *Store, m map[string]V, kind Kind) {
	for name := range m {
		if _, ok := s.kinds[name]; !ok {
			s.kinds[name] = kind
			i, _ := slices.BinarySearch(s.names, name)
			s.names = slices.Insert(slices.Clip(s.names), i, name)
		}
	}
}

// Ticks returns the retained ticks, oldest first. Their snapshots are
// shared: read them, never write them.
func (s *Store) Ticks() []Tick {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.ticks)
}

// window returns the ticks at times in [since, until] plus the one
// before since — the baseline a windowed increase starts from. A zero
// since starts at the first tick, a zero until ends at the last. Caller
// holds the lock, and the result is valid only while it does.
func (s *Store) window(since, until time.Time) []Tick {
	lo, hi := 0, len(s.ticks)
	if !since.IsZero() {
		lo = max(sort.Search(hi, func(i int) bool { return !s.ticks[i].T.Before(since) })-1, 0)
	}
	if !until.IsZero() {
		hi = sort.Search(hi, func(i int) bool { return s.ticks[i].T.After(until) })
	}
	return s.ticks[lo:hi]
}

// WriteTicks writes ticks as series.jsonl lines, one JSON object — one
// Write — per tick. It is the one encoder of the format: the run
// directory's log and /debug/timeseries both go through it.
func WriteTicks(w io.Writer, ticks []Tick) error {
	enc := json.NewEncoder(w)
	for i := range ticks {
		if err := enc.Encode(&ticks[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadTicks reads series.jsonl into a store that keeps every tick, in
// time order. A stream cut mid-line loads up to its last whole tick, and
// torn counts the unterminated final line dropped (durable.ReadLog's
// torn-tail rule); a whole line that is not a tick fails the read,
// naming its line number.
func ReadTicks(r io.Reader) (s *Store, torn int, err error) {
	s = newStore(0)
	line := 0
	torn, err = durable.ReadLog(r, func(rec []byte) error {
		line++
		var t Tick
		if err := json.Unmarshal(rec, &t); err != nil {
			return fmt.Errorf("series: line %d: %w", line, err)
		}
		if t.T.IsZero() {
			return fmt.Errorf("series: line %d: no tick time", line)
		}
		s.add(t)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	// A resumed run appends after its previous session; only a stepped
	// wall clock puts a tick out of order.
	slices.SortStableFunc(s.ticks, func(a, b Tick) int { return a.T.Compare(b.T) })
	return s, torn, nil
}
