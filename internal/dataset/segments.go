package dataset

import (
	"fmt"
	"path/filepath"
	"sync"

	"gplus/internal/crawler"
	"gplus/internal/graph"
	"gplus/internal/graph/diskcsr"
)

// SegmentSink streams crawl edges straight to disk as diskcsr segments
// instead of accumulating them in RAM — the out-of-core collection path
// for crawls whose edge list outgrows memory. A segment is a raw log of
// the observations, 8 bytes each, both sightings of an edge included:
// compaction alone sorts and deduplicates them. Service ids are
// interned to provisional dense ids in first-seen order; the
// provisional→final permutation is applied when FromCrawlSegments
// compacts the segments, so the finished dataset is byte-identical to
// one built in RAM over the same observations (the tests' FromCrawl
// reference).
//
// The interning table lives only in memory, which is why a sink refuses
// a directory that already holds segments: a crashed crawl resumes by
// replaying its journal through a fresh sink (crawler.ReplayJournal),
// not by reusing stale segment files whose ids were minted under a
// table that no longer exists.
type SegmentSink struct {
	mu    sync.Mutex
	dir   string
	w     *diskcsr.Writer
	index map[string]graph.NodeID
	names []string
}

// NewSegmentSink creates a sink writing segments of up to bufferEdges
// edges (0 = diskcsr.DefaultSegmentEdges) under dir, which must not
// already contain segments. met may be nil.
func NewSegmentSink(dir string, bufferEdges int, met *diskcsr.Metrics) (*SegmentSink, error) {
	if segs, err := diskcsr.ListSegments(dir); err != nil {
		return nil, err
	} else if len(segs) > 0 {
		return nil, fmt.Errorf("dataset: segment dir %s already holds %d segments; resume re-streams edges from the crawl journal into a fresh dir", dir, len(segs))
	}
	w, err := diskcsr.NewWriter(dir, bufferEdges, met)
	if err != nil {
		return nil, err
	}
	return &SegmentSink{
		dir:   dir,
		w:     w,
		index: make(map[string]graph.NodeID),
	}, nil
}

// ObserveEdge implements crawler.EdgeSink. Safe for concurrent use.
func (s *SegmentSink) ObserveEdge(from, to string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Add(s.intern(from), s.intern(to))
}

// intern returns the provisional id for a service id; caller holds s.mu.
func (s *SegmentSink) intern(id string) graph.NodeID {
	if n, ok := s.index[id]; ok {
		return n
	}
	n := graph.NodeID(len(s.names))
	s.index[id] = n
	s.names = append(s.names, id)
	return n
}

var _ crawler.EdgeSink = (*SegmentSink)(nil)

// FromCrawlSegments finishes an out-of-core crawl: it flushes the sink,
// compacts its segments into <dir>/graph.v2 — remapped from the sink's
// first-seen interning order to sorted-service-id order, so node ids do
// not depend on worker scheduling — writes the profile column, and
// returns the dataset opened over the memory-mapped graph. Call Close on
// the returned dataset when done; the segment directory may be deleted
// afterwards.
func FromCrawlSegments(res *crawler.Result, sink *SegmentSink, dir string, met *diskcsr.Metrics) (*Dataset, error) {
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if err := sink.w.Flush(); err != nil {
		return nil, fmt.Errorf("dataset: flushing segments: %w", err)
	}

	// The roster is every id the crawl discovered; the sink's ids are a
	// subset (seeds with empty circles never appear on an edge), but the
	// union guards hand-built Results whose Discovered map is incomplete.
	d := rosterFromCrawl(res, sink.names)

	remap := make([]graph.NodeID, len(sink.names))
	index := d.idIndex()
	for prov, id := range sink.names {
		remap[prov] = index[id]
	}
	err := d.save(dir, func(path string) error {
		_, err := diskcsr.Compact(sink.dir, path, diskcsr.CompactOptions{
			NumNodes: len(d.IDs),
			Remap:    remap,
			Metrics:  met,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	m, err := diskcsr.Open(filepath.Join(dir, graphV2File), diskcsr.Options{Metrics: met})
	if err != nil {
		return nil, fmt.Errorf("dataset: opening compacted graph: %w", err)
	}
	d.view = m
	d.closer = m
	if err := d.Validate(); err != nil {
		m.Close()
		return nil, err
	}
	return d, nil
}
