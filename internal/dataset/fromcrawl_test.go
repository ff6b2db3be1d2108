package dataset

import (
	"context"
	"sync"

	"gplus/internal/crawler"
	"gplus/internal/graph"
)

// FromCrawl is the in-RAM reference the pipeline's out-of-core path
// (SegmentSink + FromCrawlSegments) is compared against: it builds the
// dataset from a Result whose Edges hold the whole edge stream, as
// crawler.LoadCheckpoint returns it. Node ids are assigned in sorted
// service-id order so the construction is deterministic regardless of
// worker scheduling.
func FromCrawl(res *crawler.Result) *Dataset {
	d := rosterFromCrawl(res, nil)
	ids := d.IDs
	index := d.idIndex()
	b := graph.NewBuilder(len(ids), len(res.Edges)) // every id is a node, isolated seeds included
	for _, e := range res.Edges {
		from, okFrom := index[e.From]
		to, okTo := index[e.To]
		if !okFrom || !okTo {
			continue // edge to an id outside the discovered set: impossible, but harmless
		}
		b.AddEdge(from, to)
	}
	d.g = b.Build()
	return d
}

// edgeLog is an EdgeSink that keeps every observed edge, in arrival
// order. Safe for concurrent use.
type edgeLog struct {
	mu    sync.Mutex
	edges []crawler.Edge
}

func (l *edgeLog) ObserveEdge(from, to string) error {
	l.mu.Lock()
	l.edges = append(l.edges, crawler.Edge{From: from, To: to})
	l.mu.Unlock()
	return nil
}

// crawlInRAM runs cfg into an edgeLog and returns the result with the
// logged stream in Edges: the input FromCrawl takes.
func crawlInRAM(ctx context.Context, cfg crawler.Config) (*crawler.Result, error) {
	sink := &edgeLog{}
	cfg.EdgeSink = sink
	res, err := crawler.Crawl(ctx, cfg)
	if res != nil {
		res.Edges = sink.edges
	}
	return res, err
}
