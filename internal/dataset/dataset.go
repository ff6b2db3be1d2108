// Package dataset turns raw crawl output into the analysis-ready form
// used by the study — a dense-id directed graph plus per-node profile
// columns — and persists it to disk.
package dataset

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"gplus/internal/crawler"
	"gplus/internal/graph"
	"gplus/internal/profile"
	"gplus/internal/synth"
)

// Dataset is the collected Google+ sample: every discovered user gets a
// dense node id; users whose profile page was fetched carry profile data
// and Crawled=true, while frontier users discovered only through circle
// lists carry an empty profile. The graph over those ids is reached
// through View.
type Dataset struct {
	Profiles []profile.Profile
	IDs      []string
	Crawled  []bool

	// g is the graph: an in-RAM *graph.Graph, or the memory-mapped v2
	// file of a dataset opened with Options.Mapped.
	g graph.View
	// closer releases the mapping; nil for in-RAM datasets, where Close
	// is a no-op.
	closer io.Closer

	// index resolves service ids for NodeOf; it is built by the first
	// caller, because a study that only reads tables never asks.
	indexOnce sync.Once
	index     map[string]graph.NodeID
}

// Close releases the dataset's graph mapping, if any. Datasets loaded
// fully into RAM have nothing to release and Close returns nil. The
// graph must not be used after Close.
func (d *Dataset) Close() error {
	if d.closer == nil {
		return nil
	}
	c := d.closer
	d.closer = nil
	return c.Close()
}

// NumUsers returns the number of discovered users (graph nodes).
func (d *Dataset) NumUsers() int { return len(d.IDs) }

// View returns the graph as the read surface the analysis kernels are
// written against, whichever backend holds it: code written against
// View runs over either unchanged.
func (d *Dataset) View() graph.View { return d.g }

// NumCrawled returns how many users have fetched profiles.
func (d *Dataset) NumCrawled() int {
	n := 0
	for _, c := range d.Crawled {
		if c {
			n++
		}
	}
	return n
}

// NodeOf resolves a service id to the dense node id.
func (d *Dataset) NodeOf(id string) (graph.NodeID, bool) {
	n, ok := d.idIndex()[id]
	return n, ok
}

// idIndex returns the id lookup over IDs, building it on first use.
func (d *Dataset) idIndex() map[string]graph.NodeID {
	d.indexOnce.Do(func() {
		d.index = make(map[string]graph.NodeID, len(d.IDs))
		for i, id := range d.IDs {
			d.index[id] = graph.NodeID(i)
		}
	})
	return d.index
}

// Validate checks cross-field invariants. The graph itself is not
// checked again: a built graph.Graph is valid by construction, and a
// loaded one, in RAM or mapped, was checked in full by the decode that
// read graph.v2.
func (d *Dataset) Validate() error {
	n := len(d.IDs)
	if len(d.Profiles) != n || len(d.Crawled) != n {
		return fmt.Errorf("dataset: column lengths differ: %d ids, %d profiles, %d crawled flags",
			n, len(d.Profiles), len(d.Crawled))
	}
	g := d.View()
	if g.NumNodes() != n {
		return fmt.Errorf("dataset: graph has %d nodes for %d users", g.NumNodes(), n)
	}
	return nil
}

// rosterFromCrawl assembles everything of a crawled dataset but its
// graph: the sorted id roster over res.Discovered and the distinct ids
// of extra, the index, and the Profiles/Crawled columns.
func rosterFromCrawl(res *crawler.Result, extra []string) *Dataset {
	ids := make([]string, 0, len(res.Discovered))
	for id := range res.Discovered {
		ids = append(ids, id)
	}
	for _, id := range extra {
		if _, seen := res.Discovered[id]; !seen {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	d := &Dataset{
		IDs:      ids,
		Profiles: make([]profile.Profile, len(ids)),
		Crawled:  make([]bool, len(ids)),
	}
	index := d.idIndex()
	for id, p := range res.Profiles {
		node := index[id]
		d.Profiles[node] = p
		d.Crawled[node] = true
	}
	return d
}

// FromUniverse builds a ground-truth dataset directly from a synthetic
// universe, bypassing HTTP. This is the fast path used by benchmarks and
// by cmd/gplusgen for large-scale runs.
func FromUniverse(u *synth.Universe) *Dataset {
	d := &Dataset{
		g:        u.Graph,
		Profiles: u.Profiles,
		IDs:      u.IDs,
		Crawled:  make([]bool, u.NumUsers()),
	}
	for i := range d.Crawled {
		d.Crawled[i] = true
	}
	return d
}
