package core

import (
	"gplus/internal/graph"
	"gplus/internal/profile"
)

// TopUser is one row of Table 1: a user ranked by in-degree ("how many
// circles these users are added to by others").
type TopUser struct {
	Rank       int
	ID         string
	Name       string
	Occupation profile.Occupation
	InDegree   int
}

// TopUsers computes Table 1: the k most-followed users. Rows for
// discovered-but-uncrawled users carry an empty name and Other
// occupation (the paper could always crawl its top users, and so can the
// crawler here, but budget-truncated datasets may not have).
func (s *Study) TopUsers(k int) []TopUser {
	top := graph.TopByInDegree(s.g, k, s.opts.Parallelism)
	rows := make([]TopUser, len(top))
	for i, node := range top {
		rows[i] = TopUser{
			Rank:       i + 1,
			ID:         s.ds.IDs[node],
			Name:       s.ds.Profiles[node].Name,
			Occupation: s.ds.Profiles[node].Occupation,
			InDegree:   s.g.InDegree(node),
		}
	}
	return rows
}

// AttrAvailability is one row of Table 2.
type AttrAvailability struct {
	Attr profile.Attr
	// Available is how many crawled users expose the attribute publicly.
	Available int
	// Fraction is Available over the crawled-profile count.
	Fraction float64
}

// AttributeTable computes Table 2: for each of the 17 public attributes,
// how many crawled users share it. Rows come out in the paper's
// attribute order.
func (s *Study) AttributeTable() []AttrAvailability {
	counts := make([]int, profile.NumAttrs)
	total := 0
	s.eachCrawled(func(node graph.NodeID) {
		total++
		for _, a := range profile.AllAttrs() {
			if s.ds.Profiles[node].Public.Has(a) {
				counts[a]++
			}
		}
	})
	rows := make([]AttrAvailability, profile.NumAttrs)
	for i, a := range profile.AllAttrs() {
		rows[i] = AttrAvailability{Attr: a, Available: counts[a]}
		if total > 0 {
			rows[i].Fraction = float64(counts[a]) / float64(total)
		}
	}
	return rows
}
