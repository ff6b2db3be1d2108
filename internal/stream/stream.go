// Package stream simulates the content layer of §2.1 — posts published
// into circles with per-post visibility, +1 endorsements, and reshare
// cascades — and implements the analyses the paper's second future-work
// direction asks for (§7): "how different privacy settings and openness
// impact the types of conversations and the patterns of content sharing",
// studied through the stream of the most prolific users.
//
// The information-flow rules follow the platform description: a post by
// v reaches the users who have v in their circles (v's followers); a
// public post reaches all of them, while a circles-limited post reaches
// only the followers v has circled back (the mutual contacts). Only
// public posts can be reshared onward.
package stream

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"gplus/internal/dataset"
	"gplus/internal/graph"
	"gplus/internal/stats"
)

// Visibility is the audience selector of a post (§2.1; the profile-field
// selector of §3.1 has the same shape).
type Visibility uint8

// Post visibilities modelled by the simulation.
const (
	// Public posts are visible to every follower and to the open
	// Internet; they can be reshared.
	Public Visibility = iota
	// Circles posts reach only the followers the author has circled
	// back, and cannot be reshared onward.
	Circles
)

// String names the post visibility.
func (v Visibility) String() string {
	if v == Circles {
		return "circles"
	}
	return "public"
}

// Config controls the content simulation.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Posts is the number of root posts to simulate.
	Posts int
	// ActivityAlpha is the tail exponent of per-user posting activity;
	// small values concentrate content production in few prolific users.
	ActivityAlpha float64
	// PublicShare is the probability a post is Public rather than
	// Circles-limited. Per-author openness (number of public profile
	// fields) shifts this probability, tying content privacy to the
	// profile privacy of §3.
	PublicShare float64
	// ResharePerExposure is the probability an exposed follower reshares
	// a public post; the effective probability decays with cascade depth.
	ResharePerExposure float64
	// PlusOnePerExposure is the probability an exposed follower +1s.
	PlusOnePerExposure float64
	// MaxDepth bounds cascade recursion.
	MaxDepth int
	// MaxAudience caps the exposures processed per reshare hop, standing
	// in for feed-ranking: a hub's millions of followers do not all see
	// every post.
	MaxAudience int
}

// DefaultConfig returns the calibrated content-layer configuration.
func DefaultConfig(posts int) Config {
	return Config{
		Seed:               2012,
		Posts:              posts,
		ActivityAlpha:      1.1,
		PublicShare:        0.45,
		ResharePerExposure: 0.02,
		PlusOnePerExposure: 0.08,
		MaxDepth:           8,
		MaxAudience:        2000,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Posts <= 0:
		return fmt.Errorf("stream: Posts = %d, must be positive", c.Posts)
	case c.ActivityAlpha <= 0:
		return fmt.Errorf("stream: ActivityAlpha = %v, must be positive", c.ActivityAlpha)
	case c.PublicShare < 0 || c.PublicShare > 1:
		return fmt.Errorf("stream: PublicShare = %v, must be in [0,1]", c.PublicShare)
	case c.ResharePerExposure < 0 || c.ResharePerExposure > 1:
		return fmt.Errorf("stream: ResharePerExposure = %v, must be in [0,1]", c.ResharePerExposure)
	case c.PlusOnePerExposure < 0 || c.PlusOnePerExposure > 1:
		return fmt.Errorf("stream: PlusOnePerExposure = %v, must be in [0,1]", c.PlusOnePerExposure)
	case c.MaxDepth < 1:
		return fmt.Errorf("stream: MaxDepth = %d, must be >= 1", c.MaxDepth)
	case c.MaxAudience < 1:
		return fmt.Errorf("stream: MaxAudience = %d, must be >= 1", c.MaxAudience)
	}
	return nil
}

// Post is one simulated root post with its diffusion outcome.
type Post struct {
	Author     graph.NodeID
	Visibility Visibility
	// Exposures is how many distinct users saw the post (through the
	// author or any resharer).
	Exposures int
	// Reshares is the cascade size (root excluded).
	Reshares int
	// Depth is the longest reshare chain.
	Depth int
	// PlusOnes counts endorsements across all exposures.
	PlusOnes int
}

// Result is the simulated stream.
type Result struct {
	Posts []Post
	// PostsByAuthor counts root posts per author.
	PostsByAuthor map[graph.NodeID]int
}

// Simulate runs the content layer over a dataset. Deterministic in cfg.
func Simulate(ds *dataset.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := ds.Graph
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("stream: empty dataset")
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xa0761d6478bd642f))

	// Prolific-user activity: heavy-tailed posting weights.
	weights := make([]float64, g.NumNodes())
	for i := range weights {
		weights[i] = stats.BoundedPareto(rng, cfg.ActivityAlpha, 1, 1e5)
	}
	chooser := stats.NewWeightedChooser(weights)

	res := &Result{
		Posts:         make([]Post, 0, cfg.Posts),
		PostsByAuthor: make(map[graph.NodeID]int),
	}
	seen := make([]int32, g.NumNodes()) // per-post visited marker
	for i := range seen {
		seen[i] = -1
	}

	for p := 0; p < cfg.Posts; p++ {
		author := graph.NodeID(chooser.Choose(rng))
		post := Post{Author: author, Visibility: Circles}
		// Openness shifts the public/circles decision: each public
		// profile field beyond the mandatory name adds a nudge.
		publicProb := cfg.PublicShare + 0.02*float64(ds.Profiles[author].Public.FieldCount()-1)
		if publicProb > 0.95 {
			publicProb = 0.95
		}
		if rng.Float64() < publicProb {
			post.Visibility = Public
		}
		simulateCascade(g, cfg, rng, &post, seen, int32(p))
		res.Posts = append(res.Posts, post)
		res.PostsByAuthor[author]++
	}
	return res, nil
}

// simulateCascade diffuses one post. seen[v] == stamp marks users
// already exposed to this post.
func simulateCascade(g *graph.Graph, cfg Config, rng *rand.Rand, post *Post, seen []int32, stamp int32) {
	type hop struct {
		user  graph.NodeID
		depth int
	}
	frontier := []hop{{post.Author, 0}}
	seen[post.Author] = stamp

	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]

		followers := g.In(cur.user)
		audience := len(followers)
		if audience > cfg.MaxAudience {
			audience = cfg.MaxAudience
		}
		for k := 0; k < audience; k++ {
			f := followers[k]
			if seen[f] == stamp {
				continue
			}
			// Circles-limited posts reach only mutual contacts of the
			// author; reshared posts are public by definition.
			if post.Visibility == Circles && !graph.HasArc(g, post.Author, f) {
				continue
			}
			seen[f] = stamp
			post.Exposures++
			if rng.Float64() < cfg.PlusOnePerExposure {
				post.PlusOnes++
			}
			if post.Visibility != Public || cur.depth+1 >= cfg.MaxDepth {
				continue
			}
			// Depth-decaying reshare probability.
			if rng.Float64() < cfg.ResharePerExposure/float64(cur.depth+1) {
				post.Reshares++
				if cur.depth+1 > post.Depth {
					post.Depth = cur.depth + 1
				}
				frontier = append(frontier, hop{f, cur.depth + 1})
			}
		}
	}
}

// Concentration reports what fraction of all root posts the most
// prolific topPercent (e.g. 1.0 for 1%) of posting users produced — the
// "most prolific users" lens of §7.
func (r *Result) Concentration(topPercent float64) float64 {
	if len(r.Posts) == 0 || len(r.PostsByAuthor) == 0 {
		return 0
	}
	counts := make([]int, 0, len(r.PostsByAuthor))
	for _, c := range r.PostsByAuthor {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	k := int(float64(len(counts)) * topPercent / 100)
	if k < 1 {
		k = 1
	}
	if k > len(counts) {
		k = len(counts)
	}
	top := 0
	for _, c := range counts[:k] {
		top += c
	}
	return float64(top) / float64(len(r.Posts))
}

// ReachByVisibility returns the mean exposure count per visibility class
// — the openness-versus-information-flow comparison of §6.
func (r *Result) ReachByVisibility() map[Visibility]float64 {
	sums := map[Visibility]float64{}
	counts := map[Visibility]int{}
	for _, p := range r.Posts {
		sums[p.Visibility] += float64(p.Exposures)
		counts[p.Visibility]++
	}
	out := make(map[Visibility]float64, len(sums))
	for v, s := range sums {
		out[v] = s / float64(counts[v])
	}
	return out
}

// CascadeSizeCCDF returns the CCDF of reshare-cascade sizes over public
// posts with at least one reshare.
func (r *Result) CascadeSizeCCDF() []stats.Point {
	var sizes []float64
	for _, p := range r.Posts {
		if p.Visibility == Public && p.Reshares > 0 {
			sizes = append(sizes, float64(p.Reshares))
		}
	}
	return stats.CCDF(sizes)
}

// PlusOneCCDF returns the CCDF of +1 counts over all posts.
func (r *Result) PlusOneCCDF() []stats.Point {
	vals := make([]float64, len(r.Posts))
	for i, p := range r.Posts {
		vals[i] = float64(p.PlusOnes)
	}
	return stats.CCDF(vals)
}
