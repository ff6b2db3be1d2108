package core

import (
	"context"
	"math/rand/v2"
	"slices"
	"sort"

	"gplus/internal/geo"
	"gplus/internal/graph"
	"gplus/internal/stats"
)

// paperTop10 is the Figure 6 country order.
var paperTop10 = geo.PaperTop10

// CountryShare is one bar of Figure 6.
type CountryShare struct {
	Country string
	Users   int
	// Fraction is the share among users with an identified country.
	Fraction float64
}

// TopCountries computes Figure 6: the n countries with the most located
// crawled users, with fractions over all located users.
func (s *Study) TopCountries(n int) []CountryShare {
	counts := s.usersByCountry()
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]CountryShare, 0, len(counts))
	for code, c := range counts {
		share := CountryShare{Country: code, Users: c}
		if total > 0 {
			share.Fraction = float64(c) / float64(total)
		}
		out = append(out, share)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Users != out[j].Users {
			return out[i].Users > out[j].Users
		}
		return out[i].Country < out[j].Country
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// usersByCountry counts located crawled users per country code.
func (s *Study) usersByCountry() map[string]int {
	counts := make(map[string]int)
	s.eachCrawled(func(node graph.NodeID) {
		if p := &s.ds.Profiles[node]; p.HasLocation() {
			counts[p.CountryCode]++
		}
	})
	return counts
}

// Penetration computes Figure 7: for every reference-table country with
// located users, the Google+ penetration rate (Equation 2) and the
// Internet penetration rate against GDP per capita. Countries outside
// the reference table (the "Other" bucket) are skipped, as in the paper.
func (s *Study) Penetration() []geo.PenetrationPoint {
	return geo.PenetrationRates(s.usersByCountry())
}

// CountryOccupations is one row of Table 5.
type CountryOccupations struct {
	Country string
	// Codes lists the occupation codes of the country's top-k users by
	// in-degree, rank order.
	Codes []string
	// Jaccard compares the code multiset against the US row.
	Jaccard float64
}

// TopOccupationsByCountry computes Table 5: the occupation codes of each
// top-10 country's k most-followed located users, with the Jaccard
// similarity to the US row.
func (s *Study) TopOccupationsByCountry(k int) []CountryOccupations {
	// Rank located users per country by in-degree.
	type ranked struct {
		node graph.NodeID
		deg  int
	}
	perCountry := make(map[string][]ranked, len(paperTop10))
	want := make(map[string]bool, len(paperTop10))
	for _, c := range paperTop10 {
		want[c] = true
	}
	s.eachCrawled(func(node graph.NodeID) {
		p := &s.ds.Profiles[node]
		if !p.HasLocation() || !want[p.CountryCode] {
			return
		}
		perCountry[p.CountryCode] = append(perCountry[p.CountryCode], ranked{node, s.g.InDegree(node)})
	})

	rows := make([]CountryOccupations, 0, len(paperTop10))
	var usCodes []string
	for _, country := range paperTop10 {
		list := perCountry[country]
		sort.Slice(list, func(i, j int) bool {
			if list[i].deg != list[j].deg {
				return list[i].deg > list[j].deg
			}
			return list[i].node < list[j].node
		})
		if len(list) > k {
			list = list[:k]
		}
		codes := make([]string, len(list))
		for i, r := range list {
			codes[i] = s.ds.Profiles[r.node].Occupation.Code()
		}
		if country == "US" {
			usCodes = codes
		}
		rows = append(rows, CountryOccupations{Country: country, Codes: codes})
	}
	for i := range rows {
		rows[i].Jaccard = stats.Jaccard(rows[i].Codes, usCodes)
	}
	return rows
}

// locatedColumn is the geographic attribute column of the crawled
// users, by dense node id: what Figures 9 and 10 read in place of the
// profiles. It is built once per Study and never mutated.
type locatedColumn struct {
	// nodes lists the located crawled users, ascending; is marks them.
	nodes []graph.NodeID
	is    []bool
	// at holds a located user's coordinates beside their geo.CosLat,
	// so measuring a pair touches one entry per endpoint; zero elsewhere.
	at []locatedAt
	// country indexes paperTop10, -1 for users outside the top ten and
	// for users without a location.
	country []int8
}

// locatedAt is where one located user lives.
type locatedAt struct {
	loc    geo.Point
	cosLat float64
}

// located returns the Study's located column, building it on first use.
func (s *Study) located() *locatedColumn {
	s.locatedOnce.Do(func() {
		n := s.ds.NumUsers()
		col := &s.locatedCol
		col.nodes = make([]graph.NodeID, 0, n/4)
		col.is = make([]bool, n)
		col.at = make([]locatedAt, n)
		col.country = make([]int8, n)
		for i := range col.country {
			col.country[i] = -1
		}
		index := make(map[string]int8, len(paperTop10))
		for i, c := range paperTop10 {
			index[c] = int8(i)
		}
		s.eachCrawled(func(node graph.NodeID) {
			p := &s.ds.Profiles[node]
			if !p.HasLocation() {
				return
			}
			col.nodes = append(col.nodes, node)
			col.is[node] = true
			col.at[node] = locatedAt{p.Loc, geo.CosLat(p.Loc)}
			if ci, ok := index[p.CountryCode]; ok {
				col.country[node] = ci
			}
		})
	})
	return &s.locatedCol
}

// miles is the path-mile distance between two located users: geo's
// haversine on the column's cached cosines.
func (c *locatedColumn) miles(u, v graph.NodeID) float64 {
	a, b := &c.at[u], &c.at[v]
	return geo.HaversineMilesCos(a.loc, b.loc, a.cosLat, b.cosLat)
}

// Figure 9(a) draws each pair population to a stated CDF error: the
// Dvoretzky–Kiefer–Wolfowitz size (stats.DKWSize, 18 445 pairs) at which
// the sample's empirical CDF lies within PairSampleEps of the
// population's everywhere with probability at least 1 − PairSampleAlpha.
// Options.PairSample defaults to that size. A population that is
// smaller is taken whole and has no sampling error.
//
// DKW is proven for i.i.d. draws. The random pairs are i.i.d. as
// written: each attempt draws both users uniformly with replacement and
// rejection keeps the unlinked pairs, so every accepted pair is an
// independent uniform draw of the unlinked population. The friend and
// reciprocal reservoirs instead hold a uniform sample without
// replacement of every qualifying arc. For one threshold, Hoeffding
// (1963) shows such a sample concentrates at least as tightly as i.i.d.
// draws; that the uniform DKW bound, constant 2 included, carries over
// too is assumed here, not proven.
const (
	PairSampleEps   = 0.01
	PairSampleAlpha = 0.05
)

// PathMileResult is Figure 9(a): CDFs of the physical distance between
// user pairs, in miles.
type PathMileResult struct {
	// Friends, Reciprocal and Random are the sampled distances of the
	// paper's three pair populations.
	Friends, Reciprocal, Random []float64
	// FriendsCDF etc. are their empirical CDFs.
	FriendsCDF, ReciprocalCDF, RandomCDF []stats.Point
	// FriendsEps etc. are each CDF's stated error: the DKW ε at
	// confidence 1 − PairSampleAlpha for the sample's size, or 0 for a
	// population taken whole.
	FriendsEps, ReciprocalEps, RandomEps float64
}

// PathMiles computes Figure 9(a) over located crawled users: distances
// between socially connected pairs, reciprocally connected pairs, and
// random unconnected pairs. The pair sample is a large share of a
// study's wall-clock, so it is memoised like the structural stages: the
// text report and -plotdir share one analyze.fig9 computation.
func (s *Study) PathMiles() PathMileResult {
	res, _ := once(context.Background(), s, &s.pathMilesMemo, "fig9", func(context.Context) (PathMileResult, error) {
		return s.pathMiles(), nil
	})
	return res
}

// pair is one sampled pair of located users.
type pair = [2]graph.NodeID

func (s *Study) pathMiles() PathMileResult {
	rng := s.rng(11)
	col := s.located()

	friends := stats.NewReservoir[pair](s.opts.PairSample, rng)
	reciprocal := stats.NewReservoir[pair](s.opts.PairSample, rng)
	rows := s.g.Rows()
	for _, u := range col.nodes {
		// v→u exists exactly when v is in u's in-row, which ascends
		// with the out-row: one merge finds the reciprocal friends.
		in := rows.In(u)
		for _, v := range rows.Out(u) {
			for len(in) > 0 && in[0] < v {
				in = in[1:]
			}
			if !col.is[v] {
				continue
			}
			friends.Add(pair{u, v})
			if len(in) > 0 && in[0] == v {
				reciprocal.Add(pair{u, v})
			}
		}
	}

	res := PathMileResult{
		Friends:    s.pairMiles(friends.Items()),
		Reciprocal: s.pairMiles(reciprocal.Items()),
		Random:     s.pairMiles(s.randomPairs(rng)),
	}
	s.fanOut(
		func() { res.FriendsCDF = stats.CDF(res.Friends) },
		func() { res.ReciprocalCDF = stats.CDF(res.Reciprocal) },
		func() { res.RandomCDF = stats.CDF(res.Random) },
	)
	res.FriendsEps = reservoirEps(friends)
	res.ReciprocalEps = reservoirEps(reciprocal)
	res.RandomEps = stats.DKWEpsilon(len(res.Random), PairSampleAlpha)
	return res
}

// reservoirEps is a reservoir population's stated CDF error: 0 when the
// reservoir holds the whole stream.
func reservoirEps(r *stats.Reservoir[pair]) float64 {
	if n := len(r.Items()); r.Seen() > int64(n) {
		return stats.DKWEpsilon(n, PairSampleAlpha)
	}
	return 0
}

// randomPairs draws Figure 9(a)'s third population: uniformly sampled
// located users with no social link in either direction, the first
// PairSample such pairs of at most 20×PairSample attempts (the cap
// guards degenerate datasets where almost every located pair is
// connected). Attempts are drawn in rounds and each round's adjacency
// questions go to graph.LinkedPairs together, which reads a user's rows
// once per round instead of once per attempt; pairs are accepted in
// attempt order, so the sample is the one a pair-by-pair loop over the
// same stream draws. Nothing reads rng after the last round, so drawing
// a round to its end is unobservable.
func (s *Study) randomPairs(rng *rand.Rand) []pair {
	located := s.located().nodes
	if len(located) < 2 {
		return nil
	}
	want, attempts := s.opts.PairSample, 20*s.opts.PairSample
	// random holds the accepted pairs; each round is drawn into the
	// space behind them and its accepted pairs move up to join them.
	var random []pair
	var linked []bool
	for len(random) < want && attempts > 0 {
		// Most attempts are accepted: a round sized a little over what
		// is still missing is usually the last. maxRound bounds a
		// round's scratch whatever PairSample is.
		const maxRound = 1 << 22
		need := want - len(random)
		round := min(attempts, need+need/16+64, maxRound)
		attempts -= round
		random = slices.Grow(random, round)
		drawn := random[len(random) : len(random)+round]
		for i := range drawn {
			u := located[rng.IntN(len(located))]
			drawn[i] = pair{u, located[rng.IntN(len(located))]}
		}
		linked = slices.Grow(linked[:0], round)[:round]
		graph.LinkedPairs(s.g, drawn, linked, s.opts.Parallelism)
		for i, p := range drawn {
			if p[0] == p[1] || linked[i] {
				continue
			}
			if random = append(random, p); len(random) == want {
				break
			}
		}
	}
	return random
}

// pairMiles measures every pair, over Parallelism shards.
func (s *Study) pairMiles(pairs []pair) []float64 {
	if len(pairs) == 0 {
		return nil
	}
	col := s.located()
	miles := make([]float64, len(pairs))
	graph.Shards(len(pairs), s.opts.Parallelism, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			miles[i] = col.miles(pairs[i][0], pairs[i][1])
		}
	})
	return miles
}

// CountryPathMile is one bar of Figure 9(b).
type CountryPathMile struct {
	Country string
	stats.Summary
}

// AveragePathMiles computes Figure 9(b): the mean and standard deviation
// of friend-pair distances per top-10 country (pairs are attributed to
// the source user's country). The located users are swept in
// graph.Shards ranges, and each country's distances are joined in range
// order, so stats.Summarize sees them in node order at any Parallelism.
func (s *Study) AveragePathMiles() []CountryPathMile {
	col := s.located()
	shards := make([][][]float64, s.opts.Parallelism)
	graph.Shards(len(col.nodes), s.opts.Parallelism, func(shard, lo, hi int) {
		dists := make([][]float64, len(paperTop10))
		rows := s.g.Rows()
		for _, u := range col.nodes[lo:hi] {
			cu := col.country[u]
			if cu < 0 {
				continue
			}
			for _, v := range rows.Out(u) {
				if col.is[v] {
					dists[cu] = append(dists[cu], col.miles(u, v))
				}
			}
		}
		shards[shard] = dists
	})
	out := make([]CountryPathMile, 0, len(paperTop10))
	for i, c := range paperTop10 {
		dists := shards[0][i]
		for _, part := range shards[1:] {
			if part != nil { // fewer ranges than Parallelism
				dists = append(dists, part[i]...)
			}
		}
		out = append(out, CountryPathMile{Country: c, Summary: stats.Summarize(dists)})
	}
	return out
}

// CountryLinkMatrix is Figure 10: the row-normalized weight of circle
// links between the top-10 countries.
type CountryLinkMatrix struct {
	Countries []string
	// Weight[i][j] is the fraction of country i's (top-10-internal)
	// outgoing links that point into country j; Weight[i][i] is the
	// self-loop share.
	Weight [][]float64
	// UserShare[i] is country i's share of top-10 users (node sizes in
	// the figure).
	UserShare []float64
}

// SelfLoop returns the self-loop weight of a country, or 0 if absent.
func (m *CountryLinkMatrix) SelfLoop(country string) float64 {
	for i, c := range m.Countries {
		if c == country {
			return m.Weight[i][i]
		}
	}
	return 0
}

// CountryLinks computes Figure 10 over located crawled users of the
// top-10 countries.
func (s *Study) CountryLinks() CountryLinkMatrix {
	col := s.located()
	n := len(paperTop10)
	m := CountryLinkMatrix{
		Countries: append([]string(nil), paperTop10...),
		Weight:    make([][]float64, n),
		UserShare: make([]float64, n),
	}
	for i := range m.Weight {
		m.Weight[i] = make([]float64, n)
	}

	totalUsers := 0
	for _, u := range col.nodes {
		if cu := col.country[u]; cu >= 0 {
			m.UserShare[cu]++
			totalUsers++
		}
	}
	if totalUsers > 0 {
		for i := range m.UserShare {
			m.UserShare[i] /= float64(totalUsers)
		}
	}

	rowTotals := make([]float64, n)
	rows := s.g.Rows()
	for _, u := range col.nodes {
		cu := col.country[u]
		if cu < 0 {
			continue
		}
		for _, v := range rows.Out(u) {
			cv := col.country[v]
			if cv < 0 {
				continue
			}
			m.Weight[cu][cv]++
			rowTotals[cu]++
		}
	}
	for i := range m.Weight {
		if rowTotals[i] == 0 {
			continue
		}
		for j := range m.Weight[i] {
			m.Weight[i][j] /= rowTotals[i]
		}
	}
	return m
}
