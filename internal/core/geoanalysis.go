package core

import (
	"context"
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

// PathMileResult is Figure 9(a): CDFs of the physical distance between
// user pairs, in miles.
type PathMileResult struct {
	// Friends, Reciprocal and Random are the sampled distances of the
	// paper's three pair populations.
	Friends, Reciprocal, Random []float64
	// FriendsCDF etc. are their empirical CDFs.
	FriendsCDF, ReciprocalCDF, RandomCDF []stats.Point
}

// PathMiles computes Figure 9(a) over located crawled users: distances
// between socially connected pairs, reciprocally connected pairs, and
// random unconnected pairs. The pair sample is half a mapped study's
// wall-clock, so it is memoised like the structural stages: the text
// report and -plotdir share one analyze.fig9 computation.
func (s *Study) PathMiles() PathMileResult {
	res, _ := once(context.Background(), s, &s.pathMilesMemo, "fig9", func(context.Context) (PathMileResult, error) {
		return s.pathMiles(), nil
	})
	return res
}

func (s *Study) pathMiles() PathMileResult {
	rng := s.rng(11)
	located := make([]graph.NodeID, 0, s.ds.NumUsers()/4)
	isLocated := make([]bool, s.ds.NumUsers())
	s.eachCrawled(func(node graph.NodeID) {
		if s.ds.Profiles[node].HasLocation() {
			located = append(located, node)
			isLocated[node] = true
		}
	})

	friends := stats.NewReservoir[[2]graph.NodeID](s.opts.PairSample, rng)
	reciprocal := stats.NewReservoir[[2]graph.NodeID](s.opts.PairSample, rng)
	rows := s.g.Rows()
	for _, u := range located {
		// v→u exists exactly when v is in u's in-row, which ascends
		// with the out-row: one merge finds the reciprocal friends.
		in := rows.In(u)
		for _, v := range rows.Out(u) {
			for len(in) > 0 && in[0] < v {
				in = in[1:]
			}
			if !isLocated[v] {
				continue
			}
			pair := [2]graph.NodeID{u, v}
			friends.Add(pair)
			if len(in) > 0 && in[0] == v {
				reciprocal.Add(pair)
			}
		}
	}

	res := PathMileResult{}
	dist := func(pair [2]graph.NodeID) float64 {
		return geo.HaversineMiles(s.ds.Profiles[pair[0]].Loc, s.ds.Profiles[pair[1]].Loc)
	}
	for _, pair := range friends.Items() {
		res.Friends = append(res.Friends, dist(pair))
	}
	for _, pair := range reciprocal.Items() {
		res.Reciprocal = append(res.Reciprocal, dist(pair))
	}
	// Random pairs: uniformly sampled located users with no social link
	// in either direction. The attempt cap guards degenerate datasets
	// where almost every located pair is connected.
	if len(located) >= 2 {
		for attempts := 0; len(res.Random) < s.opts.PairSample && attempts < 20*s.opts.PairSample; attempts++ {
			u := located[rng.IntN(len(located))]
			v := located[rng.IntN(len(located))]
			if u == v || graph.HasArcRows(s.g, rows, u, v) || graph.HasArcRows(s.g, rows, v, u) {
				continue
			}
			res.Random = append(res.Random, dist([2]graph.NodeID{u, v}))
		}
	}
	res.FriendsCDF = stats.CDF(res.Friends)
	res.ReciprocalCDF = stats.CDF(res.Reciprocal)
	res.RandomCDF = stats.CDF(res.Random)
	return res
}

// CountryPathMile is one bar of Figure 9(b).
type CountryPathMile struct {
	Country string
	stats.Summary
}

// AveragePathMiles computes Figure 9(b): the mean and standard deviation
// of friend-pair distances per top-10 country (pairs are attributed to
// the source user's country).
func (s *Study) AveragePathMiles() []CountryPathMile {
	want := make(map[string][]float64, len(paperTop10))
	for _, c := range paperTop10 {
		want[c] = nil
	}
	isLocated := make([]bool, s.ds.NumUsers())
	s.eachCrawled(func(node graph.NodeID) {
		if s.ds.Profiles[node].HasLocation() {
			isLocated[node] = true
		}
	})
	rows := s.g.Rows()
	s.eachCrawled(func(u graph.NodeID) {
		p := &s.ds.Profiles[u]
		if !p.HasLocation() {
			return
		}
		dists, ok := want[p.CountryCode]
		if !ok {
			return
		}
		for _, v := range rows.Out(u) {
			if !isLocated[v] {
				continue
			}
			dists = append(dists, geo.HaversineMiles(p.Loc, s.ds.Profiles[v].Loc))
		}
		want[p.CountryCode] = dists
	})
	out := make([]CountryPathMile, 0, len(paperTop10))
	for _, c := range paperTop10 {
		out = append(out, CountryPathMile{Country: c, Summary: stats.Summarize(want[c])})
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
	index := make(map[string]int, len(paperTop10))
	for i, c := range paperTop10 {
		index[c] = i
	}
	n := len(paperTop10)
	m := CountryLinkMatrix{
		Countries: append([]string(nil), paperTop10...),
		Weight:    make([][]float64, n),
		UserShare: make([]float64, n),
	}
	for i := range m.Weight {
		m.Weight[i] = make([]float64, n)
	}

	countryOf := make([]int8, s.ds.NumUsers())
	for i := range countryOf {
		countryOf[i] = -1
	}
	totalUsers := 0
	s.eachCrawled(func(node graph.NodeID) {
		p := &s.ds.Profiles[node]
		if !p.HasLocation() {
			return
		}
		if ci, ok := index[p.CountryCode]; ok {
			countryOf[node] = int8(ci)
			m.UserShare[ci]++
			totalUsers++
		}
	})
	if totalUsers > 0 {
		for i := range m.UserShare {
			m.UserShare[i] /= float64(totalUsers)
		}
	}

	rowTotals := make([]float64, n)
	rows := s.g.Rows()
	for u := 0; u < s.ds.NumUsers(); u++ {
		cu := countryOf[u]
		if cu < 0 {
			continue
		}
		for _, v := range rows.Out(graph.NodeID(u)) {
			cv := countryOf[v]
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
