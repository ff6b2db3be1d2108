package synth

import (
	"math"
	"math/rand/v2"
	"sort"

	"gplus/internal/graph"
	"gplus/internal/profile"
	"gplus/internal/stats"
)

// generateEdges builds the directed circle graph over the generated
// population and freezes it into u.Graph, then back-fills the declared
// degree fields of every profile.
//
// The model layers four empirically-motivated mechanisms:
//
//   - Two user populations: casual users add only a handful of contacts
//     (the flat head of the out-degree CCDF and the source of small SCCs);
//     engaged users draw from a bounded power law with tail exponent
//     OutDegreeAlpha, capped at the service's 5,000 limit unless they are
//     celebrities (§3.3.1).
//   - Communities: each country's users are partitioned into tight
//     communities; "local" stubs mostly stay inside them, which yields
//     realistic clustering (Figure 4b) and geographic homophily
//     (Figures 9/10).
//   - Triadic closure: a share of stubs pick a friend-of-a-friend.
//   - Preferential attachment: remaining stubs follow heavy-tailed
//     attractiveness weights, whose tail is continued past the ordinary
//     cap by celebrity weights — producing the in-degree power law and
//     hub table (Figure 3, Table 1).
//
// Reciprocation depends on how the edge was formed (social picks are
// added back often, one-way follows of popular users rarely), which keeps
// per-node RR high for ordinary users (Figure 4a) while global edge
// reciprocity stays near 32% (Table 4).
func (u *Universe) generateEdges(rng *rand.Rand) {
	cfg := u.Config
	n := cfg.Nodes

	// Attractiveness weights: ordinary users draw a bounded power law;
	// celebrity weights continue the tail beyond the ordinary cap.
	weights := make([]float64, n)
	for i := range weights {
		if u.Celebrity[i] {
			weights[i] = stats.BoundedPareto(rng, 1.2, cfg.OrdinaryWeightCap, cfg.CelebrityWeightMax)
		} else {
			weights[i] = stats.BoundedPareto(rng, cfg.InWeightAlpha, 1, cfg.OrdinaryWeightCap)
		}
	}
	global := stats.NewWeightedChooser(weights)

	// Domestic preferential choosers: a share of the popularity-driven
	// follows target the user's own country's stars (people follow
	// domestic celebrities — the reason Table 5's per-country top lists
	// differ), which also keeps friend links geographically close
	// (Figure 9) and self-loop weights high (Figure 10).
	domestic := make(map[string]*stats.WeightedChooser, len(countryMixture))
	domesticMembers := make(map[string][]graph.NodeID, len(countryMixture))

	// Country member lists, then a community partition within each
	// country: contiguous runs of shuffled members with random sizes.
	members := make(map[string][]graph.NodeID, len(countryMixture))
	for i := 0; i < n; i++ {
		members[u.HomeCountry[i]] = append(members[u.HomeCountry[i]], graph.NodeID(i))
	}
	for _, cw := range countryMixture {
		list := members[cw.code]
		if len(list) == 0 {
			continue
		}
		w := make([]float64, len(list))
		for i, node := range list {
			w[i] = weights[node]
		}
		domestic[cw.code] = stats.NewWeightedChooser(w)
		domesticMembers[cw.code] = list
	}
	community := make([][]graph.NodeID, 0, n/cfg.CommunityMin+1)
	communityOf := make([]int32, n)
	// Iterate countries in mixture order, not map order, so generation
	// stays deterministic.
	for _, cw := range countryMixture {
		list := members[cw.code]
		rng.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
		for start := 0; start < len(list); {
			size := cfg.CommunityMin
			if cfg.CommunityMax > cfg.CommunityMin {
				size += rng.IntN(cfg.CommunityMax - cfg.CommunityMin + 1)
			}
			end := start + size
			if end > len(list) {
				end = len(list)
			}
			id := int32(len(community))
			group := list[start:end]
			community = append(community, group)
			for _, node := range group {
				communityOf[node] = id
			}
			start = end
		}
	}

	// Organic out-degrees: casual head plus engaged power-law body.
	outDeg := make([]int, n)
	casual := make([]bool, n)
	for i := range outDeg {
		if !u.Celebrity[i] && rng.Float64() < cfg.CasualFraction {
			casual[i] = true
			outDeg[i] = int(stats.BoundedPareto(rng, 1.2, 1, float64(cfg.CasualDegreeMax)))
			continue
		}
		cap := float64(cfg.OutDegreeCap)
		if u.Celebrity[i] {
			cap *= 4 // special users may outpass the threshold
		}
		outDeg[i] = int(stats.BoundedPareto(rng, cfg.OutDegreeAlpha, cfg.OutDegreeMin, cap))
	}

	out := make([][]graph.NodeID, n)
	for i := range out {
		out[i] = make([]graph.NodeID, 0, outDeg[i]+2)
	}
	// Duplicate suppression: small out-lists use a linear scan; nodes
	// that grow past a threshold switch to a set. Without this, dense
	// communities generate so many duplicate picks that the deduplicating
	// graph builder would silently shrink realized degrees.
	const setThreshold = 24
	sets := make(map[graph.NodeID]map[graph.NodeID]struct{})
	hasEdge := func(src, dst graph.NodeID) bool {
		if s, ok := sets[src]; ok {
			_, dup := s[dst]
			return dup
		}
		for _, v := range out[src] {
			if v == dst {
				return true
			}
		}
		return false
	}
	addEdge := func(src, dst graph.NodeID) bool {
		if src == dst || hasEdge(src, dst) {
			return false
		}
		out[src] = append(out[src], dst)
		if s, ok := sets[src]; ok {
			s[dst] = struct{}{}
		} else if len(out[src]) == setThreshold {
			s = make(map[graph.NodeID]struct{}, 2*setThreshold)
			for _, v := range out[src] {
				s[v] = struct{}{}
			}
			sets[src] = s
		}
		return true
	}

	// social marks edges formed through a genuine social pick (local or
	// triadic): friends respond to friends even when otherwise inactive,
	// so the casual-response penalty only applies to strangers found via
	// preferential attachment. Members of the same community add each
	// other back at a high flat rate — the offline-friendship signature
	// that keeps ordinary users' RR high (Figure 4a).
	const communityResponse = 0.88
	reciprocate := func(src, dst graph.NodeID, typeProb float64, social bool) {
		p := typeProb
		if u.Celebrity[dst] {
			p = cfg.ReciprocationCelebrity
		} else if communityOf[src] == communityOf[dst] {
			if p < communityResponse {
				p = communityResponse
			}
		} else if casual[dst] && !social {
			p *= cfg.CasualResponse
		}
		if rng.Float64() >= p {
			return
		}
		if !u.Celebrity[dst] && len(out[dst]) >= cfg.OutDegreeCap {
			return
		}
		addEdge(dst, src)
	}

	for i := 0; i < n; i++ {
		src := graph.NodeID(i)
		d := outDeg[i]
		paShare := paShareFor(cfg, d)
		country := members[u.HomeCountry[i]]
		comm := community[communityOf[i]]
		homeChooser := domestic[u.HomeCountry[i]]
		homeMembers := domesticMembers[u.HomeCountry[i]]
		paDomestic := cfg.PADomestic
		affinity, hasAffinity := crossCountryAffinity[u.HomeCountry[i]]
		var abroadMembers []graph.NodeID
		if hasAffinity {
			paDomestic = affinity.PADomestic
			abroadMembers = members[affinity.Target]
		}
		pickPA := func() graph.NodeID {
			if homeChooser != nil && rng.Float64() < paDomestic {
				return homeMembers[homeChooser.Choose(rng)]
			}
			return graph.NodeID(global.Choose(rng))
		}
		for s := 0; s < d; s++ {
			// A duplicate or self pick retries a few times, falling back
			// to a global pick so heavy users are not starved when their
			// community is exhausted.
			for attempt := 0; attempt < 4; attempt++ {
				var dst graph.NodeID
				var typeProb float64
				social := false
				r := rng.Float64()
				switch {
				case attempt == 3:
					dst = pickPA()
					typeProb = cfg.ReciprocationGlobal
				case r >= paShare && rng.Float64() < cfg.TriadicShare && len(out[i]) > 0:
					// Triadic: a friend of a friend.
					w := out[i][rng.IntN(len(out[i]))]
					if len(out[w]) == 0 {
						dst = pickPA()
						typeProb = cfg.ReciprocationGlobal
					} else {
						dst = out[w][rng.IntN(len(out[w]))]
						typeProb = cfg.ReciprocationTriadic
						social = true
					}
				case r >= paShare && len(country) > 1:
					// Local: usually within the community, sometimes
					// anywhere in the country — or, for countries with a
					// strong cultural tie abroad (GB/CA toward the US), a
					// genuine transnational friendship.
					switch {
					case hasAffinity && len(abroadMembers) > 0 && rng.Float64() < affinity.LocalAbroad:
						dst = abroadMembers[rng.IntN(len(abroadMembers))]
					case len(comm) > 1 && rng.Float64() < cfg.CommunityAffinity:
						dst = comm[rng.IntN(len(comm))]
					default:
						dst = country[rng.IntN(len(country))]
					}
					typeProb = cfg.ReciprocationLocal
					social = true
				default:
					// Global: preferential attachment on attractiveness,
					// partially biased toward domestic stars.
					dst = pickPA()
					typeProb = cfg.ReciprocationGlobal
				}
				if !addEdge(src, dst) {
					continue
				}
				reciprocate(src, dst, typeProb, social)
				break
			}
		}
	}

	var edges int
	for i := range out {
		edges += len(out[i])
	}
	b := graph.NewBuilder(n, edges)
	for i, adj := range out {
		for _, v := range adj {
			b.AddEdge(graph.NodeID(i), v)
		}
	}
	u.Graph = b.Build()

	for i := range u.Profiles {
		u.Profiles[i].DeclaredInDegree = u.Graph.InDegree(graph.NodeID(i))
		u.Profiles[i].DeclaredOutDegree = u.Graph.OutDegree(graph.NodeID(i))
	}

	// Anyone who ends up among the most-followed users — globally or
	// within their country — is a public figure with a coded occupation,
	// whether or not they were seeded as a celebrity: neither Table 1 nor
	// Table 5 has anonymous entries.
	choosers := buildOccupationChoosers()
	codeOccupation := func(node graph.NodeID) {
		p := &u.Profiles[node]
		if p.Occupation == profile.OccupationOther {
			p.Public = p.Public.With(profile.AttrOccupation)
			p.Occupation = sampleOccupation(u.HomeCountry[node], true, choosers, rng)
		}
	}
	for _, node := range graph.TopByInDegree(u.Graph, 100, 1) {
		codeOccupation(node)
	}
	// Top located users per country (Table 5's ranking population).
	type ranked struct {
		node graph.NodeID
		deg  int
	}
	topLocated := make(map[string][]ranked)
	for i := range u.Profiles {
		if !u.Profiles[i].HasLocation() {
			continue
		}
		c := u.HomeCountry[i]
		topLocated[c] = append(topLocated[c], ranked{graph.NodeID(i), u.Graph.InDegree(graph.NodeID(i))})
	}
	for _, cw := range countryMixture {
		list := topLocated[cw.code]
		sort.Slice(list, func(a, b int) bool {
			if list[a].deg != list[b].deg {
				return list[a].deg > list[b].deg
			}
			return list[a].node < list[b].node
		})
		for i := 0; i < len(list) && i < 20; i++ {
			codeOccupation(list[i].node)
		}
	}
}

// paShareFor returns the preferential-attachment share of the stub mix
// for a user with drawn out-degree d: PAShareMin for light users, rising
// steeply toward PAShareMax once d passes SocialDegree. The saturation is
// deliberately fast — the stub mass of a power-law out-degree sequence is
// dominated by heavy adders, and it is their one-way follows that pull
// the global edge reciprocity down to the paper's 32% while light users
// keep high per-node RR.
func paShareFor(cfg Config, d int) float64 {
	k := float64(cfg.SocialDegree)
	dd := float64(d)
	if dd < k {
		dd = k
	}
	frac := 1 - math.Pow(k/dd, 1.5)
	return cfg.PAShareMin + (cfg.PAShareMax-cfg.PAShareMin)*frac
}
