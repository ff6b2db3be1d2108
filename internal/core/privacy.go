package core

import (
	"sort"

	"gplus/internal/graph"
	"gplus/internal/profile"
	"gplus/internal/stats"
)

// GroupShares describes one population block of Table 3: the number of
// users disclosing the field and each option's share among them.
type GroupShares struct {
	// N is how many users disclose the field.
	N int
	// Share maps each option label to its fraction of N.
	Share map[string]float64
}

// TelUserComparison is Table 3: demographics of all users versus
// tel-users (those publicly sharing phone-bearing contact info).
type TelUserComparison struct {
	TotalAll, TotalTel               int
	GenderAll, GenderTel             GroupShares
	RelationshipAll, RelationshipTel GroupShares
	// Location blocks use the paper's five named countries plus "Other".
	LocationAll, LocationTel GroupShares
}

// table3Countries are the named rows of Table 3's location block.
var table3Countries = []string{"US", "IN", "BR", "GB", "CA"}

// TelUsers computes Table 3 over crawled profiles.
func (s *Study) TelUsers() TelUserComparison {
	cmp := TelUserComparison{
		GenderAll:       newGroupShares(),
		GenderTel:       newGroupShares(),
		RelationshipAll: newGroupShares(),
		RelationshipTel: newGroupShares(),
		LocationAll:     newGroupShares(),
		LocationTel:     newGroupShares(),
	}
	s.eachCrawled(func(node graph.NodeID) {
		p := &s.ds.Profiles[node]
		tel := p.IsTelUser()
		cmp.TotalAll++
		if tel {
			cmp.TotalTel++
		}
		if p.Public.Has(profile.AttrGender) && p.Gender != profile.GenderUnknown {
			cmp.GenderAll.add(p.Gender.String())
			if tel {
				cmp.GenderTel.add(p.Gender.String())
			}
		}
		if p.Public.Has(profile.AttrRelationship) && p.Relationship != profile.RelUnknown {
			cmp.RelationshipAll.add(p.Relationship.String())
			if tel {
				cmp.RelationshipTel.add(p.Relationship.String())
			}
		}
		if p.HasLocation() {
			label := "Other"
			for _, c := range table3Countries {
				if p.CountryCode == c {
					label = c
					break
				}
			}
			cmp.LocationAll.add(label)
			if tel {
				cmp.LocationTel.add(label)
			}
		}
	})
	for _, g := range []*GroupShares{
		&cmp.GenderAll, &cmp.GenderTel,
		&cmp.RelationshipAll, &cmp.RelationshipTel,
		&cmp.LocationAll, &cmp.LocationTel,
	} {
		g.normalize()
	}
	return cmp
}

func newGroupShares() GroupShares {
	return GroupShares{Share: make(map[string]float64)}
}

func (g *GroupShares) add(label string) {
	g.N++
	g.Share[label]++ // counts until normalize converts to fractions
}

func (g *GroupShares) normalize() {
	if g.N == 0 {
		return
	}
	for k, v := range g.Share {
		g.Share[k] = v / float64(g.N)
	}
}

// FieldCCDF is Figure 2: the CCDF of the number of profile fields shared
// by all users versus tel-users, with the contact fields excluded from
// the count.
type FieldCCDF struct {
	All, Tel []stats.Point
}

// FieldsShared computes Figure 2 over crawled profiles.
func (s *Study) FieldsShared() FieldCCDF {
	var all, tel []float64
	s.eachCrawled(func(node graph.NodeID) {
		p := &s.ds.Profiles[node]
		n := float64(p.Public.FieldCount())
		all = append(all, n)
		if p.IsTelUser() {
			tel = append(tel, n)
		}
	})
	return FieldCCDF{All: stats.CCDF(all), Tel: stats.CCDF(tel)}
}

// CountryFieldCCDF is one series of Figure 8.
type CountryFieldCCDF struct {
	Country string
	N       int
	CCDF    []stats.Point
}

// FieldsByCountry computes Figure 8: per-country CCDFs of the number of
// fields shared, over located crawled users of the given countries
// (default: the paper's top 10). Because the sample conditions on a
// public "places lived", the minimum is 2 fields (name + places lived).
func (s *Study) FieldsByCountry(countries []string) []CountryFieldCCDF {
	if len(countries) == 0 {
		countries = append([]string(nil), paperTop10...)
	}
	byCountry := make(map[string][]float64, len(countries))
	for _, c := range countries {
		byCountry[c] = nil
	}
	s.eachCrawled(func(node graph.NodeID) {
		p := &s.ds.Profiles[node]
		if !p.HasLocation() {
			return
		}
		if _, want := byCountry[p.CountryCode]; !want {
			return
		}
		byCountry[p.CountryCode] = append(byCountry[p.CountryCode], float64(p.Public.FieldCount()))
	})
	out := make([]CountryFieldCCDF, 0, len(countries))
	for _, c := range countries {
		vals := byCountry[c]
		out = append(out, CountryFieldCCDF{Country: c, N: len(vals), CCDF: stats.CCDF(vals)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Country < out[j].Country })
	return out
}

// Openness summarizes one country's Figure 8 curve as the fraction of
// its users sharing more than k fields, used to compare cultures
// ("Germany is the most conservative..."); 0 for a country with no
// located users.
func (row CountryFieldCCDF) Openness(k int) float64 {
	// CCDF points are P(X >= x); P(X > k) = P(X >= k+1).
	for _, pt := range row.CCDF {
		if pt.X >= float64(k+1) {
			return pt.Y
		}
	}
	return 0
}
