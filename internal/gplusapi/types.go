// Package gplusapi defines the wire protocol between the gplusd service
// simulator and the crawler: the JSON documents served for profile pages
// and paginated circle lists, plus an HTTP client with retry/backoff.
package gplusapi

import (
	"gplus/internal/geo"
	"gplus/internal/profile"
)

// CircleDir selects which circle list of a user to page through.
type CircleDir string

// The two public circle lists of a profile page (§2.1): "in" is the
// "Have user in circles" list (followers); "out" is "In user's circles"
// (followees).
const (
	CircleIn  CircleDir = "in"
	CircleOut CircleDir = "out"
)

// ProfileDoc is the JSON document served for a public profile page. Only
// publicly visible fields are populated, exactly as the live service
// exposed them to the paper's crawler.
type ProfileDoc struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// Fields lists the wire codes of the publicly visible attributes.
	Fields []string `json:"fields"`
	// Gender and Relationship carry the restricted-field labels when
	// public.
	Gender       string `json:"gender,omitempty"`
	Relationship string `json:"relationship,omitempty"`
	// PlacesLived lists every place the user has lived, when public; the
	// last entry is the current location (which Place geocodes).
	PlacesLived []string `json:"placesLived,omitempty"`
	// Place is the geocoded last "places lived" entry when public.
	Place *PlaceDoc `json:"place,omitempty"`
	// Occupation is the Table 5 occupation code when public.
	Occupation string `json:"occupation,omitempty"`
	// InCircleCount and OutCircleCount are the circle counts displayed on
	// the profile page. They reflect the true totals even when the circle
	// lists are truncated at the service cap, which is what lets the
	// crawler estimate lost edges (§2.2).
	InCircleCount  int `json:"inCircleCount"`
	OutCircleCount int `json:"outCircleCount"`
}

// PlaceDoc is the geocoded "places lived" marker: the free-text entry
// plus the map coordinates and country the service's geocoder resolved.
type PlaceDoc struct {
	Name    string  `json:"name"`
	Lat     float64 `json:"lat"`
	Lon     float64 `json:"lon"`
	Country string  `json:"country,omitempty"`
}

// CirclePage is one page of a circle list.
type CirclePage struct {
	IDs           []string `json:"ids"`
	NextPageToken string   `json:"nextPageToken,omitempty"`
}

// StatsDoc is the ground-truth summary served at /stats, used by tests
// and the crawl report to compare against what was collected.
type StatsDoc struct {
	Users int   `json:"users"`
	Edges int64 `json:"edges"`
}

// SeedDoc is served at /seed: the id of a well-known popular user to
// start a crawl from (the paper seeded its BFS at Mark Zuckerberg's
// profile, one of the most popular accounts at collection time).
type SeedDoc struct {
	ID string `json:"id"`
}

// ToProfile converts a wire document back into the analysis model.
// Values are only taken for fields the document also lists as public;
// an inconsistent document (value present, field not listed) degrades to
// the private view rather than leaking the value. DecodeProfile applies
// the same rule while it scans; ToProfile is the reference the tests
// hold it to.
func (d *ProfileDoc) ToProfile() profile.Profile {
	p := profile.Profile{
		Name:              d.Name,
		DeclaredInDegree:  d.InCircleCount,
		DeclaredOutDegree: d.OutCircleCount,
	}
	for _, code := range d.Fields {
		if a, ok := profile.AttrFromWireCode(code); ok {
			p.Public = p.Public.With(a)
		}
	}
	if p.Public.Has(profile.AttrGender) {
		p.Gender = profile.ParseGender(d.Gender)
	}
	if p.Public.Has(profile.AttrRelationship) {
		p.Relationship = profile.ParseRelationship(d.Relationship)
	}
	if p.Public.Has(profile.AttrOccupation) {
		p.Occupation = profile.ParseOccupation(d.Occupation)
	}
	if p.Public.Has(profile.AttrPlacesLived) {
		p.PlacesLived = append([]string(nil), d.PlacesLived...)
		if d.Place != nil {
			p.Place = d.Place.Name
			p.Loc = geo.Point{Lat: d.Place.Lat, Lon: d.Place.Lon}
			p.CountryCode = d.Place.Country
		}
	}
	return p
}

// FromProfile renders the public view of a profile as a wire document.
func FromProfile(id string, p *profile.Profile) ProfileDoc {
	d := ProfileDoc{
		ID:             id,
		Name:           p.Name,
		InCircleCount:  p.DeclaredInDegree,
		OutCircleCount: p.DeclaredOutDegree,
	}
	if n := p.Public.Count(); n > 0 {
		d.Fields = make([]string, 0, n)
	}
	for a := profile.Attr(0); a < profile.NumAttrs; a++ {
		if p.Public.Has(a) {
			d.Fields = append(d.Fields, a.WireCode())
		}
	}
	if p.Public.Has(profile.AttrGender) && p.Gender != profile.GenderUnknown {
		d.Gender = p.Gender.String()
	}
	if p.Public.Has(profile.AttrRelationship) && p.Relationship != profile.RelUnknown {
		d.Relationship = p.Relationship.String()
	}
	if p.Public.Has(profile.AttrPlacesLived) {
		d.PlacesLived = append([]string(nil), p.PlacesLived...)
		d.Place = &PlaceDoc{
			Name:    p.Place,
			Lat:     p.Loc.Lat,
			Lon:     p.Loc.Lon,
			Country: p.CountryCode,
		}
	}
	if p.Public.Has(profile.AttrOccupation) {
		d.Occupation = p.Occupation.Code()
	}
	return d
}
