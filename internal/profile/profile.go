// Package profile models Google+ user profiles as the study observed
// them: the 17 public attributes of Table 2, the restricted fields
// (gender, relationship status, looking-for), per-field privacy
// visibility, and the field-count accounting rules behind Figures 2
// and 8.
package profile

import "gplus/internal/geo"

// Attr identifies one of the profile attributes of Table 2.
type Attr uint8

// The attributes of Table 2, in the paper's order.
const (
	AttrName Attr = iota
	AttrGender
	AttrEducation
	AttrPlacesLived
	AttrEmployment
	AttrPhrase
	AttrOtherProfiles
	AttrOccupation
	AttrContributorTo
	AttrIntroduction
	AttrOtherNames
	AttrRelationship
	AttrBraggingRights
	AttrRecommendedLinks
	AttrLookingFor
	AttrWorkContact
	AttrHomeContact
	NumAttrs // sentinel: number of attributes
)

var attrNames = [NumAttrs]string{
	"Name", "Gender", "Education", "Places lived", "Employment", "Phrase",
	"Other profiles", "Occupation", "Contributor to", "Introduction",
	"Other names", "Relationship", "Braggin rights", "Recommended links",
	"Looking for", "Work (contact)", "Home (contact)",
}

// String returns the paper's label for the attribute.
func (a Attr) String() string {
	if a < NumAttrs {
		return attrNames[a]
	}
	return "unknown"
}

// AllAttrs returns every attribute in Table 2 order.
func AllAttrs() []Attr {
	out := make([]Attr, NumAttrs)
	for i := range out {
		out[i] = Attr(i)
	}
	return out
}

// AttrSet is a bitmask over Attr recording which fields of a profile are
// publicly visible.
type AttrSet uint32

// Has reports whether a is in the set.
func (s AttrSet) Has(a Attr) bool { return s&(1<<a) != 0 }

// With returns the set with a added.
func (s AttrSet) With(a Attr) AttrSet { return s | 1<<a }

// Count returns the number of attributes in the set.
func (s AttrSet) Count() int {
	n := 0
	for v := uint32(s); v != 0; v &= v - 1 {
		n++
	}
	return n
}

// FieldCount returns the number of shared fields using the rule of
// Figure 2's "contabilization": the Work and Home contact fields are
// excluded so the tel-user curve is not inflated by the very fields that
// define the group.
func (s AttrSet) FieldCount() int {
	return (s &^ (1<<AttrWorkContact | 1<<AttrHomeContact)).Count()
}

// Gender is the restricted-field gender selector.
type Gender uint8

// Gender options; Table 3 buckets "Other" for the long tail.
const (
	GenderUnknown Gender = iota
	GenderMale
	GenderFemale
	GenderOther
	numGenders // sentinel (includes GenderUnknown)
)

var genderNames = [numGenders]string{"Unknown", "Male", "Female", "Other"}

// String returns the Table 3 gender label.
func (g Gender) String() string {
	if g < numGenders {
		return genderNames[g]
	}
	return "Unknown"
}

// Relationship is the restricted-field relationship-status selector with
// the nine default options listed in Table 3.
type Relationship uint8

// Relationship options in Table 3 order.
const (
	RelUnknown Relationship = iota
	RelSingle
	RelMarried
	RelInRelationship
	RelComplicated
	RelEngaged
	RelOpenRelationship
	RelWidowed
	RelDomesticPartnership
	RelCivilUnion
	NumRelationships // sentinel (includes RelUnknown)
)

var relNames = [NumRelationships]string{
	"Unknown", "Single", "Married", "In a relationship", "It's complicated",
	"Engaged", "In an open relationship", "Widowed",
	"In a domestic partnership", "In a civil union",
}

// String returns the Table 3 relationship label.
func (r Relationship) String() string {
	if r < NumRelationships {
		return relNames[r]
	}
	return "Unknown"
}

// Relationships returns the nine concrete options (excluding RelUnknown)
// in Table 3 order.
func Relationships() []Relationship {
	out := make([]Relationship, 0, NumRelationships-1)
	for r := RelSingle; r < NumRelationships; r++ {
		out = append(out, r)
	}
	return out
}

// Profile is one user profile as collected by the crawler: only publicly
// visible values are populated; Public records which fields were visible.
type Profile struct {
	// Name is always present: the name field is public by default and
	// mandatory.
	Name string
	// Public records which attributes were publicly visible.
	Public AttrSet
	// Gender is set when AttrGender is public.
	Gender Gender
	// Relationship is set when AttrRelationship is public.
	Relationship Relationship
	// PlacesLived is the full history of the "places lived" field when
	// public — users may list every place they ever lived (§4). The last
	// entry is the current location, mirrored in Place/Loc/CountryCode.
	PlacesLived []string
	// Place is the last "places lived" entry when AttrPlacesLived is
	// public (the study extracts the last location).
	Place string
	// Loc and CountryCode are the resolved coordinates and country of
	// Place; CountryCode is empty when unresolved.
	Loc         geo.Point
	CountryCode string
	// Occupation is set when AttrOccupation is public.
	Occupation Occupation
	// DeclaredInDegree and DeclaredOutDegree are the circle counts shown
	// on the profile page, which may exceed what the circle lists expose
	// because of the 10,000-entry cap (§2.2).
	DeclaredInDegree  int
	DeclaredOutDegree int
}

// IsTelUser reports whether this profile publicly shares work or home
// contact information (which includes telephone numbers) — the
// "tel-user" risk-taking class of §3.2.
func (p *Profile) IsTelUser() bool {
	return p.Public.Has(AttrWorkContact) || p.Public.Has(AttrHomeContact)
}

// HasLocation reports whether the profile shares a resolvable location.
func (p *Profile) HasLocation() bool {
	return p.Public.Has(AttrPlacesLived) && p.CountryCode != ""
}
