package profile

// Wire codes: stable machine-readable identifiers used by the gplusd
// service API and the crawler. They are deliberately decoupled from the
// human-readable String() labels, which follow the paper's table text.

var attrCodes = [NumAttrs]string{
	"name", "gender", "education", "places_lived", "employment", "phrase",
	"other_profiles", "occupation", "contributor_to", "introduction",
	"other_names", "relationship", "bragging_rights", "recommended_links",
	"looking_for", "work_contact", "home_contact",
}

// WireCode returns the attribute's stable API identifier.
func (a Attr) WireCode() string {
	if a < NumAttrs {
		return attrCodes[a]
	}
	return ""
}

// AttrFromWireCode resolves an API identifier back to an attribute.
func AttrFromWireCode(code string) (Attr, bool) {
	for a, c := range attrCodes {
		if c == code {
			return Attr(a), true
		}
	}
	return 0, false
}

// ParseGender resolves a gender label as served by the API; unknown or
// empty labels map to GenderUnknown.
func ParseGender(label string) Gender {
	for g := GenderMale; g < numGenders; g++ {
		if genderNames[g] == label {
			return g
		}
	}
	return GenderUnknown
}

// ParseRelationship resolves a relationship label as served by the API;
// unknown or empty labels map to RelUnknown.
func ParseRelationship(label string) Relationship {
	for r := RelSingle; r < NumRelationships; r++ {
		if relNames[r] == label {
			return r
		}
	}
	return RelUnknown
}

// ParseOccupation resolves a Table 5 occupation code; unknown codes map
// to OccupationOther.
func ParseOccupation(code string) Occupation {
	for o, c := range occupationCodes {
		if c == code {
			return Occupation(o)
		}
	}
	return OccupationOther
}
