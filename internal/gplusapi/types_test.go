package gplusapi

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"gplus/internal/geo"
	"gplus/internal/profile"
)

func samplePublicProfile() profile.Profile {
	p := profile.Profile{
		Name:              "user-0000042",
		Gender:            profile.GenderFemale,
		Relationship:      profile.RelComplicated,
		PlacesLived:       []string{"Rio de Janeiro", "Brazil"},
		Place:             "Brazil",
		Loc:               geo.Point{Lat: -19.9, Lon: -43.9},
		CountryCode:       "BR",
		Occupation:        profile.Blogger,
		DeclaredInDegree:  15000,
		DeclaredOutDegree: 120,
	}
	p.Public = p.Public.
		With(profile.AttrName).
		With(profile.AttrGender).
		With(profile.AttrRelationship).
		With(profile.AttrPlacesLived).
		With(profile.AttrOccupation).
		With(profile.AttrWorkContact)
	return p
}

func TestProfileRoundTrip(t *testing.T) {
	p := samplePublicProfile()
	data, err := AppendProfile(nil, "10000000000000000042X", &p)
	if err != nil {
		t.Fatal(err)
	}
	var (
		id  string
		got profile.Profile
	)
	if err := DecodeProfile(data, &id, &got, nil); err != nil {
		t.Fatal(err)
	}
	if id != "10000000000000000042X" || !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mismatch:\n got %q %+v\nwant %+v", id, got, p)
	}
}

// wireDoc is what encoding/json reads from the document AppendProfile
// writes for user id's profile p.
func wireDoc(t *testing.T, id string, p *profile.Profile) profileDoc {
	t.Helper()
	data, err := AppendProfile(nil, id, p)
	var d profileDoc
	if err == nil {
		err = json.Unmarshal(data, &d)
	}
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFromProfileHidesPrivateFields(t *testing.T) {
	p := samplePublicProfile()
	// Withdraw gender and places lived from the public set; the values
	// stay in the struct (the service knows them) but must not serialize.
	p.Public &^= 1<<profile.AttrGender | 1<<profile.AttrPlacesLived
	doc := wireDoc(t, "id", &p)
	if doc.Gender != "" {
		t.Errorf("private gender leaked: %q", doc.Gender)
	}
	if doc.Place != nil || doc.PlacesLived != nil {
		t.Errorf("private places leaked: %+v %q", doc.Place, doc.PlacesLived)
	}
	for _, f := range doc.Fields {
		if f == profile.AttrGender.WireCode() || f == profile.AttrPlacesLived.WireCode() {
			t.Errorf("private field %q listed", f)
		}
	}
}

func TestFromProfileFieldCodes(t *testing.T) {
	p := samplePublicProfile()
	doc := wireDoc(t, "id", &p)
	want := map[string]bool{
		"name": true, "gender": true, "relationship": true,
		"places_lived": true, "occupation": true, "work_contact": true,
	}
	if len(doc.Fields) != len(want) {
		t.Fatalf("fields = %v", doc.Fields)
	}
	for _, f := range doc.Fields {
		if !want[f] {
			t.Errorf("unexpected field code %q", f)
		}
	}
}

// TestDecodeProfileRejectsUnknownCodes: an unknown field code or label,
// or a code repeated or out of attribute order, would not re-encode to
// itself, so the decoder refuses it, naming the byte offset, rather than
// dropping it.
func TestDecodeProfileRejectsUnknownCodes(t *testing.T) {
	for doc, want := range map[string]string{
		`{"id":"x","name":"n","fields":["name","hovercraft","gender"],"inCircleCount":0,"outCircleCount":0}`:     "at byte 38: a field code the encoder does not write",
		`{"id":"x","name":"n","fields":["name","gender"],"gender":"Blorp","inCircleCount":0,"outCircleCount":0}`: "at byte 57: a gender label the encoder does not write",
		`{"id":"x","name":"n","fields":["name","name"],"inCircleCount":0,"outCircleCount":0}`:                    "at byte 38: a field code repeated or out of attribute order",
		`{"id":"x","name":"n","fields":["gender","name"],"inCircleCount":0,"outCircleCount":0}`:                  "at byte 40: a field code repeated or out of attribute order",
	} {
		var (
			id string
			p  profile.Profile
		)
		if err := DecodeProfile([]byte(doc), &id, &p, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want %q", doc, err, want)
		}
	}
}

func TestWireCodeRoundTrip(t *testing.T) {
	for _, a := range profile.AllAttrs() {
		code := a.WireCode()
		if code == "" {
			t.Fatalf("attr %v has no wire code", a)
		}
		back, ok := profile.AttrFromWireCode(code)
		if !ok || back != a {
			t.Fatalf("wire code %q round trips to %v,%v", code, back, ok)
		}
	}
	if _, ok := profile.AttrFromWireCode("bogus"); ok {
		t.Error("bogus code resolved")
	}
}

func TestParseLabels(t *testing.T) {
	if profile.ParseGender("Male") != profile.GenderMale {
		t.Error("Male did not parse")
	}
	if profile.ParseGender("") != profile.GenderUnknown {
		t.Error("empty gender should be unknown")
	}
	for _, r := range profile.Relationships() {
		if profile.ParseRelationship(r.String()) != r {
			t.Errorf("relationship %v does not round trip", r)
		}
	}
	if profile.ParseOccupation("IT") != profile.IT {
		t.Error("IT did not parse")
	}
	if profile.ParseOccupation("zz") != profile.OccupationOther {
		t.Error("unknown occupation should map to Other")
	}
}
