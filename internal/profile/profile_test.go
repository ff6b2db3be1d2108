package profile

import (
	"testing"
	"testing/quick"
)

func TestAttrSetBasics(t *testing.T) {
	var s AttrSet
	if s.Count() != 0 {
		t.Fatalf("empty count = %d", s.Count())
	}
	s = s.With(AttrName).With(AttrGender).With(AttrGender)
	if !s.Has(AttrName) || !s.Has(AttrGender) {
		t.Fatal("missing added attrs")
	}
	if s.Count() != 2 {
		t.Fatalf("count = %d, want 2", s.Count())
	}
}

func TestFieldCountExcludesContact(t *testing.T) {
	s := AttrSet(0).
		With(AttrName).
		With(AttrGender).
		With(AttrWorkContact).
		With(AttrHomeContact)
	if got := s.Count(); got != 4 {
		t.Errorf("Count = %d, want 4", got)
	}
	if got := s.FieldCount(); got != 2 {
		t.Errorf("FieldCount = %d, want 2 (contact fields excluded)", got)
	}
}

func TestAttrSetPropertyCountMatchesHas(t *testing.T) {
	f := func(raw uint32) bool {
		s := AttrSet(raw & (1<<NumAttrs - 1))
		n := 0
		for _, a := range AllAttrs() {
			if s.Has(a) {
				n++
			}
		}
		return n == s.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAttrNames(t *testing.T) {
	if len(AllAttrs()) != 17 {
		t.Fatalf("Table 2 has 17 attributes, got %d", len(AllAttrs()))
	}
	if AttrName.String() != "Name" {
		t.Errorf("AttrName = %q", AttrName.String())
	}
	if AttrBraggingRights.String() != "Braggin rights" { // paper's spelling
		t.Errorf("bragging rights label = %q", AttrBraggingRights.String())
	}
	if Attr(200).String() != "unknown" {
		t.Errorf("out-of-range attr label = %q", Attr(200).String())
	}
	seen := map[string]bool{}
	for _, a := range AllAttrs() {
		name := a.String()
		if name == "" || name == "unknown" || seen[name] {
			t.Errorf("bad or duplicate label %q", name)
		}
		seen[name] = true
	}
}

func TestGenderString(t *testing.T) {
	cases := map[Gender]string{
		GenderMale: "Male", GenderFemale: "Female",
		GenderOther: "Other", GenderUnknown: "Unknown",
	}
	for g, want := range cases {
		if g.String() != want {
			t.Errorf("%d.String() = %q, want %q", g, g.String(), want)
		}
	}
}

func TestRelationships(t *testing.T) {
	rels := Relationships()
	if len(rels) != 9 {
		t.Fatalf("Table 3 lists 9 relationship options, got %d", len(rels))
	}
	if rels[0] != RelSingle || rels[0].String() != "Single" {
		t.Errorf("first option = %v", rels[0])
	}
	if RelComplicated.String() != "It's complicated" {
		t.Errorf("complicated label = %q", RelComplicated.String())
	}
	if Relationship(99).String() != "Unknown" {
		t.Errorf("out-of-range relationship = %q", Relationship(99).String())
	}
}

func TestOccupationCodes(t *testing.T) {
	if Musician.Code() != "Mu" || IT.Code() != "IT" || Comedian.Code() != "Co" {
		t.Errorf("codes: Mu=%q IT=%q Co=%q", Musician.Code(), IT.Code(), Comedian.Code())
	}
	if OccupationOther.Code() != "--" {
		t.Errorf("Other code = %q", OccupationOther.Code())
	}
	if Occupation(99).Code() != "??" {
		t.Errorf("out-of-range code = %q", Occupation(99).Code())
	}
	seen := map[string]bool{}
	for o := OccupationOther; o < NumOccupations; o++ {
		c := o.Code()
		if len(c) != 2 || seen[c] {
			t.Errorf("bad or duplicate code %q for %v", c, o)
		}
		seen[c] = true
	}
}

func TestIsTelUser(t *testing.T) {
	var p Profile
	if p.IsTelUser() {
		t.Error("empty profile is not a tel-user")
	}
	p.Public = p.Public.With(AttrWorkContact)
	if !p.IsTelUser() {
		t.Error("work contact should mark a tel-user")
	}
	p.Public = AttrSet(0).With(AttrHomeContact)
	if !p.IsTelUser() {
		t.Error("home contact should mark a tel-user")
	}
}

func TestHasLocation(t *testing.T) {
	p := Profile{CountryCode: "US"}
	if p.HasLocation() {
		t.Error("country without public places-lived should not count")
	}
	p.Public = p.Public.With(AttrPlacesLived)
	if !p.HasLocation() {
		t.Error("public places lived + country should count")
	}
	p.CountryCode = ""
	if p.HasLocation() {
		t.Error("unresolved country should not count")
	}
}
