package gplusapi

import (
	"reflect"
	"testing"
)

// FuzzToProfile checks the wire-to-model conversion tolerates arbitrary
// field codes and labels.
func FuzzToProfile(f *testing.F) {
	f.Add("name", "Male", "Single", "IT")
	f.Add("", "", "", "")
	f.Add("work_contact", "Blorp", "Whatever", "zz")
	f.Fuzz(func(t *testing.T, field, gender, rel, occ string) {
		doc := ProfileDoc{
			ID:           "1x",
			Name:         "n",
			Fields:       []string{field},
			Gender:       gender,
			Relationship: rel,
			Occupation:   occ,
		}
		p := doc.ToProfile()
		// Unknown inputs must degrade to zero values, never panic.
		if p.Public.Count() > 1 {
			t.Fatalf("one field code produced %d public attrs", p.Public.Count())
		}
		_ = p.IsTelUser()
		// Round-tripping the parsed profile must be stable.
		back := FromProfile(doc.ID, &p)
		p2 := back.ToProfile()
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("profile round trip unstable:\n %+v\n %+v", p, p2)
		}
	})
}
