package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gplus/internal/geo"
	"gplus/internal/graph"
	"gplus/internal/profile"
)

// goldenDir is a 64-user dataset in the current layout, written by an
// earlier build; nothing in the repo regenerates it.
const goldenDir = "testdata/golden"

// referenceRecord, referenceWrite and referenceRead are the profile
// column as reflection-driven encoding/json wrote and read it before the
// wire codec: the oracle the codec's column must equal byte for byte and
// value for value.
type referenceRecord struct {
	referenceDoc
	Crawled bool `json:"crawled"`
}

// referenceDoc and referencePlace are the profile document through
// encoding/json's struct tags; referenceDocOf and
// (*referenceDoc).profile convert between it and the model, as the
// column did before gplusapi.AppendProfile and gplusapi.DecodeProfile.
type referenceDoc struct {
	ID             string          `json:"id"`
	Name           string          `json:"name"`
	Fields         []string        `json:"fields"`
	Gender         string          `json:"gender,omitempty"`
	Relationship   string          `json:"relationship,omitempty"`
	PlacesLived    []string        `json:"placesLived,omitempty"`
	Place          *referencePlace `json:"place,omitempty"`
	Occupation     string          `json:"occupation,omitempty"`
	InCircleCount  int             `json:"inCircleCount"`
	OutCircleCount int             `json:"outCircleCount"`
}

type referencePlace struct {
	Name    string  `json:"name"`
	Lat     float64 `json:"lat"`
	Lon     float64 `json:"lon"`
	Country string  `json:"country,omitempty"`
}

// referenceDocOf is the public view of user id's profile p.
func referenceDocOf(id string, p *profile.Profile) referenceDoc {
	d := referenceDoc{ID: id, Name: p.Name, InCircleCount: p.DeclaredInDegree, OutCircleCount: p.DeclaredOutDegree}
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
		d.Place = &referencePlace{Name: p.Place, Lat: p.Loc.Lat, Lon: p.Loc.Lon, Country: p.CountryCode}
	}
	if p.Public.Has(profile.AttrOccupation) {
		d.Occupation = p.Occupation.Code()
	}
	return d
}

// profile reads d into the model, taking a value only when d also lists
// its field as public.
func (d *referenceDoc) profile() profile.Profile {
	p := profile.Profile{Name: d.Name, DeclaredInDegree: d.InCircleCount, DeclaredOutDegree: d.OutCircleCount}
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
			p.Place, p.CountryCode = d.Place.Name, d.Place.Country
			p.Loc = geo.Point{Lat: d.Place.Lat, Lon: d.Place.Lon}
		}
	}
	return p
}

func referenceWrite(w io.Writer, d *Dataset) error {
	enc := json.NewEncoder(w)
	for i := range d.IDs {
		rec := referenceRecord{referenceDoc: referenceDocOf(d.IDs[i], &d.Profiles[i]), Crawled: d.Crawled[i]}
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return nil
}

func referenceRead(r io.Reader) (*Dataset, error) {
	d := &Dataset{}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(nil, 1<<30)
	for line := 1; scanner.Scan(); line++ {
		var rec referenceRecord
		if err := json.Unmarshal(scanner.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if rec.ID == "" {
			return nil, fmt.Errorf("line %d: record without id", line)
		}
		d.IDs = append(d.IDs, rec.ID)
		d.Profiles = append(d.Profiles, rec.profile())
		d.Crawled = append(d.Crawled, rec.Crawled)
	}
	return d, scanner.Err()
}

// oneByteReader hands out its input a byte per Read, so every chunk
// boundary logic in readProfiles sees short reads.
type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) { return o.r.Read(p[:min(len(p), 1)]) }

func sameColumns(a, b *Dataset) bool {
	return reflect.DeepEqual(a.IDs, b.IDs) && reflect.DeepEqual(a.Profiles, b.Profiles) && reflect.DeepEqual(a.Crawled, b.Crawled)
}

// TestProfileColumnMatchesEncodingJSON reads the golden columns (bytes
// no current writer influences), a crawled one and a hostile one with
// the codec at several parallelisms and holds the columns to what
// encoding/json reads; then writes them back and holds the bytes to
// what encoding/json writes.
func TestProfileColumnMatchesEncodingJSON(t *testing.T) {
	columns := map[string][]byte{}
	var err error
	if columns["golden"], err = os.ReadFile(filepath.Join(goldenDir, profilesFile)); err != nil {
		t.Fatal(err)
	}
	_, res := fixtures(t)
	var crawled bytes.Buffer
	if err := FromCrawl(res).writeProfiles(&crawled); err != nil {
		t.Fatal(err)
	}
	columns["crawled"] = crawled.Bytes()
	// Several chunks' worth, so ranges and carried partial lines are in play.
	columns["3 MiB"] = bytes.Repeat(columns["golden"], 3*profileChunk/len(columns["golden"])+1)
	columns["no final newline"] = bytes.TrimSuffix(columns["golden"], []byte("\n"))
	// Canonical lines, as the writer writes them, holding what strings
	// and values can hold: escapes, runes, every valued field listed,
	// listed fields left without a value, extreme counts.
	columns["hostile"] = []byte(strings.Join([]string{
		`{"id":"a","name":"\u003cb\u003e\u0026amp;\u003c/b\u003e \u2028\u2029 ` + "caf\u00e9 \U0001F600 \ufffd" + `","fields":["name","places_lived"],"placesLived":["x\ty","\"q\""],"place":{"name":"\"q\"","lat":1e-7,"lon":-1e+21},"inCircleCount":3,"outCircleCount":4,"crawled":true}`,
		`{"id":"b","name":"","fields":["gender","places_lived","occupation","relationship"],"gender":"Female","relationship":"Single","placesLived":["p"],"place":{"name":"p","lat":1,"lon":2,"country":"BR"},"occupation":"IT","inCircleCount":0,"outCircleCount":0,"crawled":false}`,
		`{"id":"c","name":"n","fields":["gender","places_lived","relationship"],"placesLived":["p","q"],"place":{"name":"q","lat":0,"lon":0},"inCircleCount":-1,"outCircleCount":9223372036854775807,"crawled":false}`,
		`{"id":"d","name":"ctl \u0000\u001f\b\f\n\r","fields":null,"inCircleCount":0,"outCircleCount":0,"crawled":true}`,
		`{"id":"e","name":"","fields":["name","work_contact","home_contact"],"inCircleCount":0,"outCircleCount":0,"crawled":true}`,
	}, "\n") + "\n")

	for name, raw := range columns {
		want, err := referenceRead(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: reference reader: %v", name, err)
		}
		for _, par := range []int{1, 2, 3, 8} {
			got := &Dataset{}
			if err := got.readProfiles(bytes.NewReader(raw), int64(len(raw))*int64(par%2), par); err != nil {
				t.Fatalf("%s, P=%d: %v", name, par, err)
			}
			if !sameColumns(got, want) {
				t.Fatalf("%s, P=%d: columns differ from encoding/json's", name, par)
			}
		}
		got := &Dataset{}
		if err := got.readProfiles(oneByteReader{bytes.NewReader(raw)}, 0, 2); err != nil || !sameColumns(got, want) {
			t.Fatalf("%s read a byte at a time: err %v, same columns %v", name, err, err == nil)
		}

		var wantBytes, gotBytes bytes.Buffer
		if err := referenceWrite(&wantBytes, want); err != nil {
			t.Fatal(err)
		}
		if err := want.writeProfiles(&gotBytes); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
			t.Fatalf("%s: written column differs from encoding/json's", name)
		}
		if name == "golden" && !bytes.Equal(gotBytes.Bytes(), raw) {
			t.Error("the golden column does not re-save to its own bytes")
		}
	}
}

// TestReadProfilesReportsLowestFailingLine breaks several lines of a
// multi-chunk column: whatever the parallelism, the error names the
// first, as a serial reader's would.
func TestReadProfilesReportsLowestFailingLine(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join(goldenDir, profilesFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(bytes.Repeat(golden, 2*profileChunk/len(golden)), []byte("\n")), []byte("\n"))
	breakLine := func(n int, with string) { lines[n-1] = []byte(with) }
	cases := []struct {
		name  string
		setup func()
		want  string
	}{
		{"late syntax error", func() {
			breakLine(len(lines)-3, `{"id":"x","name":"","fields":null,"inCircleCount":0,"outCircleCount":0,"crawled":true,}`)
		}, fmt.Sprintf("line %d: crawled is true,", len(lines)-3)},
		{"second chunk", func() {
			breakLine(len(lines)/2+500, `{"id":"x","name":"","fields":null,"inCircleCount":0,"outCircleCount":0,"crawled":1}`)
		}, fmt.Sprintf("line %d: crawled is 1", len(lines)/2+500)},
		{"empty line", func() { breakLine(4000, ``) }, "line 4000:"},
		{"no id", func() {
			breakLine(700, `{"id":"","name":"anonymous","fields":null,"inCircleCount":0,"outCircleCount":0,"crawled":true}`)
		}, "line 700: record without id"},
		{"type mismatch", func() {
			breakLine(31, `{"id":"x","name":"","fields":null,"inCircleCount":1.5,"outCircleCount":0,"crawled":true}`)
		}, "line 31: gplusapi: invalid document at byte 50:"},
		{"first line", func() { breakLine(1, `[]`) }, "line 1:"},
	}
	for _, c := range cases { // cumulative: each adds an earlier failure
		c.setup()
		raw := append(bytes.Join(lines, []byte("\n")), '\n')
		if _, err := referenceRead(bytes.NewReader(raw)); err == nil || !strings.HasPrefix(err.Error(), strings.SplitN(c.want, ":", 2)[0]+":") {
			t.Fatalf("%s: reference reader says %v, test expects %q", c.name, err, c.want)
		}
		for _, par := range []int{1, 2, 5} {
			err := (&Dataset{}).readProfiles(bytes.NewReader(raw), int64(len(raw)), par)
			if err == nil || !strings.HasPrefix(err.Error(), c.want) {
				t.Errorf("%s, P=%d: error %v, want prefix %q", c.name, par, err, c.want)
			}
		}
	}
}

// TestLongProfileRecordRoundTrips is the regression test for the 16 MiB
// line cap the bufio.Scanner reader had: a record SaveV2 wrote without
// complaint came back as "token too long" on Load.
func TestLongProfileRecordRoundTrips(t *testing.T) {
	long := strings.Repeat("a very long place name ", (17<<20)/23)
	public := profile.AttrSet(0).With(profile.AttrName).With(profile.AttrPlacesLived)
	d := &Dataset{
		g:   graph.NewBuilder(3, 0).Build(),
		IDs: []string{"before", "long", "after"},
		Profiles: []profile.Profile{
			{Name: "b", Public: public},
			{Name: "l", Public: public, PlacesLived: []string{"short", long}, Place: long, CountryCode: "XX"},
			{Name: "a", Public: public, DeclaredInDegree: 7},
		},
		Crawled: []bool{true, true, false},
	}
	dir := filepath.Join(t.TempDir(), "ds")
	if err := d.SaveV2(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadWith(dir, Options{})
	if err != nil {
		t.Fatalf("Load of a dataset with a %d MiB record: %v", len(long)>>20, err)
	}
	if !sameColumns(got, d) {
		t.Error("columns differ after the round trip")
	}
}

// TestNodeOfBuildsIndexOnFirstUse: a loaded dataset resolves ids (the
// index is built lazily now) and concurrent first callers agree.
func TestNodeOfBuildsIndexOnFirstUse(t *testing.T) {
	d, err := LoadWith(goldenDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.index != nil {
		t.Fatal("Load built the id index nobody asked for")
	}
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func() {
			ok := true
			for i, id := range d.IDs {
				n, found := d.NodeOf(id)
				ok = ok && found && int(n) == i
			}
			_, ghost := d.NodeOf("nobody")
			done <- ok && !ghost
		}()
	}
	for w := 0; w < 4; w++ {
		if !<-done {
			t.Error("NodeOf misresolved an id")
		}
	}
}
