package gplusapi

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"gplus/internal/profile"
)

// flaggedDoc is the oracle's view of a container line: the profile
// document plus one extra member, as internal/dataset's profiles.jsonl
// has.
type flaggedDoc struct {
	ProfileDoc
	Flag bool `json:"flag"`
}

// flagHook is DecodeProfile's extra hook for flaggedDoc's member,
// with reflection's rules for a bool field.
func flagHook(flag *bool) func(key, value []byte) error {
	return func(key, value []byte) error {
		if !strings.EqualFold(string(key), "flag") {
			return nil
		}
		switch string(value) {
		case "true":
			*flag = true
		case "false":
			*flag = false
		case "null":
		default:
			return &json.UnmarshalTypeError{Value: string(value)}
		}
		return nil
	}
}

// checkDecoders holds the three decoders against json.Unmarshal on one
// input: same accept/reject, and on accept the same value.
func checkDecoders(t *testing.T, data []byte) {
	t.Helper()
	var wantDoc, gotDoc ProfileDoc
	wantErr, gotErr := json.Unmarshal(data, &wantDoc), DecodeProfileDoc(data, &gotDoc)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("ProfileDoc %q: json error %v, codec error %v", data, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(gotDoc, wantDoc) {
		t.Fatalf("ProfileDoc %q:\n  got %#v\n want %#v", data, gotDoc, wantDoc)
	}

	var wantPage, gotPage CirclePage
	wantErr, gotErr = json.Unmarshal(data, &wantPage), DecodeCirclePage(data, &gotPage)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("CirclePage %q: json error %v, codec error %v", data, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(gotPage, wantPage) {
		t.Fatalf("CirclePage %q:\n  got %#v\n want %#v", data, gotPage, wantPage)
	}

	var (
		wantLine flaggedDoc
		gotID    string
		gotP     profile.Profile
		gotFlag  bool
	)
	wantErr = json.Unmarshal(data, &wantLine)
	gotErr = DecodeProfile(data, &gotID, &gotP, flagHook(&gotFlag))
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("profile line %q: json error %v, codec error %v", data, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if wantP := wantLine.ToProfile(); gotID != wantLine.ID || gotFlag != wantLine.Flag || !reflect.DeepEqual(gotP, wantP) {
		t.Fatalf("profile line %q:\n  got %q %v %#v\n want %q %v %#v", data, gotID, gotFlag, gotP, wantLine.ID, wantLine.Flag, wantP)
	}
}

// checkEncoders holds the two encoders against json.Marshal on one
// document each: the same bytes, or both fail.
func checkEncoders(t *testing.T, d *ProfileDoc, p *CirclePage) {
	t.Helper()
	want, wantErr := json.Marshal(d)
	got, gotErr := AppendProfileDoc(nil, d)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("ProfileDoc %#v: json error %v, codec error %v", d, wantErr, gotErr)
	}
	if wantErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("ProfileDoc %#v:\n  got %s\n want %s", d, got, want)
	}
	want, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendCirclePage(nil, p); !bytes.Equal(got, want) {
		t.Fatalf("CirclePage %#v:\n  got %s\n want %s", p, got, want)
	}
}

// wireSeeds are inputs that separate a JSON decoder that agrees with
// encoding/json from one that merely parses JSON.
var wireSeeds = []string{
	// canonical documents
	`{"id":"100395976873873252658","name":"user-0000000","fields":["name","gender","occupation"],"gender":"Male","occupation":"Jo","inCircleCount":4,"outCircleCount":7,"flag":true}`,
	`{"id":"1","name":"n","fields":["name","gender","places_lived","relationship"],"gender":"Female","relationship":"It's complicated","placesLived":["A","B"],"place":{"name":"B","lat":-33.776047103969695,"lon":-70.57200261450315,"country":"XX"},"occupation":"Bl","inCircleCount":21,"outCircleCount":30,"flag":false}`,
	`{"ids":["1","2","3"],"nextPageToken":"1000"}`,
	`{"ids":[]}`, `{"ids":null}`, `{}`, `null`, ` null `, "\t{ }\r\n",
	// key case and Unicode folding (long s, Kelvin sign), escaped keys
	`{"ID":"a","NAME":"b","Fields":["name"],"PLACESLIVED":["x"],"Flag":true}`,
	"{\"field\u017f\":[\"gender\"],\"id\u017f\":[\"1\"],\"nextPageTo\u212aen\":\"t\",\"relation\u017fhip\":\"Single\"}",
	`{"\u0069d":"escaped key","n\u0061me":"x","\u0046LAG":true,"fl\u0061g":"no"}`,
	`{"id":"exact wins","Id":"then the fold"}`,
	// duplicate members: scalars overwrite, arrays reuse storage, objects merge
	`{"id":"a","id":"b","id":null,"inCircleCount":1,"inCircleCount":2}`,
	`{"fields":["name","gender"],"gender":"Male","fields":[null]}`,
	`{"ids":["a","b","c"],"ids":["x"],"ids":[null,null]}`,
	`{"ids":["a"],"ids":[],"ids":[null]}`,
	`{"fields":["gender"],"fields":null,"fields":[null],"gender":"Male"}`,
	`{"fields":["places_lived"],"place":{"name":"a","lat":1},"place":{"lon":2}}`,
	`{"fields":["places_lived"],"place":{"name":"a"},"place":null,"placesLived":["p"],"placesLived":[null,"q"]}`,
	`{"flag":true,"fields":[],"fields":[],"flag":null}`,
	// nulls everywhere
	`{"id":null,"name":null,"fields":null,"gender":null,"placesLived":null,"place":null,"inCircleCount":null,"flag":null}`,
	`{"fields":[null,"name",null],"placesLived":[null],"ids":[null]}`,
	`{"place":{"name":null,"lat":null,"lon":null,"country":null}}`,
	`{"fields":["places_lived"],"place":{}}`, `{"fields":["places_lived"],"placesLived":[],"place":{"country":"BR"}}`,
	// values present but not listed as public
	`{"fields":["name"],"gender":"Male","relationship":"Single","occupation":"IT","placesLived":["x"],"place":{"name":"x"}}`,
	`{"fields":["hovercraft","gender"],"gender":"Blorp","occupation":"zz"}`,
	// string escapes, surrogates, invalid UTF-8, characters the encoder escapes
	`{"id":"tab\there","name":"q\"b\\s\/\b\f\n\r"}`,
	`{"id":"\u00e9\u2028\u2029","name":"\ud83d\ude00 \uD83D\uDE00"}`,
	`{"id":"\ud800","name":"\udc00\ud800","gender":"\ud800\u0041","relationship":"\ud800\ud800\udc00"}`,
	`{"id":"\ud800\u","name":"x"}`, `{"id":"\u12"}`, `{"id":"\uZZZZ"}`, `{"id":"\x"}`, `{"id":"\'"}`, `{"id":"\`,
	"{\"id\":\"caf\xc3\xa9 \xff\xfe \xe2\x80\",\"name\":\"<a href='x'>&amp;</a>\"}",
	"{\"id\":\"ctl\x01\"}", "{\"id\":\"nl\n\"}", "{\"id\":\"del\x7f\"}", "{\"\xff\":1,\"id\":\"k\"}",
	// numbers into the int and float fields
	`{"inCircleCount":1e2}`, `{"inCircleCount":1.0}`, `{"inCircleCount":-0}`, `{"inCircleCount":-7}`,
	`{"inCircleCount":9223372036854775807}`, `{"inCircleCount":9223372036854775808}`, `{"inCircleCount":-9223372036854775808}`,
	`{"inCircleCount":123456789}`, `{"inCircleCount":1234567890}`, `{"inCircleCount":01}`, `{"inCircleCount":-}`, `{"inCircleCount":"1"}`,
	`{"place":{"lat":1e2,"lon":-0.0}}`, `{"place":{"lat":1E+2,"lon":1e-400}}`, `{"place":{"lat":1e999}}`,
	`{"place":{"lat":1.}}`, `{"place":{"lat":.5}}`, `{"place":{"lat":1e}}`, `{"place":{"lat":+1}}`, `{"place":{"lat":0x10}}`,
	// type mismatches
	`{"id":1}`, `{"id":true}`, `{"id":[]}`, `{"id":{}}`, `{"fields":"name"}`, `{"fields":{}}`, `{"fields":[1]}`, `{"fields":[[]]}`,
	`{"place":[]}`, `{"place":"x"}`, `{"place":1}`, `{"ids":"1"}`, `{"ids":[{}]}`, `{"nextPageToken":5}`, `{"flag":1}`, `{"flag":"true"}`, `{"flag":[]}`,
	`[]`, `"doc"`, `1`, `true`, `[{"id":"x"}]`,
	// syntax: trailing data, missing pieces, bad literals
	`{"id":"a"} x`, `{"id":"a"}{"id":"b"}`, `{"id":"a"},`, `{"id":"a",}`, `{,}`, `{"id"}`, `{"id":}`, `{"id" "a"}`, `{id:"a"}`,
	`{"id":"a"`, `{"id":"a`, `{`, ``, ` `, `nul`, `nulll`, `{"x":tru}`, `{"x":falsey}`, `{"x":nil}`, `{"ids":["a",]}`, `{"ids":["a" "b"]}`, `{"ids":[`,
	"\xef\xbb\xbf{}", `{"a":1}}`, `{"x":1 2}`, `{"x":-0.0e-0}`, `{"x":12a}`,
	// unknown members: skipped whole, still syntax-checked
	`{"x":{"a":[1,2,{"b":null}],"c":"\u00e9"},"id":"after"}`, `{"x":[1,"\x"],"id":"after"}`, `{"x":{"a":1,},"id":"after"}`,
	`{"x":[[[[[[[[]]]]]]]],"crawled":true}`, `{"place":{"x":{"y":[1e5,-2]},"name":"n"}}`,
	`{"x":"]","ids":["a]","b,c,d"],"y":","}`,
}

// deepValue is an unknown member nesting n arrays.
func deepValue(n int) string {
	return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"id":"deep"}`
}

func TestWireCodecAgreesWithEncodingJSON(t *testing.T) {
	for _, seed := range wireSeeds {
		checkDecoders(t, []byte(seed))
	}
	// encoding/json nests 10 000 levels and rejects the next.
	for _, n := range []int{maxDepth - 2, maxDepth - 1, maxDepth, maxDepth + 1} {
		checkDecoders(t, []byte(deepValue(n)))
	}
	checkDecoders(t, []byte(`{"place":{"x":`+strings.Repeat("[", maxDepth-2)+strings.Repeat("]", maxDepth-2)+`}}`))
	checkDecoders(t, []byte(`{"place":{"x":`+strings.Repeat("[", maxDepth-1)+strings.Repeat("]", maxDepth-1)+`}}`))

	odd := []string{"", "plain", "<script>&amp;</script>", "line\u2028sep\u2029", "q\"b\\s/", "\x00\x01\b\f\n\r\t\x1f\x7f", "caf\u00e9", "\xff\xc3", "\xe2\x80", "\U0001F600"}
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21, 1.5e300, 5e-324, 123456789.125, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i, s := range odd {
		for j, f := range floats {
			d := &ProfileDoc{ID: s, Name: odd[(i+1)%len(odd)], Fields: odd[:i], Gender: s, Relationship: odd[(i+2)%len(odd)], Occupation: s, InCircleCount: i - 3, OutCircleCount: j << 40}
			if j%2 == 0 {
				d.PlacesLived = odd[i:]
				d.Place = &PlaceDoc{Name: s, Lat: f, Lon: floats[(j+1)%len(floats)], Country: odd[(i+3)%len(odd)]}
			}
			checkEncoders(t, d, &CirclePage{IDs: d.Fields, NextPageToken: s})
		}
	}
	checkEncoders(t, &ProfileDoc{Fields: []string{}, PlacesLived: []string{}, Place: &PlaceDoc{}}, &CirclePage{IDs: []string{}})
}

// FuzzWireCodec is the codec's contract: for arbitrary bytes the
// decoders and json.Unmarshal agree on accept/reject and on the value;
// for arbitrary documents the encoders and json.Marshal agree on every
// byte. What decodes is also re-encoded and decoded again.
func FuzzWireCodec(f *testing.F) {
	for _, seed := range wireSeeds {
		f.Add([]byte(seed), "name", "<i>&", 1e-7, 1e21)
	}
	f.Add([]byte(deepValue(64)), "line\u2028sep\u2029", "\xff\x00", math.Copysign(0, -1), math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, a, b string, lat, lon float64) {
		checkDecoders(t, data)

		d := &ProfileDoc{ID: a, Name: b, Fields: strings.Split(a, "e"), Gender: b, Relationship: a, PlacesLived: strings.Split(b, " "),
			Place: &PlaceDoc{Name: a, Lat: lat, Lon: lon, Country: b}, Occupation: b, InCircleCount: len(data), OutCircleCount: -len(a)}
		checkEncoders(t, d, &CirclePage{IDs: d.PlacesLived, NextPageToken: a})

		var doc ProfileDoc
		var page CirclePage
		if json.Unmarshal(data, &doc) == nil && json.Unmarshal(data, &page) == nil {
			checkEncoders(t, &doc, &page)
			enc, err := AppendProfileDoc(nil, &doc)
			if err != nil {
				t.Fatal(err)
			}
			checkDecoders(t, enc)
			checkDecoders(t, AppendCirclePage(nil, &page))
		}
	})
}

func TestDecodeDoesNotAliasInput(t *testing.T) {
	data := []byte(`{"ids":["111","222"],"nextPageToken":"333","id":"444","name":"555","fields":["name","zzz"],"placesLived":["666"],"place":{"name":"777","country":"88"}}`)
	var page CirclePage
	var doc ProfileDoc
	var id string
	var p profile.Profile
	if err := DecodeCirclePage(data, &page); err != nil {
		t.Fatal(err)
	}
	if err := DecodeProfileDoc(data, &doc); err != nil {
		t.Fatal(err)
	}
	if err := DecodeProfile(data, &id, &p, nil); err != nil {
		t.Fatal(err)
	}
	wantPage, wantDoc := CirclePage{IDs: []string{"111", "222"}, NextPageToken: "333"}, doc
	wantDoc.Fields, wantDoc.PlacesLived = []string{"name", "zzz"}, []string{"666"}
	place := *doc.Place
	wantDoc.Place = &place
	for i := range data {
		data[i] = '!' // the pooled buffer goes back to its pool
	}
	if !reflect.DeepEqual(page, wantPage) {
		t.Errorf("page aliases its input: %#v", page)
	}
	if doc.ID != "444" || doc.Name != "555" || doc.Fields[1] != "zzz" || doc.PlacesLived[0] != "666" || doc.Place.Name != "777" || doc.Place.Country != "88" {
		t.Errorf("document aliases its input: %#v", doc)
	}
	if id != "444" || p.Name != "555" {
		t.Errorf("profile aliases its input: %q %#v", id, p)
	}
}

// TestDecodeAllocs pins what a canonical document costs: the strings
// that outlive the call and the slices holding them, nothing else.
func TestDecodeAllocs(t *testing.T) {
	line := []byte(wireSeeds[1])
	var id string
	var p profile.Profile
	var flag bool
	hook := flagHook(&flag)
	// id, name, placesLived + its 2 elements, place name, country.
	if n := testing.AllocsPerRun(100, func() {
		if err := DecodeProfile(line, &id, &p, hook); err != nil {
			t.Fatal(err)
		}
	}); n > 7 {
		t.Errorf("DecodeProfile: %v allocs per line, want <= 7", n)
	}
	// The same, plus the fields slice (its codes are constants), the
	// gender, relationship and occupation labels and the PlaceDoc.
	if n := testing.AllocsPerRun(100, func() {
		var d ProfileDoc
		if err := DecodeProfileDoc(line, &d); err != nil {
			t.Fatal(err)
		}
	}); n > 12 {
		t.Errorf("DecodeProfileDoc: %v allocs per document, want <= 12", n)
	}
	buf := make([]byte, 0, 1024)
	doc := FromProfile(id, &p)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := AppendProfileDoc(buf, &doc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendProfileDoc: %v allocs per document, want 0", n)
	}
}

// BenchmarkDecodeProfile is the dataset loader's inner loop: canonical
// profiles.jsonl lines, two in three without a place as in a synthetic
// universe.
func BenchmarkDecodeProfile(b *testing.B) {
	lines := [][]byte{[]byte(wireSeeds[0]), []byte(wireSeeds[1]), []byte(wireSeeds[0])}
	var id string
	var p profile.Profile
	var flag bool
	hook := flagHook(&flag)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeProfile(lines[i%len(lines)], &id, &p, hook); err != nil {
			b.Fatal(err)
		}
	}
}
