package gplusapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"gplus/internal/geo"
	"gplus/internal/profile"
)

// profileDoc and placeDoc are the profile document as encoding/json
// writes and reads it, through its struct tags: the oracle the codec is
// held to. docOf and (*profileDoc).profile are the two conversions
// between it and the model that AppendProfile and DecodeProfile each
// fuse with the codec.
type profileDoc struct {
	ID             string    `json:"id"`
	Name           string    `json:"name"`
	Fields         []string  `json:"fields"`
	Gender         string    `json:"gender,omitempty"`
	Relationship   string    `json:"relationship,omitempty"`
	PlacesLived    []string  `json:"placesLived,omitempty"`
	Place          *placeDoc `json:"place,omitempty"`
	Occupation     string    `json:"occupation,omitempty"`
	InCircleCount  int       `json:"inCircleCount"`
	OutCircleCount int       `json:"outCircleCount"`
}

type placeDoc struct {
	Name    string  `json:"name"`
	Lat     float64 `json:"lat"`
	Lon     float64 `json:"lon"`
	Country string  `json:"country,omitempty"`
}

// docOf is the document of user id's profile p: its public view.
func docOf(id string, p *profile.Profile) profileDoc {
	d := profileDoc{ID: id, Name: p.Name, InCircleCount: p.DeclaredInDegree, OutCircleCount: p.DeclaredOutDegree}
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
		d.Place = &placeDoc{Name: p.Place, Lat: p.Loc.Lat, Lon: p.Loc.Lon, Country: p.CountryCode}
	}
	if p.Public.Has(profile.AttrOccupation) {
		d.Occupation = p.Occupation.Code()
	}
	return d
}

// profile is the model's reading of d: a value is taken only when d
// also lists its field as public.
func (d *profileDoc) profile() profile.Profile {
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

// flaggedDoc is the oracle's view of a container line: the profile
// document plus one extra member, as internal/dataset's profiles.jsonl
// has.
type flaggedDoc struct {
	profileDoc
	Flag bool `json:"flag"`
}

// flagHook is DecodeProfile's extra hook for flaggedDoc's member, as
// encoding/json writes it.
func flagHook(flag *bool) func(key, value []byte) error {
	return func(key, value []byte) error {
		if string(key) != "flag" || string(value) != "true" && string(value) != "false" {
			return fmt.Errorf("member %q:%s", key, value)
		}
		*flag = string(value) == "true"
		return nil
	}
}

// checkDecoders holds each decoder to the contract on one input: what
// it accepts, json.Unmarshal accepts too and reads as the same value,
// and both json.Marshal of that value and the codec's own encoder of
// what the decoder read are the input again, less gplusd's newline. It
// reports whether any decoder accepted.
func checkDecoders(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	doc := bytes.TrimSuffix(data, []byte("\n"))
	oracle := func(what string, v any) {
		t.Helper()
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("%s %q: accepted, but json.Unmarshal says %v", what, data, err)
		}
		if enc, err := json.Marshal(v); err != nil || !bytes.Equal(enc, doc) {
			t.Fatalf("%s %q: accepted, but json.Marshal re-encodes it as %s (%v)", what, data, enc, err)
		}
		accepted = true
	}
	reencodes := func(what string, enc []byte, err error) {
		t.Helper()
		if err != nil || !bytes.Equal(enc, doc) {
			t.Fatalf("%s %q: accepted, but the encoder writes what it read as %s (%v)", what, data, enc, err)
		}
	}

	var page, wantPage CirclePage
	if DecodeCirclePage(data, &page) == nil {
		if oracle("CirclePage", &wantPage); !reflect.DeepEqual(page, wantPage) {
			t.Fatalf("CirclePage %q:\n  got %#v\n want %#v", data, page, wantPage)
		}
		reencodes("CirclePage", AppendCirclePage(nil, &page), nil)
	}

	var (
		id   string
		p    profile.Profile
		want profileDoc
	)
	if DecodeProfile(data, &id, &p, nil) == nil {
		oracle("profile", &want)
		if wantP := want.profile(); id != want.ID || !reflect.DeepEqual(p, wantP) {
			t.Fatalf("profile %q:\n  got %q %#v\n want %q %#v", data, id, p, want.ID, wantP)
		}
		enc, err := AppendProfile(nil, id, &p)
		reencodes("profile", enc, err)
	}

	var (
		flag     bool
		wantLine flaggedDoc
	)
	if DecodeProfile(data, &id, &p, flagHook(&flag)) == nil {
		oracle("profile line", &wantLine)
		if wantP := wantLine.profile(); id != wantLine.ID || flag != wantLine.Flag || !reflect.DeepEqual(p, wantP) {
			t.Fatalf("profile line %q:\n  got %q %v %#v\n want %q %v %#v", data, id, flag, p, wantLine.ID, wantLine.Flag, wantP)
		}
		enc, err := AppendProfile(nil, id, &p)
		if err == nil {
			enc = fmt.Appendf(enc[:len(enc)-1], `,"flag":%t}`, flag)
		}
		reencodes("profile line", enc, err)
	}
	return accepted
}

// checkEncoders holds the two encoders against json.Marshal, each on
// one document — user id's profile p as docOf sees it, and page — to
// the same bytes, or both fail; and the decoders to accepting what they
// write: the documents, a container line, a gplusd body. That needs
// valid UTF-8 strings: the encoder writes an invalid byte as \ufffd,
// which reads back as a different string. It needs a profile of the
// model's own values too: a label past the last of its kind is written
// as one the decoder rejects, since it would not read back as itself.
func checkEncoders(t *testing.T, id string, p *profile.Profile, page *CirclePage) {
	t.Helper()
	d := docOf(id, p)
	want, wantErr := json.Marshal(&d)
	got, gotErr := AppendProfile(nil, id, p)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("profile %q %#v: json error %v, codec error %v", id, p, wantErr, gotErr)
	}
	if wantErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("profile %q %#v:\n  got %s\n want %s", id, p, got, want)
	}
	if wantErr == nil && validUTF8(append([]string{id, p.Name, p.Place, p.CountryCode}, p.PlacesLived...)...) {
		line, err := json.Marshal(flaggedDoc{profileDoc: d, Flag: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, doc := range [][]byte{got, append(got, '\n'), line} {
			if !checkDecoders(t, doc) && known(p) {
				t.Fatalf("no decoder accepts the encoder's %q", doc)
			}
		}
	}

	want, err := json.Marshal(page)
	if err != nil {
		t.Fatal(err)
	}
	got = AppendCirclePage(nil, page)
	if !bytes.Equal(got, want) {
		t.Fatalf("CirclePage %#v:\n  got %s\n want %s", page, got, want)
	}
	if validUTF8(append([]string{page.NextPageToken}, page.IDs...)...) && !checkDecoders(t, append(got, '\n')) {
		t.Fatalf("no decoder accepts the encoder's %q", got)
	}
}

// known reports whether p holds only values the model defines, as every
// profile the pipeline writes does: no attribute bit past the last, no
// label past the last of its kind.
func known(p *profile.Profile) bool {
	return p.Public < 1<<profile.NumAttrs && p.Gender <= profile.GenderOther &&
		p.Relationship < profile.NumRelationships && p.Occupation < profile.NumOccupations
}

func validUTF8(strs ...string) bool {
	for _, s := range strs {
		if !utf8.ValidString(s) {
			return false
		}
	}
	return true
}

// canonicalSeeds are documents as the encoders write them, which the
// decoders must accept: profile documents, profiles.jsonl-style lines
// (one trailing "flag" member, flaggedDoc), circle pages, and gplusd
// bodies with their newline.
var canonicalSeeds = []string{
	`{"id":"100395976873873252658","name":"user-0000000","fields":["name","gender","occupation"],"gender":"Male","occupation":"Jo","inCircleCount":4,"outCircleCount":7,"flag":true}`,
	profileSeed[:len(profileSeed)-1] + `,"flag":false}`,
	profileSeed, profileSeed + "\n",
	`{"ids":["1","2","3"],"nextPageToken":"1000"}`, `{"ids":[]}`, `{"ids":null}`, `{"ids":[]}` + "\n", `{"ids":["a]","b,c,d",""]}`,
	`{"ids":["x"],"nextPageToken":"\u003c\u0026\u003e"}`,
	`{"id":"","name":"","fields":null,"inCircleCount":0,"outCircleCount":0}`,
	`{"id":"1","name":"n","fields":["name"],"inCircleCount":-7,"outCircleCount":9223372036854775807}`,
	`{"id":"1","name":"n","fields":null,"inCircleCount":-9223372036854775808,"outCircleCount":123456789}`,
	// every escape the encoder writes, and what it writes verbatim
	`{"id":"tab\there","name":"q\"b\\s/\b\f\n\r\u0000\u0001\u001f\u003chtml\u003e\u0026","fields":null,"inCircleCount":0,"outCircleCount":0}`,
	"{\"id\":\"caf\u00e9 \U0001F600 \ufffd \x7f\",\"name\":\"\\u2028\\u2029\",\"fields\":null,\"inCircleCount\":1,\"outCircleCount\":2}",
	// every field listed, a listed gender and relationship left unknown
	`{"id":"a","name":"b","fields":["name","gender","education","places_lived","employment","phrase","other_profiles","occupation","contributor_to","introduction","other_names","relationship","bragging_rights","recommended_links","looking_for","work_contact","home_contact"],"place":{"name":"","lat":0,"lon":0},"occupation":"--","inCircleCount":0,"outCircleCount":0}`,
	// places: no country, an empty entry, floats in every form appendFloat writes
	`{"id":"p","name":"","fields":["places_lived"],"placesLived":[""],"place":{"name":"","lat":-0,"lon":5e-324},"inCircleCount":0,"outCircleCount":0}`,
	`{"id":"p","name":"","fields":["places_lived"],"place":{"name":"n","lat":1e-7,"lon":-1e+21,"country":"BR"},"inCircleCount":0,"outCircleCount":0}`,
	`{"id":"p","name":"","fields":["places_lived"],"placesLived":["a","b"],"place":{"name":"b","lat":123456789.125,"lon":1e+300},"inCircleCount":0,"outCircleCount":0}`,
}

// profileSeed is a canonical profile document with every member.
const profileSeed = `{"id":"1","name":"n","fields":["name","gender","places_lived","occupation","relationship"],"gender":"Female","relationship":"It's complicated","placesLived":["A","B"],"place":{"name":"B","lat":-33.776047103969695,"lon":-70.57200261450315,"country":"XX"},"occupation":"Bl","inCircleCount":21,"outCircleCount":30}`

// nonCanonicalSeeds are inputs the decoders must reject: JSON that
// encoding/json reads but no encoder writes, and what is not JSON.
var nonCanonicalSeeds = append([]string{
	// one departure from profileSeed or a canonical page
	strings.Replace(profileSeed, `,"name"`, `, "name"`, 1),
	strings.Replace(profileSeed, `"id":"1"`, `"ID":"1"`, 1),
	strings.Replace(profileSeed, `"id":"1"`, `"id":"1","id":"1"`, 1),
	strings.Replace(profileSeed, `"id":"1","name":"n"`, `"name":"n","id":"1"`, 1),
	strings.Replace(profileSeed, `"gender":"Female","relationship":"It's complicated"`, `"relationship":"It's complicated","gender":"Female"`, 1),
	strings.Replace(profileSeed, `"id":"1"`, `"id":null`, 1),
	strings.Replace(profileSeed, `"gender":"Female"`, `"gender":null`, 1),
	strings.Replace(profileSeed, `"gender":"Female"`, `"gender":""`, 1),
	strings.Replace(profileSeed, `["A","B"]`, `[]`, 1),
	strings.Replace(profileSeed, `["A","B"]`, `null`, 1),
	strings.Replace(profileSeed, `["A","B"]`, `["A",null]`, 1),
	strings.Replace(profileSeed, `"country":"XX"`, `"country":""`, 1),
	strings.Replace(profileSeed, `,"country":"XX"`, `,"country":null`, 1),
	strings.Replace(profileSeed, `"place":{`, `"place":null,"x":{`, 1),
	strings.Replace(profileSeed, `"inCircleCount":21`, `"inCircleCount":null`, 1),
	strings.Replace(profileSeed, `"inCircleCount":21`, `"inCircleCount":21.0`, 1),
	strings.Replace(profileSeed, `"inCircleCount":21`, `"inCircleCount":2.1e1`, 1),
	strings.Replace(profileSeed, `"inCircleCount":21`, `"inCircleCount":021`, 1),
	strings.Replace(profileSeed, `"inCircleCount":21`, `"inCircleCount":+21`, 1),
	strings.Replace(profileSeed, `"inCircleCount":21`, `"inCircleCount":-0`, 1),
	strings.Replace(profileSeed, `"inCircleCount":21`, `"inCircleCount":9223372036854775808`, 1),
	strings.Replace(profileSeed, `-33.776047103969695`, `-33.7760471039696950`, 1),
	strings.Replace(profileSeed, `-33.776047103969695`, `-3.3776047103969695e1`, 1),
	strings.Replace(profileSeed, `-70.57200261450315`, `-70.57200261450315E0`, 1),
	strings.Replace(profileSeed, `"lat":-33.776047103969695`, `"lat":1e21`, 1),
	strings.Replace(profileSeed, `"lat":-33.776047103969695`, `"lat":0.0000001`, 1),
	strings.Replace(profileSeed, `"lat":-33.776047103969695`, `"lat":1e999`, 1),
	strings.Replace(profileSeed, `"lat":-33.776047103969695`, `"lat":-0.0`, 1),
	strings.Replace(profileSeed, `"occupation":"Bl"`, `"occupation":"Bl","x":1`, 1),
	strings.Replace(profileSeed, `"outCircleCount":30`, `"outCircleCount":30,"flag":true,"flag":true`, 1),
	strings.Replace(profileSeed, `"outCircleCount":30`, `"outCircleCount":30,"Flag":true`, 1),
	strings.Replace(profileSeed, `"outCircleCount":30`, `"outCircleCount":30,"flag":null`, 1),
	strings.Replace(profileSeed, `"outCircleCount":30`, `"outCircleCount":30,"flag":"true"`, 1),
	strings.Replace(profileSeed, `"outCircleCount":30`, `"outCircleCount":30,"flag":1`, 1),
	strings.Replace(profileSeed, `"outCircleCount":30`, `"outCircleCount":30,"flag":`, 1),
	strings.Replace(profileSeed, `"outCircleCount":30`, `"outCircleCount":30,`, 1),
	strings.Replace(profileSeed, `,"outCircleCount":30`, ``, 1),
	strings.Replace(profileSeed, `"name":"n"`, `"name":"\u006e"`, 1),
	strings.Replace(profileSeed, `"name":"n"`, `"name":"\/"`, 1),
	strings.Replace(profileSeed, `"name":"n"`, `"name":"\u003C"`, 1),
	strings.Replace(profileSeed, `"name":"n"`, `"name":"\u000a"`, 1),
	strings.Replace(profileSeed, `"name":"n"`, `"name":"\ufffd"`, 1),
	strings.Replace(profileSeed, `"name":"n"`, `"name":"\u00e9"`, 1),
	strings.Replace(profileSeed, `"name":"n"`, `"name":"\ud83d\ude00"`, 1),
	strings.Replace(profileSeed, `"name":"n"`, `"name":"\u202"`, 1),
	strings.Replace(profileSeed, `"name":"n"`, "\"name\":\"<&>\"", 1),
	strings.Replace(profileSeed, `"name":"n"`, "\"name\":\"\u2028\"", 1),
	strings.Replace(profileSeed, `"name":"n"`, "\"name\":\"\t\"", 1),
	strings.Replace(profileSeed, `"name":"n"`, "\"name\":\"\xff\"", 1),
	strings.Replace(profileSeed, `"name":"n"`, "\"name\":\"\xe2\x80\"", 1),
	strings.Replace(profileSeed, `"name":"n"`, "\"name\":\"\xed\xa0\x80\"", 1),
	// fields and values AppendProfile would not write back
	`{"id":"1","name":"n","fields":[],"inCircleCount":-7,"outCircleCount":9223372036854775807}`,
	strings.Replace(profileSeed, `["name","gender",`, `["zzz","name","gender",`, 1),
	strings.Replace(profileSeed, `"places_lived","occupation","relationship"]`, `"places_lived","occupation","relationship","zzz"]`, 1),
	strings.Replace(profileSeed, `"occupation","relationship"]`, `"relationship","occupation"]`, 1),
	strings.Replace(profileSeed, `["name","gender",`, `["name","gender","gender",`, 1),
	`{"id":"1","name":"n","fields":["occupation","gender"],"inCircleCount":0,"outCircleCount":0}`,
	`{"id":"1","name":"n","fields":["gender","gender"],"inCircleCount":0,"outCircleCount":0}`,
	`{"id":"1","name":"n","fields":["zzz"],"inCircleCount":0,"outCircleCount":0}`,
	"{\"id\":\"1\",\"name\":\"n\",\"fields\":[\"\u00e9\"],\"inCircleCount\":1,\"outCircleCount\":2}",
	strings.Replace(profileSeed, `,"occupation":"Bl"`, ``, 1),
	strings.Replace(profileSeed, `"occupation":"Bl"`, `"occupation":"zz"`, 1),
	strings.Replace(profileSeed, `"occupation":"Bl"`, `"occupation":"bl"`, 1),
	strings.Replace(profileSeed, `"occupation",`, ``, 1),
	`{"id":"1","name":"n","fields":null,"gender":"male","inCircleCount":0,"outCircleCount":0}`,
	`{"id":"1","name":"n","fields":null,"gender":"Male","inCircleCount":0,"outCircleCount":0}`,
	`{"id":"1","name":"n","fields":["name"],"relationship":"Single","inCircleCount":0,"outCircleCount":0}`,
	`{"id":"1","name":"n","fields":["name"],"placesLived":["x"],"place":{"name":"x","lat":0,"lon":0},"inCircleCount":0,"outCircleCount":0}`,
	`{"id":"1","name":"n","fields":["name"],"place":{"name":"x","lat":0,"lon":0},"inCircleCount":0,"outCircleCount":0}`,
	`{"id":"1","name":"n","fields":["places_lived"],"placesLived":["x"],"inCircleCount":0,"outCircleCount":0}`,
	`{"id":"1","name":"n","fields":["name"],"occupation":"IT","inCircleCount":0,"outCircleCount":0}`,
	strings.Replace(profileSeed, `"gender":"Female"`, `"gender":"unknown"`, 1),
	strings.Replace(profileSeed, `"gender":"Female"`, `"gender":"Unknown"`, 1),
	strings.Replace(profileSeed, `"gender":"Female"`, `"gender":"Blorp"`, 1),
	strings.Replace(profileSeed, `"relationship":"It's complicated"`, `"relationship":"Unknown"`, 1),
	profileSeed + "\n\n", profileSeed + "\r\n", profileSeed + " ", profileSeed[:len(profileSeed)-1], profileSeed[:len(profileSeed)/2],
	`{"ids":[],"ids":[]}`, `{"Ids":[]}`, `{"ids":[] }`, `{"ids": []}`, `{"ids":[null]}`, `{"ids":[],"nextPageToken":""}`,
	`{"ids":[],"nextPageToken":null}`, `{"nextPageToken":"1","ids":[]}`, `{"ids":[],"x":1}`, `{"nextPageToken":"1"}`,
}, wireSeeds...)

// wireSeeds are the inputs that separated a decoder agreeing with
// encoding/json on any input from one that merely parses JSON; none is
// canonical.
var wireSeeds = []string{
	// not a document, or white space around one
	`{}`, `null`, ` null `, "\t{ }\r\n",
	// keys in another case, folded (long s, Kelvin sign) or escaped
	`{"ID":"a","NAME":"b","Fields":["name"],"PLACESLIVED":["x"],"Flag":true}`,
	"{\"field\u017f\":[\"gender\"],\"id\u017f\":[\"1\"],\"nextPageTo\u212aen\":\"t\",\"relation\u017fhip\":\"Single\"}",
	`{"\u0069d":"escaped key","n\u0061me":"x","\u0046LAG":true,"fl\u0061g":"no"}`,
	`{"id":"exact wins","Id":"then the fold"}`,
	// repeated members
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
	// escapes the encoder does not write, surrogates, invalid UTF-8, characters it escapes
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
	// unknown members
	`{"x":{"a":[1,2,{"b":null}],"c":"\u00e9"},"id":"after"}`, `{"x":[1,"\x"],"id":"after"}`, `{"x":{"a":1,},"id":"after"}`,
	`{"x":[[[[[[[[]]]]]]]],"crawled":true}`, `{"place":{"x":{"y":[1e5,-2]},"name":"n"}}`,
	`{"x":"]","ids":["a]","b,c,d"],"y":","}`,
}

func TestWireCodecAgreesWithEncodingJSON(t *testing.T) {
	for _, seed := range canonicalSeeds {
		if !checkDecoders(t, []byte(seed)) {
			t.Errorf("canonical %q: rejected", seed)
		}
	}
	for _, seed := range nonCanonicalSeeds {
		if checkDecoders(t, []byte(seed)) {
			t.Errorf("non-canonical %q: accepted", seed)
		}
	}

	odd := []string{"", "plain", "<script>&amp;</script>", "line\u2028sep\u2029", "q\"b\\s/", "\x00\x01\b\f\n\r\t\x1f\x7f", "caf\u00e9", "\xff\xc3", "\xe2\x80", "\U0001F600", "\ufffd"}
	floats := []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21, 1.5e300, 5e-324, 123456789.125, math.NaN(), math.Inf(1), math.Inf(-1)}
	// Nothing, everything, a bit past the attributes alone, and a mix.
	publics := []profile.AttrSet{0, 1<<profile.NumAttrs - 1, 1 << 31, 1<<profile.AttrGender | 1<<profile.AttrOccupation | 1<<profile.AttrHomeContact}
	for i, s := range odd {
		for j, f := range floats {
			p := &profile.Profile{
				Name:   odd[(i+1)%len(odd)],
				Public: publics[(i+j)%len(publics)],
				Gender: profile.Gender(i % 5), Relationship: profile.Relationship(j % 12), Occupation: profile.Occupation((i + j) % 18),
				Place: s, Loc: geo.Point{Lat: f, Lon: floats[(j+1)%len(floats)]}, CountryCode: odd[(i+3)%len(odd)],
				DeclaredInDegree: i - 3, DeclaredOutDegree: j << 40,
			}
			if j%2 == 0 {
				p.PlacesLived = odd[i:]
				p.Public |= 1 << profile.AttrPlacesLived
			}
			checkEncoders(t, s, p, &CirclePage{IDs: odd[:i], NextPageToken: s})
		}
	}
	checkEncoders(t, "", &profile.Profile{Public: 1 << profile.AttrPlacesLived, PlacesLived: []string{}}, &CirclePage{IDs: []string{}})
	checkEncoders(t, "", &profile.Profile{}, &CirclePage{})
}

// FuzzWireCodec is the codec's contract: for arbitrary bytes, what a
// decoder accepts json.Unmarshal reads as the same value, and
// json.Marshal writes back as the same bytes; for arbitrary profiles
// and pages — built from the fuzzed strings, bits and labels, and from
// whatever json.Unmarshal makes of the fuzzed bytes — the encoders and
// json.Marshal of the oracle's document agree on every byte, and the
// decoders accept what the encoders write.
func FuzzWireCodec(f *testing.F) {
	all := uint32(1<<profile.NumAttrs - 1)
	for i, seed := range append(canonicalSeeds, nonCanonicalSeeds...) {
		f.Add([]byte(seed), "name", "<i>&", 1e-7, 1e21, all>>(i%8), uint32(i)*0x9E3779B9)
	}
	f.Add([]byte(profileSeed), "line\u2028sep\u2029", "\xff\x00", math.Copysign(0, -1), math.Inf(1), ^uint32(0), ^uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, a, b string, lat, lon float64, public, labels uint32) {
		checkDecoders(t, data)

		p := &profile.Profile{Name: b, Public: profile.AttrSet(public),
			Gender: profile.Gender(labels & 7), Relationship: profile.Relationship(labels >> 3 & 15), Occupation: profile.Occupation(labels >> 7 & 31),
			PlacesLived: strings.Split(b, " "), Place: a, Loc: geo.Point{Lat: lat, Lon: lon}, CountryCode: b,
			DeclaredInDegree: len(data), DeclaredOutDegree: -len(a)}
		checkEncoders(t, a, p, &CirclePage{IDs: p.PlacesLived, NextPageToken: a})

		// Documents of any shape json.Unmarshal builds from the bytes:
		// nil and empty slices, no place, large counts. Its strings are
		// valid UTF-8, so the decoders must take the encoders' output.
		var doc profileDoc
		var page CirclePage
		docErr, pageErr := json.Unmarshal(data, &doc), json.Unmarshal(data, &page)
		if docErr == nil || pageErr == nil {
			back := doc.profile()
			checkEncoders(t, doc.ID, &back, &page)
		}
	})
}

func TestDecodeDoesNotAliasInput(t *testing.T) {
	pageData := []byte(`{"ids":["111","222"],"nextPageToken":"333"}`)
	data := []byte(`{"id":"444","name":"555","fields":["name","places_lived"],"placesLived":["666"],"place":{"name":"777","lat":0,"lon":0,"country":"88"},"inCircleCount":0,"outCircleCount":0}`)
	var page CirclePage
	var id string
	var p profile.Profile
	if err := DecodeCirclePage(pageData, &page); err != nil {
		t.Fatal(err)
	}
	if err := DecodeProfile(data, &id, &p, nil); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{pageData, data} {
		for i := range b {
			b[i] = '!' // the pooled buffer goes back to its pool
		}
	}
	if want := (CirclePage{IDs: []string{"111", "222"}, NextPageToken: "333"}); !reflect.DeepEqual(page, want) {
		t.Errorf("page aliases its input: %#v", page)
	}
	if id != "444" || p.Name != "555" || p.PlacesLived[0] != "666" || p.Place != "777" || p.CountryCode != "88" {
		t.Errorf("profile aliases its input: %q %#v", id, p)
	}
}

// TestDecodeAllocs pins what a canonical document costs: the strings
// that outlive the call and the slices holding them, nothing else.
func TestDecodeAllocs(t *testing.T) {
	line := []byte(canonicalSeeds[1])
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
	// The whole model-to-bytes path of every writer.
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := AppendProfile(buf, id, &p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendProfile: %v allocs per document, want 0", n)
	}
}

// TestCanonicalIntMatchesStrconv: the integer decoder takes exactly
// what strconv.AppendInt writes, over int's whole range, and reads it as
// strconv.ParseInt does.
func TestCanonicalIntMatchesStrconv(t *testing.T) {
	lits := []string{
		"0", "7", "-7", "10", "-10", "123456789", "-999999999999999999", "999999999999999999",
		"1000000000000000000", "-1000000000000000000",
		"", "-", "-0", "00", "01", "-01", "+1", "1.0", "1e3", "1-", "--1", " 1", "/", ":",
		"99999999999999999999", "-99999999999999999999", "123456789012345678901",
	}
	for _, n := range []int64{math.MaxInt, math.MinInt, math.MaxInt32, math.MinInt32} {
		lits = append(lits, strconv.FormatInt(n, 10))
		lits = append(lits, strconv.FormatInt(n/10, 10)+"9", strconv.FormatInt(n, 10)+"0")
		lits = append(lits, strconv.FormatInt(n-n%10, 10)) // a trailing zero, always in range
	}
	for _, lit := range lits {
		n, ok := canonicalInt([]byte(lit))
		want, err := strconv.ParseInt(lit, 10, 0)
		canonical := err == nil && strconv.FormatInt(want, 10) == lit
		if ok != canonical || ok && int64(n) != want {
			t.Errorf("canonicalInt(%q) = %d, %v; strconv reads %d (error %v), canonical %v", lit, n, ok, want, err, canonical)
		}
	}
}

// BenchmarkDecodeProfile is the dataset loader's inner loop: canonical
// profiles.jsonl lines, two in three without a place as in a synthetic
// universe.
func BenchmarkDecodeProfile(b *testing.B) {
	lines := [][]byte{[]byte(canonicalSeeds[0]), []byte(canonicalSeeds[1]), []byte(canonicalSeeds[0])}
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
