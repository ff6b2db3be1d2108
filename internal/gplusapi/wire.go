package gplusapi

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"gplus/internal/profile"
)

// The wire codec: hand-written encoders and decoders for the two
// documents every stage of the pipeline moves — a user's profile
// document and a CirclePage — in place of reflection-driven
// encoding/json. A profile document has no Go type of its own: it is
// written from the analysis model (profile.Profile and the user id) and
// read back into it.
//
// AppendProfile writes the public view of a profile; AppendCirclePage a
// page. Both emit byte for byte what json.Marshal emits for the
// document (HTML and U+2028/9 escaping, invalid UTF-8 as \ufffd, ES6
// float formatting, members left out when empty, a nil slice as null),
// and AppendProfile fails where json.Marshal would: on a NaN or
// infinite coordinate.
//
// Every byte the decoders read was written by those encoders: gplusd's
// bodies, the crawl journal's P records, profiles.jsonl. So
// DecodeProfile and DecodeCirclePage read only the canonical form the
// encoders write:
//
//   - no white space;
//   - members in encoding order, each at most once, an optional member
//     present only with a non-empty value;
//   - null only as the fields of a profile whose public set names no
//     field, or the ids of a nil page;
//   - each field code known, listed once, in attribute order, and a
//     value only for a listed field, with a label the encoder writes;
//   - only the escapes the encoder writes, and valid UTF-8;
//   - numbers as the encoder formats them;
//   - at most one newline after the document (gplusd ends a body so).
//
// Anything else is an error naming its byte offset. encoding/json is the
// oracle on what is accepted: json.Unmarshal accepts every accepted
// document, and json.Marshal writes what it read back as the same
// bytes; DecodeProfile yields the profile the document shows, and
// AppendProfile of it, like AppendCirclePage of a decoded page, is the
// document again byte for byte. On a rejected input the destination is
// left in an unspecified state. FuzzWireCodec holds all of it, against
// a test-local struct carrying the documents' JSON tags.

// Member names of the documents, in encoding order (a place's name is
// keyName). The encoders and decoders spell keys through these, so a
// name exists once.
const (
	keyID             = "id"
	keyName           = "name"
	keyFields         = "fields"
	keyGender         = "gender"
	keyRelationship   = "relationship"
	keyPlacesLived    = "placesLived"
	keyPlace          = "place"
	keyLat            = "lat"
	keyLon            = "lon"
	keyCountry        = "country"
	keyOccupation     = "occupation"
	keyInCircleCount  = "inCircleCount"
	keyOutCircleCount = "outCircleCount"
	keyIDs            = "ids"
	keyNextPageToken  = "nextPageToken"
)

// ---- encoding ----

// AppendProfile appends to dst the profile document of user id: the
// public view of p. The fields are null when no attribute is public. A
// field's value is written only when the field is public — gender and
// relationship also only when known, places lived only when not empty —
// and the geocoded place whenever places lived is public. It fails only
// on a place coordinate that is NaN or infinite.
func AppendProfile(dst []byte, id string, p *profile.Profile) ([]byte, error) {
	pub := p.Public
	dst = appendString(appendKey(dst, '{', keyID), id)
	dst = appendString(appendKey(dst, ',', keyName), p.Name)
	dst = appendKey(dst, ',', keyFields)
	if pub&(1<<profile.NumAttrs-1) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for a := profile.Attr(0); a < profile.NumAttrs; a++ {
			if pub.Has(a) {
				if dst[len(dst)-1] != '[' {
					dst = append(dst, ',')
				}
				dst = appendString(dst, a.WireCode())
			}
		}
		dst = append(dst, ']')
	}
	if pub.Has(profile.AttrGender) && p.Gender != profile.GenderUnknown {
		dst = appendString(appendKey(dst, ',', keyGender), p.Gender.String())
	}
	if pub.Has(profile.AttrRelationship) && p.Relationship != profile.RelUnknown {
		dst = appendString(appendKey(dst, ',', keyRelationship), p.Relationship.String())
	}
	if pub.Has(profile.AttrPlacesLived) {
		if len(p.PlacesLived) > 0 {
			dst = appendStrings(appendKey(dst, ',', keyPlacesLived), p.PlacesLived)
		}
		if !finite(p.Loc.Lat) || !finite(p.Loc.Lon) {
			return dst, fmt.Errorf("gplusapi: place of %q has an unencodable coordinate (%v, %v)", id, p.Loc.Lat, p.Loc.Lon)
		}
		dst = appendKey(dst, ',', keyPlace)
		dst = appendString(appendKey(dst, '{', keyName), p.Place)
		dst = appendFloat(appendKey(dst, ',', keyLat), p.Loc.Lat)
		dst = appendFloat(appendKey(dst, ',', keyLon), p.Loc.Lon)
		if p.CountryCode != "" {
			dst = appendString(appendKey(dst, ',', keyCountry), p.CountryCode)
		}
		dst = append(dst, '}')
	}
	if pub.Has(profile.AttrOccupation) {
		dst = appendString(appendKey(dst, ',', keyOccupation), p.Occupation.Code())
	}
	dst = strconv.AppendInt(appendKey(dst, ',', keyInCircleCount), int64(p.DeclaredInDegree), 10)
	dst = strconv.AppendInt(appendKey(dst, ',', keyOutCircleCount), int64(p.DeclaredOutDegree), 10)
	return append(dst, '}'), nil
}

// AppendCirclePage appends the JSON encoding of p to dst: the bytes
// json.Marshal(p) returns.
func AppendCirclePage(dst []byte, p *CirclePage) []byte {
	dst = appendStrings(appendKey(dst, '{', keyIDs), p.IDs)
	if p.NextPageToken != "" {
		dst = appendString(appendKey(dst, ',', keyNextPageToken), p.NextPageToken)
	}
	return append(dst, '}')
}

// appendKey appends sep (the opening brace or the comma) and the quoted
// member name with its colon. Names are plain ASCII: nothing to escape.
func appendKey(dst []byte, sep byte, name string) []byte {
	dst = append(dst, sep, '"')
	dst = append(dst, name...)
	return append(dst, '"', ':')
}

// appendStrings appends a string array; a nil slice is null.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// plainByte marks the bytes a JSON string carries verbatim in both
// directions: printable ASCII except the quote, the backslash and the
// three characters encoding/json escapes for HTML safety. Every other
// byte sends the encoder or the decoder to its per-literal slow path.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// shortEscapes are the escapes JSON spells with one character after the
// backslash; shortEscaped holds the bytes they stand for.
const shortEscapes, shortEscaped = `"\bfnrt`, "\"\\\b\f\n\r\t"

// asciiEscape is the escape encoding/json writes for each ASCII byte a
// string literal does not carry verbatim: the two-character forms where
// JSON has one, \u00xx for the other control bytes and for < > &.
var asciiEscape = func() (t [utf8.RuneSelf]string) {
	for c := range t {
		switch i := strings.IndexByte(shortEscaped, byte(c)); {
		case plainByte[c]:
		case i >= 0:
			t[c] = `\` + shortEscapes[i:i+1]
		default:
			t[c] = `\u00` + hexDigits[c>>4:c>>4+1] + hexDigits[c&0xF:c&0xF+1]
		}
	}
	return t
}()

// appendString appends s as a JSON string literal with encoding/json's
// default (HTML-safe) escaping.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if plainByte[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			dst = append(dst, asciiEscape[c]...)
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendFloat appends a finite f the way encoding/json does: the
// shortest representation that round-trips, in ES6 notation (exponent
// form below 1e-6 and from 1e21, exponent without a leading zero).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 is written e-9
		dst = dst[:n-1]
	}
	return dst
}

// ---- decoding ----

// DecodeCirclePage decodes one canonical circle page into p, overwriting
// it. Every string of the page is a copy: nothing in p aliases data.
func DecodeCirclePage(data []byte, p *CirclePage) error {
	s := scanner{data: data}
	s.key('{', keyIDs)
	if s.null() {
		p.IDs = nil
	} else {
		s.strs(&p.IDs)
	}
	p.NextPageToken = ""
	if s.member(',', keyNextPageToken) {
		p.NextPageToken = string(s.label())
	}
	s.end()
	return s.err
}

// DecodeProfile decodes one canonical profile document straight into
// the analysis model, overwriting *id and *p: field codes become AttrSet
// bits and labels enums as they are scanned. A document AppendProfile
// would not write back byte for byte — an unknown, repeated or
// misordered field code, an empty field list, a value whose field is
// not listed, a label outside the model, a listed occupation or place
// without its member — is rejected. Nothing in *id or *p aliases data.
//
// extra, when non-nil, is a container format's one member after the
// document's own — the dataset's "crawled" flag — which must then be
// there: it receives the member's key and the raw text of its value, up
// to the closing brace (both valid only during the call), and rejects
// what its format does not write.
func DecodeProfile(data []byte, id *string, p *profile.Profile, extra func(key, value []byte) error) error {
	s := scanner{data: data}
	s.profile(id, p)
	if extra != nil {
		s.trailer(extra)
	}
	s.end()
	return s.err
}

// scanner is a cursor over one document. Each method consumes one piece
// of the canonical form; the first byte that departs from it sets err,
// naming its offset, and every method is a no-op from then on.
type scanner struct {
	data    []byte
	pos     int
	err     error
	scratch []byte // unquoting space of the slow string path
}

func (s *scanner) fail(format string, args ...any) { s.failAt(s.pos, format, args...) }

// failAt is fail for a value that started at offset pos.
func (s *scanner) failAt(pos int, format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("gplusapi: invalid document at byte %d: %s", pos, fmt.Sprintf(format, args...))
	}
}

// next consumes the byte c if it comes next.
func (s *scanner) next(c byte) bool {
	if s.err != nil || s.pos >= len(s.data) || s.data[s.pos] != c {
		return false
	}
	s.pos++
	return true
}

func (s *scanner) expect(c byte) {
	if !s.next(c) {
		s.fail("want %q", c)
	}
}

// null consumes a null if one comes next.
func (s *scanner) null() bool {
	if s.err != nil || !bytes.HasPrefix(s.data[s.pos:], []byte("null")) {
		return false
	}
	s.pos += 4
	return true
}

// member consumes sep (the opening brace or the comma) and the quoted
// member name with its colon, if they come next.
func (s *scanner) member(sep byte, name string) bool {
	rest, n := s.data[s.pos:], len(name)+4
	if s.err != nil || len(rest) < n || rest[0] != sep || rest[1] != '"' || string(rest[2:n-2]) != name || rest[n-2] != '"' || rest[n-1] != ':' {
		return false
	}
	s.pos += n
	return true
}

// key is member for a member the encoder always writes.
func (s *scanner) key(sep byte, name string) {
	if !s.member(sep, name) {
		s.fail("want %c%q:", sep, name)
	}
}

// end consumes the closing brace, after which only gplusd's newline may
// follow.
func (s *scanner) end() {
	if rest := string(s.data[s.pos:]); rest != "}" && rest != "}\n" {
		s.fail("want the closing brace and the end of the document")
	}
}

// stringBytes consumes a string literal and returns its unquoted
// content: a sub-slice of the input when the literal is plain ASCII
// with no escape, the scanner's scratch space otherwise. Either way the
// bytes are only valid until the next string is read and must be copied
// to be kept.
func (s *scanner) stringBytes() []byte {
	if !s.next('"') {
		s.fail("want a string")
		return nil
	}
	for i := s.pos; i < len(s.data); i++ {
		if c := s.data[i]; c == '"' {
			b := s.data[s.pos:i]
			s.pos = i + 1
			return b
		} else if !plainByte[c] {
			return s.unquote(i)
		}
	}
	s.pos = len(s.data)
	s.fail("unterminated string")
	return nil
}

// unquote is the slow path of stringBytes: the literal that started at
// s.pos holds, at offset i, an escape, a multi-byte rune, a control byte
// or one of < > &. What the encoder writes verbatim is copied; escapes
// are read only in the form appendString writes them.
func (s *scanner) unquote(i int) []byte {
	b := append(s.scratch[:0], s.data[s.pos:i]...)
	for s.pos = i; s.pos < len(s.data); {
		switch c := s.data[s.pos]; {
		case c == '"':
			s.pos++
			s.scratch = b
			return b
		case plainByte[c]:
			b = append(b, c)
			s.pos++
		case c == '\\':
			r, n := unescape(s.data[s.pos:])
			if n == 0 {
				s.fail("an escape the encoder does not write")
				return nil
			}
			b = utf8.AppendRune(b, r)
			s.pos += n
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(s.data[s.pos:])
			if r == utf8.RuneError && n == 1 || r == '\u2028' || r == '\u2029' {
				s.fail("invalid UTF-8 or an unescaped line separator")
				return nil
			}
			b = append(b, s.data[s.pos:s.pos+n]...)
			s.pos += n
		default:
			s.fail("unescaped %q in a string", c)
			return nil
		}
	}
	s.fail("unterminated string")
	return nil
}

// unescape reads the escape at the start of lit: the character it
// stands for and its length, or n = 0 unless it is the escape
// appendString writes for that character.
func unescape(lit []byte) (r rune, n int) {
	switch {
	case len(lit) >= 6 && lit[1] == 'u':
		n = 6
		for _, c := range lit[2:6] {
			d := strings.IndexByte(hexDigits, c)
			if d < 0 {
				return 0, 0
			}
			r = r<<4 | rune(d)
		}
		if r == '\u2028' || r == '\u2029' {
			return r, n
		}
	case len(lit) >= 2:
		i := strings.IndexByte(shortEscapes, lit[1])
		if i < 0 {
			return 0, 0
		}
		r, n = rune(shortEscaped[i]), 2
	}
	if n == 0 || r >= utf8.RuneSelf || asciiEscape[r] != string(lit[:n]) {
		return 0, 0
	}
	return r, n
}

// str consumes a string into dst.
func (s *scanner) str(dst *string) { *dst = string(s.stringBytes()) }

// label consumes the string of an omitempty member, which the encoder
// writes only when it is not empty; b is valid until the next string is
// read.
func (s *scanner) label() (b []byte) {
	if b = s.stringBytes(); len(b) == 0 {
		s.fail("an empty value the encoder omits")
	}
	return b
}

// array consumes an array, calling elem to consume each element.
func (s *scanner) array(elem func()) {
	s.expect('[')
	if s.next(']') {
		return
	}
	for s.err == nil {
		elem()
		if s.next(']') {
			return
		}
		s.expect(',')
	}
}

// maxPresize bounds the slice strs makes before it has seen the
// elements, so a body of commas cannot ask for 16 times its size.
const maxPresize = 4096

// strs consumes a string array into a fresh slice; an empty array
// yields an empty, non-nil slice.
func (s *scanner) strs(dst *[]string) {
	// Size the slice by the commas up to the first ']': exact unless an
	// element holds one of the two, a hint then.
	rest := s.data[s.pos:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	ss := make([]string, 0, min(bytes.Count(rest, []byte{','})+1, maxPresize))
	s.array(func() { ss = append(ss, string(s.stringBytes())) })
	*dst = ss
}

// numberText consumes the characters a number literal is made of.
func (s *scanner) numberText() []byte {
	start := s.pos
	for s.err == nil && s.pos < len(s.data) {
		if c := s.data[s.pos]; ('0' > c || c > '9') && c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' {
			break
		}
		s.pos++
	}
	return s.data[start:s.pos]
}

// integer consumes an int member's value, as strconv.AppendInt writes it.
func (s *scanner) integer(dst *int) {
	lit := s.numberText()
	n, ok := canonicalInt(lit)
	if !ok {
		s.pos -= len(lit)
		s.fail("want an integer as the encoder writes it")
	}
	*dst = n
}

// canonicalInt reads lit when it is what strconv.AppendInt writes: 0 or
// -?[1-9][0-9]*, inside int's range. Anything else is not ok.
func canonicalInt(lit []byte) (n int, ok bool) {
	digits := lit
	neg := len(lit) > 0 && lit[0] == '-'
	limit := uint(math.MaxInt) // the magnitude allowed: one more when negative
	if neg {
		digits, limit = lit[1:], limit+1
	}
	if len(digits) == 0 || digits[0] == '0' && len(lit) > 1 {
		return 0, false
	}
	var u uint
	for _, c := range digits {
		d := uint(c - '0') // a byte below '0' wraps past 9
		if d > 9 || u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if neg {
		return -int(u), true // u = -math.MinInt converts to math.MinInt, its own negation
	}
	return int(u), true
}

// float consumes a float64 member's value, as appendFloat writes it.
func (s *scanner) float(dst *float64) {
	lit := s.numberText()
	f, err := strconv.ParseFloat(string(lit), 64)
	var buf [32]byte
	if err != nil || string(appendFloat(buf[:0], f)) != string(lit) {
		s.pos -= len(lit)
		s.fail("want a number as the encoder writes it")
	}
	*dst = f
}

// profile consumes the members of a profile document, all but its
// closing brace, into *id and *p.
func (s *scanner) profile(id *string, p *profile.Profile) {
	*p = profile.Profile{}
	s.key('{', keyID)
	s.str(id)
	s.key(',', keyName)
	s.str(&p.Name)
	s.key(',', keyFields)
	if !s.null() {
		// Codes arrive in attribute order, so each is looked for only
		// past the last one read: a code found nowhere there is unknown,
		// repeated or out of order.
		next := profile.Attr(0)
		s.array(func() {
			start := s.pos
			code := s.stringBytes()
			a := next
			for a < profile.NumAttrs && a.WireCode() != string(code) {
				a++
			}
			if a == profile.NumAttrs {
				if _, ok := profile.AttrFromWireCode(string(code)); !ok {
					s.failAt(start, "a field code the encoder does not write")
				} else {
					s.failAt(start, "a field code repeated or out of attribute order")
				}
				return
			}
			p.Public, next = p.Public.With(a), a+1
		})
		if p.Public == 0 {
			s.fail("an empty field list, which the encoder writes as null")
		}
	}
	if s.member(',', keyGender) {
		start := s.pos
		p.Gender = profile.ParseGender(string(s.label()))
		s.listed(start, p.Public, profile.AttrGender, p.Gender != profile.GenderUnknown)
	}
	if s.member(',', keyRelationship) {
		start := s.pos
		p.Relationship = profile.ParseRelationship(string(s.label()))
		s.listed(start, p.Public, profile.AttrRelationship, p.Relationship != profile.RelUnknown)
	}
	if s.member(',', keyPlacesLived) {
		start := s.pos
		if s.strs(&p.PlacesLived); len(p.PlacesLived) == 0 {
			s.fail("an empty value the encoder omits")
		}
		s.listed(start, p.Public, profile.AttrPlacesLived, true)
	}
	if !s.member(',', keyPlace) {
		s.listedWithout(p.Public, profile.AttrPlacesLived, keyPlace)
	} else {
		s.listed(s.pos, p.Public, profile.AttrPlacesLived, true)
		s.key('{', keyName)
		s.str(&p.Place)
		s.key(',', keyLat)
		s.float(&p.Loc.Lat)
		s.key(',', keyLon)
		s.float(&p.Loc.Lon)
		if s.member(',', keyCountry) {
			p.CountryCode = string(s.label())
		}
		s.expect('}')
	}
	if !s.member(',', keyOccupation) {
		s.listedWithout(p.Public, profile.AttrOccupation, keyOccupation)
	} else {
		start := s.pos
		code := s.label()
		p.Occupation = profile.ParseOccupation(string(code))
		s.listed(start, p.Public, profile.AttrOccupation, p.Occupation.Code() == string(code))
	}
	s.key(',', keyInCircleCount)
	s.integer(&p.DeclaredInDegree)
	s.key(',', keyOutCircleCount)
	s.integer(&p.DeclaredOutDegree)
}

// listed checks the value of field a read from offset start: the
// encoder writes it only when pub lists a, and only a label the model
// knows.
func (s *scanner) listed(start int, pub profile.AttrSet, a profile.Attr, known bool) {
	switch {
	case !pub.Has(a):
		s.failAt(start, "a %s value whose field is not listed", a.WireCode())
	case !known:
		s.failAt(start, "a %s label the encoder does not write", a.WireCode())
	}
}

// listedWithout fails if pub lists a, whose member key the encoder
// always writes then, and the member is missing.
func (s *scanner) listedWithout(pub profile.AttrSet, a profile.Attr, key string) {
	if pub.Has(a) {
		s.fail("a listed %s without the %q member", a.WireCode(), key)
	}
}

// trailer consumes a container's member after the document's own,
// `,"key":value` with the value running to the closing brace, and hands
// it to extra, whose error is the scanner's.
func (s *scanner) trailer(extra func(key, value []byte) error) {
	s.expect(',')
	key := s.stringBytes()
	s.expect(':')
	end := len(s.data) - 1 // the closing brace, before gplusd's newline if there is one
	if end > s.pos && s.data[end] == '\n' {
		end--
	}
	if end <= s.pos {
		s.fail("want a value")
	}
	if s.err == nil {
		value := s.data[s.pos:end]
		s.pos = end
		s.err = extra(key, value)
	}
}
