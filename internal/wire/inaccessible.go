package wire

import (
	"encoding/json"
	"strings"
	"unicode/utf8"

	"repro/internal/graph"
	"repro/internal/profile"
)

// The Algorithm-1 response is the read path's largest body (one ID per
// location), so it has its own codec. AppendInaccessible writes exactly
// the bytes json.Encoder.Encode writes for an InaccessibleResponse, and
// DecodeInaccessible reads that one shape without reflection; anything
// else goes to json.Unmarshal, which stays the reference behaviour.

const (
	inaccSubjectKey = `{"subject":`
	inaccListKey    = `,"inaccessible":`
	accListKey      = `,"accessible":`
)

// AppendInaccessible appends r's JSON encoding, newline included, to
// dst: byte for byte what json.NewEncoder(w).Encode(r) writes. Strings
// that need no escaping are copied as they are; only one that does goes
// through json.Marshal.
func AppendInaccessible(dst []byte, r InaccessibleResponse) []byte {
	dst = append(dst, inaccSubjectKey...)
	dst = appendJSONString(dst, string(r.Subject))
	dst = append(dst, inaccListKey...)
	dst = appendIDs(dst, r.Inaccessible)
	dst = append(dst, accListKey...)
	dst = appendIDs(dst, r.Accessible)
	return append(dst, '}', '\n')
}

func appendIDs(dst []byte, ids []graph.ID) []byte {
	if ids == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, string(id))
	}
	return append(dst, ']')
}

func appendJSONString(dst []byte, s string) []byte {
	if !needsEscape(s) {
		dst = append(dst, '"')
		dst = append(dst, s...)
		return append(dst, '"')
	}
	b, _ := json.Marshal(s) // a string always marshals
	return append(dst, b...)
}

// needsEscape reports whether encoding/json (HTML escaping on, as in
// both json.Marshal and json.Encoder) would write s other than between
// plain quotes: for a control byte, '"', '\\', '<', '>', '&', invalid
// UTF-8, U+2028 or U+2029.
func needsEscape(s string) bool {
	for i := 0; i < len(s); {
		if htmlSafe[s[i]] {
			i++
			continue
		}
		if s[i] < utf8.RuneSelf {
			return true
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if (c == utf8.RuneError && size == 1) || c == '\u2028' || c == '\u2029' {
			return true
		}
		i += size
	}
	return false
}

// htmlSafe marks the ASCII bytes encoding/json writes as they are.
var htmlSafe = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = !strings.ContainsRune(`"\<>&`, rune(b))
	}
	return t
}()

// DecodeInaccessible decodes an InaccessibleResponse body. A body in
// the canonical form AppendInaccessible writes, with no escape in any
// string, becomes one string that the subject and every ID are sliced
// out of: one allocation for the string and one for the array both ID
// lists share. Any other body (whitespace, another key order, unknown
// keys, escapes) is decoded by json.Unmarshal, with its result and
// error.
func DecodeInaccessible(body []byte) (InaccessibleResponse, error) {
	if r, ok := decodeCanonical(string(body)); ok {
		return r, nil
	}
	var r InaccessibleResponse
	err := json.Unmarshal(body, &r)
	return r, err
}

func decodeCanonical(s string) (InaccessibleResponse, bool) {
	// The keys and punctuation are valid UTF-8, so this checks every
	// string in the body (json.Unmarshal would replace invalid bytes).
	if !utf8.ValidString(s) {
		return InaccessibleResponse{}, false
	}
	// Every ID but the last of each list is followed by a comma, and
	// two commas precede the list keys, so the comma count bounds the
	// IDs in both lists.
	d := canonical{rest: strings.TrimSuffix(s, "\n"), ok: true, ids: make([]graph.ID, 0, strings.Count(s, ","))}
	var r InaccessibleResponse
	d.expect(inaccSubjectKey)
	r.Subject = profile.SubjectID(d.str())
	d.expect(inaccListKey)
	r.Inaccessible = d.list()
	d.expect(accListKey)
	r.Accessible = d.list()
	d.expect("}")
	if !d.ok || d.rest != "" {
		return InaccessibleResponse{}, false
	}
	return r, true
}

// canonical reads the canonical body; ok turns false at the first byte
// that is not in that form, and the reads after it return zero values.
type canonical struct {
	rest string
	ok   bool
	ids  []graph.ID // backing array of both lists
}

func (d *canonical) expect(lit string) {
	if d.ok {
		d.rest, d.ok = strings.CutPrefix(d.rest, lit)
	}
}

// str reads a quoted string holding no backslash and no control byte;
// json.Unmarshal returns such a string as it stands.
func (d *canonical) str() string {
	if !d.ok || len(d.rest) == 0 || d.rest[0] != '"' {
		d.ok = false
		return ""
	}
	for i := 1; i < len(d.rest); i++ {
		switch c := d.rest[i]; {
		case c == '"':
			s := d.rest[1:i]
			d.rest = d.rest[i+1:]
			return s
		case c < 0x20 || c == '\\':
			d.ok = false
			return ""
		}
	}
	d.ok = false
	return ""
}

// list reads `null`, `[]` or a list of strings.
func (d *canonical) list() []graph.ID {
	if !d.ok {
		return nil
	}
	var ok bool
	if d.rest, ok = strings.CutPrefix(d.rest, "null"); ok {
		return nil
	}
	if d.rest, ok = strings.CutPrefix(d.rest, "[]"); ok {
		return []graph.ID{}
	}
	start := len(d.ids)
	d.expect("[")
	for d.ok {
		d.ids = append(d.ids, graph.ID(d.str()))
		if strings.HasPrefix(d.rest, "]") {
			break
		}
		d.expect(",")
	}
	d.expect("]")
	return d.ids[start:len(d.ids):len(d.ids)]
}
