package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/profile"
)

// encodeReference is what the codec must reproduce: the server's
// response writer before the codec, json.NewEncoder(w).Encode.
func encodeReference(t testing.TB, r InaccessibleResponse) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func ids(n int) []graph.ID {
	out := make([]graph.ID, n)
	for i := range out {
		out[i] = graph.ID(fmt.Sprintf("B.F%d.R%03d", i%4, i))
	}
	return out
}

var codecCases = []InaccessibleResponse{
	{},
	{Subject: "Alice"},
	{Subject: "Alice", Inaccessible: []graph.ID{}, Accessible: []graph.ID{}},
	{Subject: "Alice", Inaccessible: []graph.ID{"SCE.GO"}, Accessible: nil},
	{Subject: "Alice", Inaccessible: nil, Accessible: []graph.ID{"SCE.Dean's Office", "CAIS"}},
	{Subject: "u<1>&", Inaccessible: []graph.ID{"a\"b", `c\d`, "e\nf\tg\b\f\r", "\x00\x1f\x7f"}},
	{Subject: "ünï", Inaccessible: []graph.ID{"日本", "a\u2028b\u2029c", "bad\xffutf8", "\xe2\x80"}, Accessible: []graph.ID{"", "\u2028", "\u2029"}},
	{Subject: "s", Inaccessible: ids(64), Accessible: ids(3)},
}

// decodeBodies seed the decoder beside the codec's own output: a
// canonical body without the trailing newline, then bodies that
// DecodeInaccessible must hand to json.Unmarshal.
var decodeBodies = []string{
	`{"subject":"a","inaccessible":["x"],"accessible":["y"]}`,
	`{"subject":"a", "inaccessible":["x"],"accessible":["y"]}` + "\n",
	`{"accessible":["y"],"subject":"a","inaccessible":["x"]}`,
	`{"subject":"a","inaccessible":["x"],"accessible":["y"],"extra":1}`,
	`{"Subject":"a","inaccessible":["x"],"accessible":["y"]}`,
	`{"subject":"a\u0041","inaccessible":["x\"y"],"accessible":["\/"]}`,
	`{"subject":"a","inaccessible":["x",],"accessible":[]}`,
	`{"subject":"a","inaccessible":["x"],"accessible":null}}`,
	`{"subject":"a","inaccessible":["x"],"accessible":null}` + "\n\n",
	`{"subject":"a","inaccessible":["x"],"accessible":nul`,
	`{"subject":"a","inaccessible":["x""y"],"accessible":[]}`,
	`{"subject":"a","inaccessible":[1],"accessible":[]}`,
	`{"subject":"` + "bad\xff" + `","inaccessible":[],"accessible":[]}`,
	`{"subject":"` + "tab\there" + `","inaccessible":[],"accessible":[]}`,
	`{"subject":"a","inaccessible":[` + "\"\xe2\x80\xa8\"" + `],"accessible":[]}`,
	``, `null`, `{}`, `[`,
}

func checkDecodeMatches(t *testing.T, body []byte) {
	t.Helper()
	got, gotErr := DecodeInaccessible(body)
	var want InaccessibleResponse
	wantErr := json.Unmarshal(body, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: codec err %v, json.Unmarshal err %v", body, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: codec %#v, json.Unmarshal %#v", body, got, want)
	}
}

// FuzzInaccessibleCodec is the differential check of both halves of the
// codec against encoding/json: AppendInaccessible must equal
// json.Encoder.Encode byte for byte, and DecodeInaccessible must agree
// with json.Unmarshal on any body (its own output and arbitrary bytes).
// Lists are the '|'-separated fields of inacc and acc; bits 0–1 of shape
// make a list nil, bits 2–3 make it empty.
func FuzzInaccessibleCodec(f *testing.F) {
	join := func(ids []graph.ID) string {
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = string(id)
		}
		return strings.Join(parts, "|")
	}
	for _, r := range codecCases {
		var shape byte
		for i, l := range [][]graph.ID{r.Inaccessible, r.Accessible} {
			if l == nil {
				shape |= 1 << i
			} else if len(l) == 0 {
				shape |= 4 << i
			}
		}
		f.Add(string(r.Subject), join(r.Inaccessible), join(r.Accessible), shape, AppendInaccessible(nil, r))
	}
	for _, body := range decodeBodies {
		f.Add("s", "a|b<c>|d&e", " |\xff|\"\\", byte(0), []byte(body))
	}
	f.Fuzz(func(t *testing.T, subject, inacc, acc string, shape byte, body []byte) {
		list := func(s string, nilBit, emptyBit byte) []graph.ID {
			switch {
			case shape&nilBit != 0:
				return nil
			case shape&emptyBit != 0:
				return []graph.ID{}
			}
			var out []graph.ID
			for _, id := range strings.Split(s, "|") {
				out = append(out, graph.ID(id))
			}
			return out
		}
		r := InaccessibleResponse{
			Subject:      profile.SubjectID(subject),
			Inaccessible: list(inacc, 1, 4),
			Accessible:   list(acc, 2, 8),
		}
		enc := AppendInaccessible(nil, r)
		if want := encodeReference(t, r); !bytes.Equal(enc, want) {
			t.Fatalf("codec\n%q\nencoding/json\n%q", enc, want)
		}
		checkDecodeMatches(t, enc)
		checkDecodeMatches(t, body)
	})
}

func TestInaccessibleCodecAllocs(t *testing.T) {
	r := InaccessibleResponse{Subject: "u042", Inaccessible: ids(200), Accessible: ids(56)}
	buf := AppendInaccessible(nil, r)
	if n := testing.AllocsPerRun(100, func() { buf = AppendInaccessible(buf[:0], r) }); n != 0 {
		t.Errorf("AppendInaccessible into a reused buffer: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeInaccessible(buf); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("DecodeInaccessible of a canonical 256-ID body: %v allocs, want <= 3", n)
	}
}

// TestClientRejectsOversizedResponse: a body one byte over the 16 MiB
// read bound is an explicit error, with or without Content-Length, not
// a truncated body that fails to decode.
func TestClientRejectsOversizedResponse(t *testing.T) {
	for _, tc := range []struct {
		name          string
		size          int
		contentLength bool
		wantErr       string
	}{
		{"over-chunked", maxResponse + 1, false, "response exceeds 16 MiB"},
		{"over-content-length", maxResponse + 1, true, "response exceeds 16 MiB"},
		{"at-bound", maxResponse, true, "decode"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.contentLength {
					w.Header().Set("Content-Length", fmt.Sprint(tc.size))
				}
				_, _ = w.Write(bytes.Repeat([]byte{' '}, tc.size))
			}))
			defer ts.Close()
			_, err := NewClient(ts.URL).Authorizations("", "")
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
}

func BenchmarkInaccessibleCodec(b *testing.B) {
	for _, n := range []int{64, 256} {
		r := InaccessibleResponse{Subject: "u042", Inaccessible: ids(n * 3 / 4), Accessible: ids(n / 4)}
		body := AppendInaccessible(nil, r)
		b.Run(fmt.Sprintf("encode-json/ids=%d", n), func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for range b.N {
				buf.Reset()
				_ = json.NewEncoder(&buf).Encode(r)
			}
		})
		b.Run(fmt.Sprintf("encode-codec/ids=%d", n), func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for range b.N {
				buf = AppendInaccessible(buf[:0], r)
			}
		})
		b.Run(fmt.Sprintf("decode-json/ids=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				var out InaccessibleResponse
				if err := json.Unmarshal(body, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("decode-codec/ids=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := DecodeInaccessible(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
