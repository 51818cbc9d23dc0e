package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// legacyEnter is a movement record as logs written before the binary
// body hold it: a JSON envelope around a JSON payload.
const legacyEnter = `{"type":"move.enter","data":{"T":2,"S":"alice","L":"r00_00"}}`

func mustMove(t testing.TB, typ string, m Move) Record {
	t.Helper()
	rec, err := MoveRecord(typ, m)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestRecordCodecRoundTrips: every record shape decodes to what was
// encoded and re-encodes to the same bytes; a movement record renders
// as the same JSON whichever encoding carried it, and its JSON form
// reads back.
func TestRecordCodecRoundTrips(t *testing.T) {
	enter := mustMove(t, TypeMoveEnter, Move{T: 2, S: "alice", L: "r00_00"})
	for _, rec := range []Record{
		enter,
		mustMove(t, TypeMoveLeave, Move{T: -1 << 62, S: "", L: "SCE.Dean's Office"}),
		{Type: "authz.add", Data: json.RawMessage(`{"ID":3,"Subject":"alice"}`)},
		{Type: TypeMoveEnter, Data: json.RawMessage(`{"T":2,"S":"alice","L":"r00_00"}`)},
	} {
		body, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("%s: %v", rec.Data, err)
		}
		got, err := DecodeRecord(body)
		if err != nil || got.Type != rec.Type || !bytes.Equal(got.Data, rec.Data) {
			t.Fatalf("%s: decoded %s %s, %v", rec.Data, got.Type, got.Data, err)
		}
		again, err := AppendRecord(nil, got)
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("%s: re-encoded %q, want %q", rec.Data, again, body)
		}
	}
	if body, _ := AppendRecord(nil, enter); len(body) != 15 || body[0] == '{' {
		t.Fatalf("binary enter body = %q", body)
	}

	legacy, err := DecodeRecord([]byte(legacyEnter))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{enter, legacy} {
		out, err := json.Marshal(rec)
		if err != nil || string(out) != legacyEnter {
			t.Fatalf("JSON of %q = %s, %v; want %s", rec.Data, out, err, legacyEnter)
		}
		var back Record
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatal(err)
		}
		if m, err := DecodeMove(back.Data); err != nil || m != (Move{T: 2, S: "alice", L: "r00_00"}) {
			t.Fatalf("parsed back %+v, %v", m, err)
		}
	}
}

// TestRecordCodecRejects: a body that is not a well-formed record is
// ErrCorrupt, and a movement record whose Data does not match its type
// does not encode.
func TestRecordCodecRejects(t *testing.T) {
	for _, body := range [][]byte{
		nil,
		{'{'},
		{9, 4, 0, 0},               // unknown kind
		{moveEnter, 4, 1},          // short subject
		{moveEnter, 4, 0},          // no location
		{moveEnter, 4, 0, 0, 'x'},  // trailing byte
		{moveEnter, 0x84, 0, 0, 0}, // non-minimal time
		{moveEnter, 4, 0x80, 0, 0}, // non-minimal length
	} {
		if _, err := DecodeRecord(body); !errors.Is(err, ErrCorrupt) {
			t.Errorf("DecodeRecord(%q) = %v, want ErrCorrupt", body, err)
		}
	}
	leave, err := AppendMove(nil, TypeMoveLeave, Move{T: 1, S: "a", L: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendRecord(nil, Record{Type: TypeMoveEnter, Data: leave}); err == nil {
		t.Error("an enter record with a leave body encoded")
	}
	if _, err := MoveRecord("tick", Move{}); err == nil {
		t.Error("a tick encoded as a movement record")
	}
}

// TestMoveCodecAllocs pins the movement body's costs: encoding into a
// reused buffer allocates nothing; decoding a frame allocates the
// record's own copy of the body, and decoding its payload the two
// strings.
func TestMoveCodecAllocs(t *testing.T) {
	m := Move{T: 1 << 30, S: "subject-0042", L: "r007_013"}
	rec := mustMove(t, TypeMoveEnter, m)
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(1000, func() {
		buf, _ = AppendMove(buf[:0], TypeMoveEnter, m)
		buf, _ = AppendRecord(buf[:0], rec)
	}); n != 0 {
		t.Errorf("encode allocates %.1f times, want 0", n)
	}
	body := append([]byte(nil), buf...)
	if n := testing.AllocsPerRun(1000, func() {
		got, _ := DecodeRecord(body)
		_, _ = DecodeMove(got.Data)
	}); n != 3 {
		t.Errorf("decode allocates %.1f times, want 3", n)
	}
}

// FuzzDecodeRecord: arbitrary bytes never panic the decoder, and a
// binary body it accepts re-encodes to itself.
func FuzzDecodeRecord(f *testing.F) {
	enter, _ := AppendMove(nil, TypeMoveEnter, Move{T: 2, S: "alice", L: "r00_00"})
	leave, _ := AppendMove(nil, TypeMoveLeave, Move{T: -7, S: "bob", L: "SCE.GO"})
	for _, seed := range [][]byte{[]byte(legacyEnter), enter, leave} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec, err := DecodeRecord(body)
		if err != nil {
			return
		}
		if _, err := json.Marshal(rec); err != nil && body[0] != '{' {
			t.Fatalf("accepted body %q does not render: %v", body, err)
		}
		if body[0] == '{' {
			return
		}
		again, err := AppendRecord(nil, rec)
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("body %q re-encodes to %q, %v", body, again, err)
		}
		if _, err := DecodeMove(rec.Data); err != nil {
			t.Fatalf("accepted body %q has no payload: %v", body, err)
		}
	})
}
