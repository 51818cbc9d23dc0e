// The record codec: the one place that knows what a frame body holds.
// Every writer of a frame (the WAL, a relay re-encoding an applied
// record) encodes with AppendRecord, and every reader of one (recovery,
// followers, relays, the event bus) decodes with DecodeRecord.
//
// A body is one of two formats, told apart by its first byte:
//
//   - a JSON envelope {"type":...,"data":...}, which always starts with
//     '{'. Admin records (grants, rules, profiles, ticks) are written this
//     way, and so was every record of a log written before the movement
//     body existed, so those logs still replay;
//
//   - a binary movement body for move.enter and move.leave, the records
//     ingest writes and nearly all of the log:
//
//     kind u8 | T zigzag varint | len(S) uvarint | S | len(L) uvarint | L
//
//     where kind is moveEnter or moveLeave, neither of which is '{'.
//
// A binary movement record keeps its whole body as its Data, so it is
// re-encoded by copying. The body is canonical — minimal varints and no
// trailing bytes, enforced on decode — so decoding a frame and encoding
// the record again reproduces the frame byte for byte: a relay's
// re-encoded frame equals the upstream one.
package storage

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
)

// The movement record types, and the kind bytes that open their binary
// bodies.
const (
	TypeMoveEnter = "move.enter"
	TypeMoveLeave = "move.leave"

	moveEnter byte = 1
	moveLeave byte = 2
)

// Move is a movement record's payload: subject S entered (or left)
// location L at time T. Its JSON form, {"T":..,"S":..,"L":..}, is the
// payload shape movement records had before the binary body, and the
// shape a record's JSON rendering still shows.
type Move struct {
	T int64
	S string
	L string
}

// envelope is the JSON form of a record.
type envelope struct {
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

var errMoveBody = errors.New("storage: malformed movement body")

// MoveRecord returns the movement record of type typ (TypeMoveEnter or
// TypeMoveLeave) with payload m, in the binary body.
func MoveRecord(typ string, m Move) (Record, error) {
	data, err := AppendMove(nil, typ, m)
	if err != nil {
		return Record{}, err
	}
	return Record{Type: typ, Data: data}, nil
}

// AppendMove appends the binary body of the movement record of type typ
// with payload m onto dst — the Data of a record MoveRecord would
// return. It allocates only to grow dst.
func AppendMove(dst []byte, typ string, m Move) ([]byte, error) {
	var kind byte
	switch typ {
	case TypeMoveEnter:
		kind = moveEnter
	case TypeMoveLeave:
		kind = moveLeave
	default:
		return dst, fmt.Errorf("storage: %q is not a movement record type", typ)
	}
	dst = append(dst, kind)
	dst = binary.AppendVarint(dst, m.T)
	dst = binary.AppendUvarint(dst, uint64(len(m.S)))
	dst = append(dst, m.S...)
	dst = binary.AppendUvarint(dst, uint64(len(m.L)))
	return append(dst, m.L...), nil
}

// DecodeMove decodes a movement record's Data: the binary body, or the
// JSON object of a record written before it (or parsed back from a
// record's JSON rendering).
func DecodeMove(data []byte) (Move, error) {
	if !binaryMove(data) {
		var m Move
		err := json.Unmarshal(data, &m)
		return m, err
	}
	_, t, s, l, err := parseMove(data)
	if err != nil {
		return Move{}, err
	}
	return Move{T: t, S: string(s), L: string(l)}, nil
}

// parseMove splits a binary movement body into its fields without
// copying, rejecting any body that would not re-encode to itself.
func parseMove(b []byte) (typ string, t int64, s, l []byte, err error) {
	if len(b) == 0 {
		return "", 0, nil, nil, errMoveBody
	}
	switch b[0] {
	case moveEnter:
		typ = TypeMoveEnter
	case moveLeave:
		typ = TypeMoveLeave
	default:
		return "", 0, nil, nil, fmt.Errorf("storage: unknown record kind byte %d", b[0])
	}
	c := moveCursor{b: b[1:]}
	t = c.varint()
	s = c.str()
	l = c.str()
	if c.bad || len(c.b) != 0 {
		return "", 0, nil, nil, errMoveBody
	}
	return typ, t, s, l, nil
}

// moveCursor reads a binary movement body. It latches the first fault:
// a short field, or a varint longer than its minimal encoding.
type moveCursor struct {
	b   []byte
	bad bool
}

// minimal reports whether the n-byte varint at the head of c.b is in its
// shortest form: a trailing zero byte would be a redundant continuation.
func (c *moveCursor) minimal(n int) bool {
	return n > 0 && (n == 1 || c.b[n-1] != 0)
}

func (c *moveCursor) varint() int64 {
	v, n := binary.Varint(c.b)
	if c.bad || !c.minimal(n) {
		c.bad = true
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *moveCursor) str() []byte {
	v, n := binary.Uvarint(c.b)
	if c.bad || !c.minimal(n) || v > uint64(len(c.b)-n) {
		c.bad = true
		return nil
	}
	s := c.b[n : n+int(v)]
	c.b = c.b[n+int(v):]
	return s
}

// binaryMove reports whether a record's Data is a binary movement body:
// it opens with a kind byte, which no JSON value does.
func binaryMove(data []byte) bool {
	return len(data) > 0 && (data[0] == moveEnter || data[0] == moveLeave)
}

// AppendRecord appends rec's frame body onto dst: a binary movement
// body verbatim (checked to be well formed and of rec's type), any other
// record as a JSON envelope.
func AppendRecord(dst []byte, rec Record) ([]byte, error) {
	if !binaryMove(rec.Data) {
		body, err := json.Marshal(envelope{Type: rec.Type, Data: rec.Data})
		if err != nil {
			return dst, fmt.Errorf("storage: encode record: %w", err)
		}
		return append(dst, body...), nil
	}
	typ, _, _, _, err := parseMove(rec.Data)
	if err != nil {
		return dst, err
	}
	if typ != rec.Type {
		return dst, fmt.Errorf("storage: %s record carries a %s body", rec.Type, typ)
	}
	return append(dst, rec.Data...), nil
}

// DecodeRecord decodes one frame body. The record owns its memory, so
// the caller may reuse body. A body that does not decode is ErrCorrupt.
func DecodeRecord(body []byte) (Record, error) {
	if len(body) > 0 && body[0] == '{' {
		var env envelope
		if err := json.Unmarshal(body, &env); err != nil {
			return Record{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return Record{Type: env.Type, Data: env.Data}, nil
	}
	typ, _, _, _, err := parseMove(body)
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return Record{Type: typ, Data: append([]byte(nil), body...)}, nil
}

// MarshalJSON renders the record as its JSON envelope. A binary movement
// body renders as the {"T","S","L"} payload object, the shape JSON
// consumers (the NDJSON feed) have always seen; DecodeMove reads that
// object back.
func (r Record) MarshalJSON() ([]byte, error) {
	data := r.Data
	if binaryMove(data) {
		m, err := DecodeMove(data)
		if err != nil {
			return nil, err
		}
		if data, err = json.Marshal(m); err != nil {
			return nil, err
		}
	}
	return json.Marshal(envelope{Type: r.Type, Data: data})
}
