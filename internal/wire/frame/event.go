// Binary event codec: the committed-event feed's framing. Record
// payloads ride VERBATIM — the event frame embeds the WAL record's type
// string and raw JSON data bytes unmodified — so a binary subscriber
// replaying Records through core.Replica.ApplyRecord reconstructs
// exactly the same state as an NDJSON one (the equivalence test holds
// both to that).
//
// Event body:
//
//	tag=3 | kind u8 | flags u8 (bit0 alert, bit1 record)
//	| seq u64 | time i64 | auth u64 | alertSeq u64
//	| subject str16 | location str16 | name str16 | error str16
//	| [record type str16 + data blob32]  (flag bit1)
//	| [alert JSON blob32]                (flag bit0)
package frame

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/audit"
	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/storage"
	"repro/internal/stream"
)

const (
	eventFlagAlert  byte = 1 << 0
	eventFlagRecord byte = 1 << 1
)

// eventKinds maps the wire byte to the EventKind. Byte 0 is reserved
// (an absent/invalid kind); the order is frozen — append only.
var eventKinds = []stream.EventKind{
	1:  stream.KindEnter,
	2:  stream.KindLeave,
	3:  stream.KindGrant,
	4:  stream.KindRevoke,
	5:  stream.KindResolve,
	6:  stream.KindRuleAdd,
	7:  stream.KindRuleRemove,
	8:  stream.KindProfilePut,
	9:  stream.KindProfileRemove,
	10: stream.KindTick,
	11: stream.KindAlert,
	12: stream.KindError,
}

// kindBytes is the inverse of eventKinds.
var kindBytes = func() map[stream.EventKind]byte {
	m := make(map[stream.EventKind]byte, len(eventKinds))
	for b, k := range eventKinds {
		if k != "" {
			m[k] = byte(b)
		}
	}
	return m
}()

// AppendEvent appends one framed feed event to dst.
func AppendEvent(dst []byte, ev *stream.Event) ([]byte, error) {
	kb, ok := kindBytes[ev.Kind]
	if !ok {
		return dst, fmt.Errorf("frame: unknown event kind %q", ev.Kind)
	}
	dst, base := begin(dst)
	var flags byte
	if ev.Alert != nil {
		flags |= eventFlagAlert
	}
	if ev.Record != nil {
		flags |= eventFlagRecord
	}
	dst = append(dst, tagEvent, kb, flags)
	dst = appendU64(dst, ev.Seq)
	dst = appendI64(dst, int64(ev.Time))
	dst = appendU64(dst, uint64(ev.Auth))
	dst = appendU64(dst, ev.AlertSeq)
	var err error
	if dst, err = appendStr16(dst, string(ev.Subject)); err != nil {
		return dst[:base], err
	}
	if dst, err = appendStr16(dst, string(ev.Location)); err != nil {
		return dst[:base], err
	}
	if dst, err = appendStr16(dst, ev.Name); err != nil {
		return dst[:base], err
	}
	if dst, err = appendStr16(dst, ev.Error); err != nil {
		return dst[:base], err
	}
	if ev.Record != nil {
		if dst, err = appendStr16(dst, ev.Record.Type); err != nil {
			return dst[:base], err
		}
		if dst, err = appendBlob32(dst, ev.Record.Data); err != nil {
			return dst[:base], err
		}
	}
	if ev.Alert != nil {
		blob, merr := json.Marshal(ev.Alert)
		if merr != nil {
			return dst[:base], merr
		}
		if dst, err = appendBlob32(dst, blob); err != nil {
			return dst[:base], err
		}
	}
	return end(dst, base)
}

// DecodeEvent decodes one event body (as returned by RawReader.Next)
// into ev. The decoded event owns its memory — record data and strings
// are copied out of the frame buffer.
func DecodeEvent(body []byte, ev *stream.Event) error {
	if len(body) == 0 || body[0] != tagEvent {
		return fmt.Errorf("frame: expected event frame, got tag %d", bodyTag(body))
	}
	c := cursor{b: body}
	c.u8() // tag
	kb := c.u8()
	flags := c.u8()
	if int(kb) >= len(eventKinds) || eventKinds[kb] == "" {
		return fmt.Errorf("frame: unknown event kind byte %d", kb)
	}
	*ev = stream.Event{
		Kind:     eventKinds[kb],
		Seq:      c.u64(),
		Time:     interval.Time(c.i64()),
		Auth:     authz.ID(c.u64()),
		AlertSeq: c.u64(),
	}
	ev.Subject = profile.SubjectID(c.str16())
	ev.Location = graph.ID(c.str16())
	ev.Name = string(c.str16())
	ev.Error = string(c.str16())
	if flags&eventFlagRecord != 0 {
		typ := string(c.str16())
		data := c.blob32()
		if c.err == nil {
			ev.Record = &storage.Record{Type: typ, Data: append(json.RawMessage(nil), data...)}
		}
	}
	if flags&eventFlagAlert != 0 {
		blob := c.blob32()
		if c.err == nil {
			var a audit.Alert
			if err := json.Unmarshal(blob, &a); err != nil {
				return fmt.Errorf("frame: bad alert payload: %w", err)
			}
			ev.Alert = &a
		}
	}
	return c.err
}

// EventWriter encodes feed events onto one subscriber connection,
// reusing a pooled buffer. The caller owns flushing (the HTTP handler
// batches while the subscriber queue has backlog, exactly as it does
// for NDJSON).
type EventWriter struct {
	w   io.Writer
	buf *[]byte
}

// NewEventWriter wraps w. Call Release when the subscription ends.
func NewEventWriter(w io.Writer) *EventWriter {
	return &EventWriter{w: w, buf: getBuf()}
}

// Release recycles the writer's encode buffer.
func (ew *EventWriter) Release() {
	if ew.buf != nil {
		putBuf(ew.buf)
		ew.buf = nil
	}
}

// WriteEvent encodes one event onto the stream.
func (ew *EventWriter) WriteEvent(ev *stream.Event) error {
	out, err := AppendEvent((*ew.buf)[:0], ev)
	if err != nil {
		return err
	}
	*ew.buf = out[:0]
	_, err = ew.w.Write(out)
	return err
}

// EventReader decodes one subscription's framed feed (the client
// half). Next returns events that own their memory.
type EventReader struct {
	rr *RawReader
}

// NewEventReader wraps r. Call Release when the subscription ends.
func NewEventReader(r io.Reader) *EventReader {
	return &EventReader{rr: NewRawReader(r)}
}

// Release recycles the reader's frame buffer.
func (er *EventReader) Release() { er.rr.Release() }

// Next returns the next event; io.EOF at the clean end of the feed.
func (er *EventReader) Next(ev *stream.Event) error {
	body, err := er.rr.Next()
	if err != nil {
		return err
	}
	return DecodeEvent(body, ev)
}
