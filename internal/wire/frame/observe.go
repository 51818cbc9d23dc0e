// Binary observe/ack codec: the ingest stream's two directions. The
// server-side ObserveReader and AckWriter satisfy stream.FrameReader
// and stream.AckWriter, so the shared chunker runs unchanged over
// either framing; ObserveWriter and AckReader are the client halves.
//
// Observe and ack bodies:
//
//	Observe: tag=1 | flags u8 (bit0 End) | time i64 | x f64 | y f64
//	         | subject str16 | fseq u64
//	Ack:     tag=2 | flags u8 (bit0 Final) | acked u64 | seq u64
//	         | granted u64 | denied u64 | moved u64 | errors u64
//	         | lastError str16 | error str16 | resume u64
//
// The trailing fseq/resume fields carry the resume-session coordinates
// (stream.ObserveFrame.Seq / stream.Ack.Resume). They sit at the body
// END and decode only when present, so pre-session bodies still parse.
package frame

import (
	"fmt"
	"io"

	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/stream"
)

const (
	observeFlagEnd byte = 1 << 0
	ackFlagFinal   byte = 1 << 0
)

// AppendObserve appends one framed observe frame to dst.
func AppendObserve(dst []byte, f *stream.ObserveFrame) ([]byte, error) {
	dst, base := begin(dst)
	var flags byte
	if f.End {
		flags |= observeFlagEnd
	}
	dst = append(dst, tagObserve, flags)
	dst = appendI64(dst, int64(f.Time))
	dst = appendF64(dst, f.X)
	dst = appendF64(dst, f.Y)
	var err error
	if dst, err = appendStr16(dst, string(f.Subject)); err != nil {
		return dst[:base], err
	}
	dst = appendU64(dst, f.Seq)
	return end(dst, base)
}

// decodeObserve decodes an observe body (tag already verified). intern
// maps the subject bytes to a (shared) string without allocating on
// repeats; nil falls back to plain string conversion.
func decodeObserve(body []byte, f *stream.ObserveFrame, intern func([]byte) profile.SubjectID) error {
	c := cursor{b: body}
	c.u8() // tag
	flags := c.u8()
	f.End = flags&observeFlagEnd != 0
	f.Time = interval.Time(c.i64())
	f.X = c.f64()
	f.Y = c.f64()
	subj := c.str16()
	f.Seq = 0
	if c.rem() {
		f.Seq = c.u64()
	}
	if c.err != nil {
		return c.err
	}
	if intern != nil {
		f.Subject = intern(subj)
	} else {
		f.Subject = profile.SubjectID(subj)
	}
	return nil
}

// ObserveReader is the server's read side of one binary ingest
// connection: length+CRC frames in, stream.ObserveFrame out, with a
// per-connection subject intern table so the steady-state loop — the
// same subjects moving again and again — allocates nothing.
type ObserveReader struct {
	rr       *RawReader
	subjects map[string]profile.SubjectID
}

// NewObserveReader wraps r. Call Release when the connection ends.
func NewObserveReader(r io.Reader) *ObserveReader {
	return &ObserveReader{rr: NewRawReader(r), subjects: make(map[string]profile.SubjectID)}
}

// Release recycles the reader's frame buffer.
func (o *ObserveReader) Release() { o.rr.Release() }

// intern returns the shared SubjectID for b. The map lookup keyed by
// string(b) does not allocate on a hit (the compiler elides the
// conversion), so only the FIRST sighting of a subject costs a string.
func (o *ObserveReader) intern(b []byte) profile.SubjectID {
	if s, ok := o.subjects[string(b)]; ok {
		return s
	}
	s := profile.SubjectID(b)
	o.subjects[string(s)] = s
	return s
}

// ReadFrame decodes the next observe frame (stream.FrameReader).
func (o *ObserveReader) ReadFrame(f *stream.ObserveFrame) error {
	body, err := o.rr.Next()
	if err != nil {
		return err
	}
	if len(body) == 0 || body[0] != tagObserve {
		return fmt.Errorf("frame: expected observe frame, got tag %d", bodyTag(body))
	}
	return decodeObserve(body, f, o.intern)
}

// AppendAck appends one framed cumulative ack to dst.
func AppendAck(dst []byte, a *stream.Ack) ([]byte, error) {
	dst, base := begin(dst)
	var flags byte
	if a.Final {
		flags |= ackFlagFinal
	}
	dst = append(dst, tagAck, flags)
	dst = appendU64(dst, a.Acked)
	dst = appendU64(dst, a.Seq)
	dst = appendU64(dst, a.Granted)
	dst = appendU64(dst, a.Denied)
	dst = appendU64(dst, a.Moved)
	dst = appendU64(dst, a.Errors)
	var err error
	if dst, err = appendStr16(dst, a.LastError); err != nil {
		return dst[:base], err
	}
	if dst, err = appendStr16(dst, a.Error); err != nil {
		return dst[:base], err
	}
	dst = appendU64(dst, a.Resume)
	return end(dst, base)
}

// DecodeAck decodes one ack body (as returned by RawReader.Next).
func DecodeAck(body []byte, a *stream.Ack) error {
	if len(body) == 0 || body[0] != tagAck {
		return fmt.Errorf("frame: expected ack frame, got tag %d", bodyTag(body))
	}
	c := cursor{b: body}
	c.u8() // tag
	flags := c.u8()
	*a = stream.Ack{
		Final:   flags&ackFlagFinal != 0,
		Acked:   c.u64(),
		Seq:     c.u64(),
		Granted: c.u64(),
		Denied:  c.u64(),
		Moved:   c.u64(),
		Errors:  c.u64(),
	}
	a.LastError = string(c.str16())
	a.Error = string(c.str16())
	if c.rem() {
		a.Resume = c.u64()
	}
	return c.err
}

// AckWriter is the server's write side of one binary ingest connection
// (stream.AckWriter). Each WriteAck is one buffered encode — into a
// pooled buffer reused for the connection's lifetime — and one Write on
// the underlying stream, which the HTTP handler wraps to flush.
type AckWriter struct {
	w   io.Writer
	buf *[]byte
}

// NewAckWriter wraps w. Call Release when the connection ends.
func NewAckWriter(w io.Writer) *AckWriter {
	return &AckWriter{w: w, buf: getBuf()}
}

// Release recycles the writer's encode buffer.
func (aw *AckWriter) Release() {
	if aw.buf != nil {
		putBuf(aw.buf)
		aw.buf = nil
	}
}

// WriteAck encodes and delivers one cumulative ack.
func (aw *AckWriter) WriteAck(a *stream.Ack) error {
	out, err := AppendAck((*aw.buf)[:0], a)
	if err != nil {
		return err
	}
	*aw.buf = out[:0]
	_, err = aw.w.Write(out)
	return err
}

// bodyTag reports a body's tag byte for error messages.
func bodyTag(body []byte) int {
	if len(body) == 0 {
		return -1
	}
	return int(body[0])
}
