// Package frame is the negotiated binary framing of the streaming
// plane: length-prefixed, checksummed frames for observe/ack ingest,
// the committed-event feed, and (by construction) WAL replication —
// every frame is the WAL's own wire form,
//
//	u32 LE body length | u32 LE CRC32-IEEE(body) | body
//
// so the replication stream needs no re-framing at all and the other
// streams inherit the log's crash contract: a frame is delivered if and
// only if it arrived complete and checksum-valid. A cut mid-frame
// (header, body, or a checksum that does not match) ends the input at
// the last complete frame — the same torn-tail stance
// storage.LogReader and recovery take on the log file itself.
//
// Stream frames (observe, ack, event) put a one-byte type tag first in
// the body; payloads are fixed-width little-endian scalars plus
// length-prefixed strings, chosen so the steady-state decode loop
// allocates nothing: the reader reuses one body buffer, and repeated
// subject IDs come out of a per-connection intern table.
//
// Negotiation: NDJSON remains the default and the debugging surface.
// A client opts into this framing per connection with
// Content-Type: application/x-ltam-frame on POST /v1/stream/observe
// (acks come back framed too) and Accept: application/x-ltam-frame on
// GET /v1/stream/events.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"repro/internal/storage"
)

// ContentType is the negotiated media type of the binary framing.
const ContentType = "application/x-ltam-frame"

// header is the frame header size: u32 length + u32 CRC32.
const header = 8

// Frame body type tags (first body byte on the observe and event
// streams; replication frames carry raw WAL records and no tag).
const (
	tagObserve byte = 1
	tagAck     byte = 2
	tagEvent   byte = 3
)

// ErrChecksum reports a frame whose body does not match its CRC32 — on
// a live stream, a torn write; the input ends at the previous frame.
var ErrChecksum = errors.New("frame: checksum mismatch")

// ErrFrameLength reports a frame header with an impossible length.
var ErrFrameLength = errors.New("frame: bad frame length")

// bufPool recycles frame buffers across connections: encode buffers
// and reader body buffers both come from here, so a churn of short
// streaming connections reaches steady state without per-connection
// allocations.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4<<10)
		return &b
	},
}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { bufPool.Put(b) }

// RawReader reads length+CRC frames from a stream into one reused body
// buffer. The slice Next returns aliases that buffer and is valid only
// until the next call. Driven by one goroutine.
type RawReader struct {
	r    io.Reader
	body *[]byte
	hdr  [header]byte
}

// NewRawReader wraps r. Call Release when done with the reader to
// recycle its buffer.
func NewRawReader(r io.Reader) *RawReader {
	return &RawReader{r: r, body: getBuf()}
}

// Release returns the reader's buffer to the shared pool. The reader
// must not be used afterwards.
func (rr *RawReader) Release() {
	if rr.body != nil {
		putBuf(rr.body)
		rr.body = nil
	}
}

// Next returns the next frame's body. io.EOF reports a clean end (cut
// exactly on a frame boundary); io.ErrUnexpectedEOF a cut mid-frame;
// ErrChecksum/ErrFrameLength a torn or garbage tail. In every case the
// frames already returned are exactly the stream's complete prefix.
func (rr *RawReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(rr.r, rr.hdr[:]); err != nil {
		return nil, err // io.EOF clean, io.ErrUnexpectedEOF torn
	}
	length := binary.LittleEndian.Uint32(rr.hdr[0:4])
	sum := binary.LittleEndian.Uint32(rr.hdr[4:8])
	if length == 0 || length > storage.MaxFrameSize {
		return nil, fmt.Errorf("%w: %d", ErrFrameLength, length)
	}
	if cap(*rr.body) < int(length) {
		*rr.body = make([]byte, length)
	}
	body := (*rr.body)[:length]
	if _, err := io.ReadFull(rr.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(body) != sum {
		return nil, ErrChecksum
	}
	return body, nil
}

// begin reserves a frame header on dst, returning the extended slice
// and the header's offset for end.
func begin(dst []byte) ([]byte, int) {
	base := len(dst)
	return append(dst, make([]byte, header)...), base
}

// end seals the frame begun at base: length and CRC over everything
// appended since. It fails only on an over-large body.
func end(dst []byte, base int) ([]byte, error) {
	body := dst[base+header:]
	if len(body) == 0 || len(body) > storage.MaxFrameSize {
		return dst, fmt.Errorf("%w: %d", ErrFrameLength, len(body))
	}
	binary.LittleEndian.PutUint32(dst[base:base+4], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[base+4:base+8], crc32.ChecksumIEEE(body))
	return dst, nil
}

// --- append primitives ---------------------------------------------------

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendI64(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// appendStr16 appends a 16-bit length-prefixed string (the frame
// formats cap identifiers and error strings at 64 KiB; longer ones are
// a caller bug surfaced by the sealing check below).
func appendStr16(dst []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return dst, fmt.Errorf("frame: string field too long (%d bytes)", len(s))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}

// appendBlob32 appends a 32-bit length-prefixed byte blob.
func appendBlob32(dst []byte, b []byte) ([]byte, error) {
	if len(b) > storage.MaxFrameSize {
		return dst, fmt.Errorf("frame: blob field too long (%d bytes)", len(b))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...), nil
}

// --- decode cursor -------------------------------------------------------

// errShort reports a payload that ended before its declared fields —
// inside a checksum-valid frame this is a codec bug or a hostile peer,
// never a torn write.
var errShort = errors.New("frame: truncated payload")

// cursor is a bounds-checked little-endian payload reader: every read
// after an overrun yields zero values, and the first error latches. It
// can never read past the body it was given, so arbitrary bytes decode
// to an error, not a panic — the fuzz tests hold it to that.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if c.off+n > len(c.b) || c.off+n < c.off {
		c.err = errShort
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

// rem reports whether un-decoded bytes remain. Trailing fields appended
// by newer writers decode behind a rem() check, so a body produced by an
// older writer (or a hand-crafted test frame) still parses — the new
// fields just stay zero.
func (c *cursor) rem() bool { return c.err == nil && c.off < len(c.b) }

func (c *cursor) u8() byte {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (c *cursor) i64() int64 { return int64(c.u64()) }

func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

// str16 returns the raw bytes of a 16-bit length-prefixed string,
// aliasing the body.
func (c *cursor) str16() []byte {
	b := c.take(2)
	if b == nil {
		return nil
	}
	return c.take(int(binary.LittleEndian.Uint16(b)))
}

// blob32 returns the raw bytes of a 32-bit length-prefixed blob,
// aliasing the body.
func (c *cursor) blob32() []byte {
	b := c.take(4)
	if b == nil {
		return nil
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(len(c.b)) {
		c.err = errShort
		return nil
	}
	return c.take(int(n))
}
