// Log shipping: a Tailer follows a live WAL file that another process
// (or another goroutine) is appending to, yielding each intact frame in
// order. It is the replication primitive behind read-only replicas: the
// primary streams frames to the follower, and the follower's Tailer-like
// client applies them to its own copy of the state.
//
// The tail of a live WAL is routinely "torn": the writer may have pushed
// only part of a frame through its buffered writer, or a crash may have
// cut a frame short. A Tailer never treats an incomplete or
// checksum-failing tail as corruption — it stops at the last valid
// checksum, reports the partial frame's byte offset via State, and
// re-reads the same offset on the next call, succeeding once the writer
// completes the frame.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// ErrNoRecord reports that the log currently ends before the next
// complete frame: either exactly at a frame boundary (a clean tail) or
// inside a partially-written frame (a torn tail — see Tailer.State).
// Callers should retry after the writer has made progress.
var ErrNoRecord = errors.New("storage: no complete record available yet")

// ErrWALReset reports that the log file shrank below the tailer's read
// position — the writer truncated it (snapshot compaction). The tailer
// cannot continue; the follower must re-resolve its position against the
// primary's base sequence (and re-bootstrap if it fell behind it).
var ErrWALReset = errors.New("storage: wal reset underneath tailer")

// ErrSeqGap reports that a requested replication sequence number has
// been compacted into a snapshot and is no longer in the WAL. The
// follower must bootstrap from a snapshot instead of tailing.
var ErrSeqGap = errors.New("storage: requested sequence compacted into a snapshot")

// TailState describes where a scan over a log stopped.
type TailState struct {
	// NextSeq is the number of complete frames consumed: the file-local
	// sequence number of the next frame to read.
	NextSeq uint64
	// Offset is the byte offset of the first unconsumed byte — the start
	// of the trailing partial frame when Partial is set, otherwise the
	// clean end of the log. A tailer that re-reads from Offset once the
	// writer finishes the frame observes it exactly once.
	Offset int64
	// Partial reports that PartialBytes bytes of an incomplete (or
	// not-yet-checksum-valid) frame follow Offset.
	Partial      bool
	PartialBytes int64
}

// Frame encodes one frame body into its wire form: 4-byte little-endian
// length, 4-byte CRC32 (IEEE), body. It is the exact on-disk layout, so
// a replication stream is byte-compatible with the log it was read from.
func Frame(body []byte) []byte {
	return appendWireFrame(make([]byte, 0, frameHeader+len(body)), body)
}

// appendWireFrame appends body in its wire form onto dst.
func appendWireFrame(dst, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	return append(dst, body...)
}

// Tailer reads frames from a WAL file that may still be growing. It is
// not safe for concurrent use by multiple goroutines (wrap externally);
// it IS safe to run against a file another goroutine or process appends
// to, because it only ever reads bytes behind a validated checksum.
type Tailer struct {
	f    *os.File
	path string
	// off is the byte offset of the next unread frame; seq counts the
	// complete frames consumed so far (file-local, starting at 0).
	off int64
	seq uint64
	// partialBytes is the torn-tail size observed by the last failed
	// read, for State.
	partialBytes int64
	// scratch is the frame buffer Next decodes from and Skip reads into
	// and discards.
	scratch []byte
}

// OpenTailer opens the log at path for following. The file must exist
// (the writer creates it on OpenWAL); a follower that starts before its
// primary should retry.
func OpenTailer(path string) (*Tailer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open tailer: %w", err)
	}
	return &Tailer{f: f, path: path}, nil
}

// Close releases the underlying file.
func (t *Tailer) Close() error { return t.f.Close() }

// Seq returns the file-local sequence number of the next frame to read.
func (t *Tailer) Seq() uint64 { return t.seq }

// State reports the tailer's position, including a trailing partial
// frame's offset and size as of the most recent read attempt.
func (t *Tailer) State() TailState {
	return TailState{
		NextSeq:      t.seq,
		Offset:       t.off,
		Partial:      t.partialBytes > 0,
		PartialBytes: t.partialBytes,
	}
}

// NextBody returns the next frame's body, advancing the tailer. Errors
// are AppendNext's.
func (t *Tailer) NextBody() ([]byte, error) {
	fr, err := t.AppendNext(nil)
	if err != nil {
		return nil, err
	}
	return fr[frameHeader:], nil
}

// AppendNext appends the next frame — header AND body, the exact wire
// form Frame produces — onto dst and returns the extended slice. It is
// the allocation-free shipping primitive: a caller that keeps reusing
// the returned slice reads an entire replication batch with zero
// steady-state allocations, because the bytes on disk already ARE the
// bytes on the wire. The frame's checksum is validated before the
// append is kept. It returns ErrNoRecord when the log ends before the
// next complete, checksum-valid frame (retry later; State reports how
// many bytes of a partial frame are pending), and ErrWALReset when the
// file shrank below the current position; dst is returned unextended on
// any error.
func (t *Tailer) AppendNext(dst []byte) ([]byte, error) {
	seq := t.seq
	out, err := t.appendFrames(dst, 1, len(dst)+1)
	if err == nil && t.seq == seq {
		err = ErrNoRecord
	}
	if err != nil {
		return dst, err
	}
	return out, nil
}

// appendFrames appends up to n whole, checksum-valid frames onto dst,
// stopping once dst holds capLen bytes or more, and advances past them.
// It stats the file once and reads it in windows — one ReadAt fills dst
// up to capLen, and one more finishes a frame the window cut — then
// splits and checks the frames in memory. It stops short, with a nil
// error, at the log's end or at a torn or not-yet-valid frame, whose
// pending bytes State then reports. ErrWALReset means the file shrank
// below the position; on any error the frames already appended stay in
// the returned slice and the position stays past them.
func (t *Tailer) appendFrames(dst []byte, n uint64, capLen int) ([]byte, error) {
	st, err := t.f.Stat()
	if err != nil {
		return dst, err
	}
	size := st.Size()
	if size < t.off {
		return dst, ErrWALReset
	}
	for end := t.seq + n; t.seq < end && len(dst) < capLen; {
		avail := size - t.off
		if avail < frameHeader {
			t.partialBytes = avail
			return dst, nil
		}
		// Read to capLen, or at least a header, but not past the stat'd
		// end: bytes beyond it belong to the next call.
		base := len(dst)
		if dst, err = t.readAt(dst, min(avail, int64(max(capLen-base, frameHeader))), t.off); err != nil {
			return dst[:base], err
		}
		p, whole := base, true
		for t.seq < end && p < capLen && p+frameHeader <= len(dst) {
			length := binary.LittleEndian.Uint32(dst[p : p+4])
			sum := binary.LittleEndian.Uint32(dst[p+4 : p+8])
			frameLen := frameHeader + int64(length)
			// On a live log a garbage length can only be an in-flight
			// write reaching disk out of order; treat it as a torn tail
			// and let the writer finish. (True mid-log corruption parks
			// the tailer here — the same stop-at-last-valid-checksum
			// stance recovery takes.)
			if length == 0 || length > MaxFrameSize || frameLen > size-t.off {
				whole = false
				break
			}
			if short := p + int(frameLen) - len(dst); short > 0 {
				// Whole on disk, cut by the window: read its remainder.
				if dst, err = t.readAt(dst, int64(short), t.off+int64(len(dst)-p)); err != nil {
					return dst[:p], err
				}
			}
			if len(dst) < p+int(frameLen) || crc32.ChecksumIEEE(dst[p+frameHeader:p+int(frameLen)]) != sum {
				whole = false
				break
			}
			p += int(frameLen)
			t.off += frameLen
			t.seq++
		}
		dst = dst[:p]
		if !whole || p == base {
			t.partialBytes = size - t.off
			return dst, nil
		}
	}
	t.partialBytes = 0
	return dst, nil
}

// readAt appends up to n bytes of the file at off onto dst. A short read
// at the end of the file is not an error: a file that shrank is caught
// by the caller's checks.
func (t *Tailer) readAt(dst []byte, n, off int64) ([]byte, error) {
	base := len(dst)
	dst = slices.Grow(dst, int(n))[:base+int(n)]
	got, err := t.f.ReadAt(dst[base:], off)
	if err != nil && !errors.Is(err, io.EOF) {
		return dst[:base], err
	}
	return dst[:base+got], nil
}

// Next decodes the next frame into a Record. Framing-level waits surface
// as ErrNoRecord/ErrWALReset; a frame that passes its checksum but does
// not decode is real corruption (ErrCorrupt).
func (t *Tailer) Next() (Record, error) {
	var err error
	if t.scratch, err = t.AppendNext(t.scratch[:0]); err != nil {
		return Record{}, err
	}
	return DecodeRecord(t.scratch[frameHeader:])
}

// Skip consumes up to n frames without keeping them, returning how many
// it consumed. It stops early (with a nil error) at a clean or torn
// tail; callers resume by polling. It is how a reader seeks to its
// resume sequence.
func (t *Tailer) Skip(n uint64) (uint64, error) {
	start := t.seq
	for t.seq-start < n {
		seq := t.seq
		var err error
		t.scratch, err = t.appendFrames(t.scratch[:0], n-(t.seq-start), batchBytes)
		if err != nil || t.seq == seq {
			return t.seq - start, err
		}
	}
	return n, nil
}
