// The log reader: the one loop that follows a served frame log. Every
// consumer of a primary's WAL or a cascading follower's relay log — the
// HTTP replication stream, the same-process replication source, the event
// bus's live pump and its catch-up readers — reads through a LogReader.
//
// A served log is positioned in the global sequence space by its window
// (base, total): base is the global sequence of the file's first frame,
// total the frontier a consumer may read up to (durable on a primary,
// applied on a relay). Compaction truncates the file in place — the
// inode is reused — and moves base. Frames carry no sequence number, so a
// read that raced a truncation can return new-epoch bytes at old-epoch
// offsets: a file regrown past the reader's offset looks exactly like
// the old one. A Log publishes its window under the same lock its Reset
// holds, so an unchanged base observed AFTER a batch of reads proves no
// truncation preceded them. Read returns a batch only after that
// re-check.
//
// The tail of a live log is routinely torn: the writer may have pushed
// only part of a frame, or a crash may have cut one short. A reader never
// treats an incomplete or checksum-failing tail as corruption — it stops
// at the last valid checksum and re-reads the same offset on the next
// call, succeeding once the writer completes the frame.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// ErrWALReset reports that the log was truncated underneath a reader
// (compaction). The reader cannot continue; its consumer re-resolves its
// position against the log's base (and re-bootstraps if it fell behind
// it).
var ErrWALReset = errors.New("storage: wal reset underneath reader")

// ErrSeqGap reports that a requested replication sequence number has
// been compacted into a snapshot and is no longer in the log. The
// follower must bootstrap from a snapshot instead of tailing.
var ErrSeqGap = errors.New("storage: requested sequence compacted into a snapshot")

// batchBytes caps one batch: a batch is read whole, validated, and only
// then shipped, applied or delivered, so this is what a reader holds in
// memory between its read and its use.
const batchBytes = 256 << 10

// Window reports a served log's coordinates: base is the compaction
// horizon, total the frontier readers may read up to. An error means the
// log cannot be served right now (a relay latched a write failure).
type Window func() (base, total uint64, err error)

// LogReader follows a served frame log from a global sequence number.
// It only ever returns bytes behind a validated checksum, so it is safe
// to run against a file another goroutine or process appends to. Not
// safe for concurrent use.
type LogReader struct {
	f      *os.File
	window Window
	// base is the window base the reader was positioned under; skip the
	// frames still to pass over before the start position.
	base uint64
	skip uint64
	// off is the byte offset of the next unread frame; seq counts the
	// frames read or skipped so far (file-local, from 0).
	off int64
	seq uint64
	// scratch is the buffer skipped frames are read into and discarded.
	scratch []byte
	// err latches the first failure: the reader is done, and the caller
	// re-resolves its position with a fresh one.
	err error
}

// OpenLogReader positions a reader of the log at path at global sequence
// from. It returns ErrSeqGap when from lies outside the window: before
// base (compacted into a snapshot) or past total (history this log does
// not have).
func OpenLogReader(path string, from uint64, window Window) (*LogReader, error) {
	base, total, err := window()
	if err != nil {
		return nil, err
	}
	if from < base {
		return nil, fmt.Errorf("%w: seq %d precedes the log's base %d", ErrSeqGap, from, base)
	}
	if from > total {
		return nil, fmt.Errorf("%w: seq %d is past the log's frontier %d", ErrSeqGap, from, total)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open log reader: %w", err)
	}
	return &LogReader{f: f, window: window, base: base, skip: from - base}, nil
}

// Close releases the underlying file.
func (r *LogReader) Close() error { return r.f.Close() }

// Seq returns the global sequence of the next frame Read returns.
func (r *LogReader) Seq() uint64 { return r.base + r.seq + r.skip }

// Read appends to dst the whole wire-form frames from Seq up to the
// window's total or the global sequence end, whichever is lower,
// stopping once the batch holds batchBytes or more, and returns the
// extended slice; Seq advances past them. The batch is returned only
// after the window's base is re-read unchanged. An empty batch with a
// nil error means the reader is caught up. ErrWALReset reports that the
// log was compacted under the reader; any error returns dst unextended
// and ends the reader (every later Read repeats it), and the caller
// re-resolves its position with a fresh reader.
func (r *LogReader) Read(dst []byte, end uint64) ([]byte, error) {
	if r.err != nil {
		return dst, r.err
	}
	start := len(dst)
	base, total, err := r.window()
	if err == nil && base != r.base {
		err = ErrWALReset
	}
	if err == nil {
		dst, err = r.read(dst, min(total, max(end, r.base))-r.base, start+batchBytes)
	}
	if err == nil {
		if base, _, err = r.window(); err == nil && base != r.base {
			err = ErrWALReset // the reads raced a compaction: discard them
		}
	}
	if err != nil {
		r.err = err
		return dst[:start], err
	}
	return dst, nil
}

// read finishes positioning, then appends frames while the file-local
// sequence is below limit and dst is shorter than capLen.
func (r *LogReader) read(dst []byte, limit uint64, capLen int) ([]byte, error) {
	for r.skip > 0 && r.seq < limit {
		seq := r.seq
		var err error
		r.scratch, err = r.appendFrames(r.scratch[:0], min(r.skip, limit-r.seq), batchBytes)
		r.skip -= r.seq - seq
		if err != nil || r.seq == seq {
			return dst, err // a clean or torn tail: resume on the next round
		}
	}
	if r.skip == 0 && r.seq < limit {
		// Below the frontier every frame is whole on an untouched file; a
		// short read is settled by the base re-check, or by the next round.
		return r.appendFrames(dst, limit-r.seq, capLen)
	}
	return dst, nil
}

// appendFrames appends up to n whole, checksum-valid frames onto dst,
// stopping once dst holds capLen bytes or more, and advances past them.
// It stats the file once and reads it in windows — one ReadAt fills dst
// up to capLen, and one more finishes a frame the window cut — then
// splits and checks the frames in memory. It stops short, with a nil
// error, at the log's end or at a torn or not-yet-valid frame.
// ErrWALReset means the file shrank below the position; on any error the
// frames already appended stay in the returned slice and the position
// stays past them.
func (r *LogReader) appendFrames(dst []byte, n uint64, capLen int) ([]byte, error) {
	st, err := r.f.Stat()
	if err != nil {
		return dst, err
	}
	size := st.Size()
	if size < r.off {
		return dst, ErrWALReset
	}
	for end := r.seq + n; r.seq < end && len(dst) < capLen; {
		avail := size - r.off
		if avail < frameHeader {
			return dst, nil
		}
		// Read to capLen, or at least a header, but not past the stat'd
		// end: bytes beyond it belong to the next call.
		base := len(dst)
		if dst, err = r.readAt(dst, min(avail, int64(max(capLen-base, frameHeader))), r.off); err != nil {
			return dst[:base], err
		}
		p, whole := base, true
		for r.seq < end && p < capLen && p+frameHeader <= len(dst) {
			frameLen, ok := frameSize(dst[p:])
			// On a live log a garbage length can only be an in-flight
			// write reaching disk out of order; treat it as a torn tail
			// and let the writer finish. (True mid-log corruption parks
			// the reader here — the same stop-at-last-valid-checksum
			// stance recovery takes.)
			if !ok || frameLen > size-r.off {
				whole = false
				break
			}
			if short := p + int(frameLen) - len(dst); short > 0 {
				// Whole on disk, cut by the window: read its remainder.
				if dst, err = r.readAt(dst, int64(short), r.off+int64(len(dst)-p)); err != nil {
					return dst[:p], err
				}
			}
			if len(dst) < p+int(frameLen) || !intact(dst[p:p+int(frameLen)]) {
				whole = false
				break
			}
			p += int(frameLen)
			r.off += frameLen
			r.seq++
		}
		dst = dst[:p]
		if !whole || p == base {
			return dst, nil
		}
	}
	return dst, nil
}

// readAt appends up to n bytes of the file at off onto dst. A short read
// at the end of the file is not an error: a file that shrank is caught
// by the caller's checks.
func (r *LogReader) readAt(dst []byte, n, off int64) ([]byte, error) {
	base := len(dst)
	dst = slices.Grow(dst, int(n))[:base+int(n)]
	got, err := r.f.ReadAt(dst[base:], off)
	if err != nil && !errors.Is(err, io.EOF) {
		return dst[:base], err
	}
	return dst[:base+got], nil
}

// NextFrame splits the first frame off a batch Read returned: its body,
// and the rest of the batch.
func NextFrame(batch []byte) (body, rest []byte) {
	end := frameHeader + int(binary.LittleEndian.Uint32(batch[0:4]))
	return batch[frameHeader:end], batch[end:]
}
