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
// the old one. Both logs publish their window under the same lock their
// truncation holds, so an unchanged base observed AFTER a batch of reads
// proves no truncation preceded them. Read returns a batch only after
// that re-check.
package storage

import (
	"encoding/binary"
	"fmt"
)

// batchBytes caps one batch: a batch is read whole, validated, and only
// then shipped, applied or delivered, so this is what a reader holds in
// memory between its read and its use.
const batchBytes = 256 << 10

// Window reports a served log's coordinates: base is the compaction
// horizon, total the frontier readers may read up to. An error means the
// log cannot be served right now (a relay latched a write failure).
type Window func() (base, total uint64, err error)

// LogReader follows a served frame log from a global sequence number.
// Not safe for concurrent use.
type LogReader struct {
	t      *Tailer
	window Window
	// base is the window base the reader was positioned under; skip the
	// frames still to pass over before the start position.
	base uint64
	skip uint64
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
	t, err := OpenTailer(path)
	if err != nil {
		return nil, err
	}
	return &LogReader{t: t, window: window, base: base, skip: from - base}, nil
}

// Close releases the underlying file.
func (r *LogReader) Close() error { return r.t.Close() }

// Seq returns the global sequence of the next frame Read returns.
func (r *LogReader) Seq() uint64 { return r.base + r.t.Seq() + r.skip }

// Read appends to dst the whole wire-form frames (Frame's layout) from
// Seq up to the window's total or the global sequence end, whichever is
// lower, stopping once the batch holds batchBytes or more, and returns
// the extended slice; Seq advances past them. The batch is returned only
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
	for r.skip > 0 && r.t.Seq() < limit {
		want := min(r.skip, limit-r.t.Seq())
		n, err := r.t.Skip(want)
		r.skip -= n
		if err != nil || n < want {
			return dst, err
		}
	}
	if r.skip == 0 && r.t.Seq() < limit {
		// Below the frontier every frame is whole on an untouched file; a
		// short read is settled by the base re-check, or by the next round.
		return r.t.appendFrames(dst, limit-r.t.Seq(), capLen)
	}
	return dst, nil
}

// NextFrame splits the first frame off a batch Read returned: its body,
// and the rest of the batch.
func NextFrame(batch []byte) (body, rest []byte) {
	end := frameHeader + int(binary.LittleEndian.Uint32(batch[0:4]))
	return batch[frameHeader:end], batch[end:]
}
