// Package storage is the persistence substrate of the central control
// station (Fig. 3). The paper assumes durable authorization, movement and
// profile databases without prescribing an engine; this package provides
// one: an append-only write-ahead log with periodic snapshots and
// crash recovery.
//
// Records are length-prefixed frames with a CRC32 checksum, so a torn
// tail write (the classic crash case) is detected and truncated rather
// than corrupting recovery; record.go defines the frame body. Snapshots
// compact the log: recovery loads the latest valid snapshot and replays
// only the log suffix.
package storage

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Record is one logical WAL entry: an opaque payload tagged with a type
// the application dispatches on.
type Record struct {
	// Type names the mutation, e.g. "authz.add" or "move.enter".
	Type string `json:"type"`
	// Data is the payload: JSON, or a movement record's binary body (see
	// AppendRecord).
	Data json.RawMessage `json:"data"`
	// Obs is in-process pipeline-trace state riding the record by value
	// (zero allocations, never serialized — a record read back from the
	// log has a zero Obs): the record's global sequence, assigned under
	// the producer's write lock, plus the pre-commit stage stamps.
	Obs RecordObs `json:"-"`
}

// RecordObs is Record's tracing sidecar (see internal/obs).
type RecordObs struct {
	// Seq is the record's global sequence number (base + WAL position),
	// zero when untraced.
	Seq uint64
	// Stamps carries the decode/gather trace-clock instants.
	Stamps obs.FrameStamps
}

// frame layout: 4-byte little-endian length, 4-byte CRC32 (IEEE) of the
// body, body bytes.
const frameHeader = 8

// MaxFrameSize guards recovery against garbage length prefixes.
const MaxFrameSize = 16 << 20

// ErrCorrupt reports a framing or checksum error in the middle of a log
// (as opposed to a torn tail, which is silently truncated).
var ErrCorrupt = errors.New("storage: corrupt log record")

// File is the surface the WAL needs from its backing file. *os.File
// satisfies it; fault-injection tests substitute a wrapper that fails
// chosen writes and syncs (see internal/fault) through OpenWALWith.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	Sync() error
	Truncate(size int64) error
	Close() error
}

// WAL is an append-only write-ahead log. It is safe for concurrent use.
// Every Append that returns nil has been fsynced.
type WAL struct {
	mu   sync.Mutex
	f    File
	w    *bufio.Writer
	path string
	// seq is the number of records ever appended (including recovered).
	seq uint64
	// pending counts frames written but not yet fsynced: zero after every
	// successful Append, non-zero only when a flush or fsync failed.
	pending int
	// buf is the reused encode buffer of Append.
	buf []byte
}

// OpenWAL opens (creating if needed) the log at path.
func OpenWAL(path string) (*WAL, error) {
	return OpenWALWith(path, nil)
}

// OpenWALWith is OpenWAL with a file wrapper: when wrap is non-nil the
// opened handle is passed through it before any I/O, so a caller can
// interpose deterministic faults (or instrumentation) on every write,
// sync, seek and truncate the log performs.
func OpenWALWith(path string, wrap func(File) File) (*WAL, error) {
	osf, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	var f File = osf
	if wrap != nil {
		f = wrap(f)
	}
	w := &WAL{f: f, path: path}
	// Scan to count records and find the valid end; truncate a torn tail.
	end, n, err := scanLog(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	w.seq = n
	w.w = bufio.NewWriter(f)
	return w, nil
}

// scanLog walks the frames of f from the start, returning the byte offset
// after the last intact frame and the number of intact frames. A
// malformed tail is reported as a truncation point, not an error; only a
// checksum mismatch in a *complete* frame is ErrCorrupt.
func scanLog(f File) (end int64, n uint64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, err
	}
	r := bufio.NewReader(f)
	var off int64
	var hdr [frameHeader]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, n, nil // clean EOF or torn header: stop here
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > MaxFrameSize {
			return off, n, nil // garbage length: treat as torn tail
		}
		body = slices.Grow(body[:0], int(length))[:length]
		if _, err := io.ReadFull(r, body); err != nil {
			return off, n, nil // torn body
		}
		if crc32.ChecksumIEEE(body) != sum {
			// A complete frame with a bad checksum is real corruption
			// unless it is the final frame (torn overwrite); either way
			// recovery stops here. Report position for operators.
			return off, n, nil
		}
		off += frameHeader + int64(length)
		n++
	}
}

// appendFrame appends rec in its wire form — header, then the body
// AppendRecord encodes — enforcing the size limit.
func appendFrame(dst []byte, rec Record) ([]byte, error) {
	base := len(dst)
	dst, err := AppendRecord(append(dst, make([]byte, frameHeader)...), rec)
	if err != nil {
		return dst[:base], err
	}
	body := dst[base+frameHeader:]
	if len(body) > MaxFrameSize {
		return dst[:base], fmt.Errorf("storage: record of %d bytes exceeds frame limit", len(body))
	}
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[base+4:], crc32.ChecksumIEEE(body))
	return dst, nil
}

// Append writes recs as one contiguous frame sequence under a single
// lock acquisition and exactly one fsync: N records cost one durable
// write instead of N. A crash mid-sequence truncates to a frame boundary,
// so recovery replays an atomic prefix of recs (see the crash tests).
func (w *WAL) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	buf := w.buf[:0]
	for _, rec := range recs {
		var err error
		if buf, err = appendFrame(buf, rec); err != nil {
			return err
		}
	}
	if cap(buf) <= maxRetainedBuf {
		w.buf = buf
	}
	if _, err := w.w.Write(buf); err != nil {
		return err
	}
	w.seq += uint64(len(recs))
	w.pending += len(recs)
	return w.syncLocked()
}

// maxRetainedBuf bounds the encode buffer Append keeps between calls: a
// batch of large admin records does not pin its buffer.
const maxRetainedBuf = 1 << 20

func (w *WAL) syncLocked() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.pending = 0
	return nil
}

// Len returns the number of records in the log.
func (w *WAL) Len() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// DurableLen returns the number of records known to be fsynced. It is
// the replication stream's upper bound: a record that is in the file
// but not yet synced must not be shipped, because a crash could retract
// it and the primary would then rewrite that sequence number with a
// different record — a follower that applied the retracted one would
// diverge undetectably. Every Append fsyncs, so the two lengths differ
// only after a failed flush or fsync: the frames it left behind may be
// in the file (or the page cache) but are not counted, even if the OS
// later flushes them.
func (w *WAL) DurableLen() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq - uint64(w.pending)
}

// Close flushes and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.syncLocked(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Replay reads every intact record from the log at path in append order.
// It opens the file read-only and does not truncate.
func Replay(path string, fn func(Record) error) (uint64, error) {
	st, err := ReplayTail(path, fn)
	return st.NextSeq, err
}

// ReplayTail is Replay, but it additionally reports where the scan
// stopped: the byte offset after the last intact frame and whether a
// trailing partial frame follows it. A tailer handed TailState.Offset
// can re-read the partial frame once the writer finishes it, instead of
// the offset being silently swallowed (the pre-replication behavior).
func ReplayTail(path string, fn func(Record) error) (TailState, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return TailState{}, nil
		}
		return TailState{}, err
	}
	defer f.Close()
	size := int64(0)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	r := bufio.NewReader(f)
	var st TailState
	stop := func() TailState {
		st.PartialBytes = size - st.Offset
		st.Partial = st.PartialBytes > 0
		return st
	}
	var hdr [frameHeader]byte
	var body []byte // reused: DecodeRecord copies what it keeps
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return stop(), nil
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > MaxFrameSize {
			return stop(), nil
		}
		body = slices.Grow(body[:0], int(length))[:length]
		if _, err := io.ReadFull(r, body); err != nil {
			return stop(), nil
		}
		if crc32.ChecksumIEEE(body) != sum {
			return stop(), nil
		}
		rec, err := DecodeRecord(body)
		if err != nil {
			return stop(), err
		}
		if err := fn(rec); err != nil {
			return stop(), err
		}
		st.NextSeq++
		st.Offset += frameHeader + int64(length)
	}
}

// Truncate resets the log to empty (used after a snapshot compaction).
func (w *WAL) Truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	w.seq = 0
	w.pending = 0
	w.w.Reset(w.f)
	return w.f.Sync()
}

// --- Snapshots -------------------------------------------------------

// SnapshotStore manages numbered snapshot files in a directory. It moves
// bytes only: the caller encodes and decodes the state. A snapshot is
// snap-%016d.bin, its payload followed by a little-endian CRC32 (IEEE)
// of it; snap-%016d.json, a bare JSON document written before the
// binary format, is only read. Both suffixes number one sequence.
type SnapshotStore struct {
	dir string
	// Wrap, when non-nil, wraps every snapshot file Save writes before
	// any I/O — the fault-injection seam (see internal/fault).
	Wrap func(File) File
}

// NewSnapshotStore creates the directory if needed.
func NewSnapshotStore(dir string) (*SnapshotStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: snapshot dir: %w", err)
	}
	return &SnapshotStore{dir: dir}, nil
}

// Save writes data as snapshot number seq and prunes older snapshots,
// keeping the newest keep. It returns nil only once the snapshot is
// durable — written and fsynced under a temporary name, renamed into
// place, the directory fsynced — so the caller may then discard what the
// snapshot covers (truncate the WAL). On error nothing is renamed.
func (s *SnapshotStore) Save(seq uint64, data []byte, keep int) error {
	tmp := filepath.Join(s.dir, "snap.tmp")
	if err := s.writeSynced(tmp, data); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("storage: write snapshot %d: %w", seq, err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, fmt.Sprintf("snap-%016d.bin", seq))); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("storage: sync snapshot dir: %w", err)
	}
	if names := s.list(); keep > 0 {
		for _, name := range names[:max(len(names)-keep, 0)] {
			_ = os.Remove(filepath.Join(s.dir, name))
		}
	}
	return nil
}

// writeSynced writes data and its checksum to a new file and fsyncs it.
func (s *SnapshotStore) writeSynced(path string, data []byte) error {
	osf, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var f File = osf
	if s.Wrap != nil {
		f = s.Wrap(f)
	}
	if _, err = f.Write(data); err == nil {
		_, err = f.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(data)))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory, making a rename in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// list returns the snapshot file names, oldest first; at one sequence
// number the binary file sorts last, so it is the one Latest reads.
func (s *SnapshotStore) list() []string {
	ents, _ := os.ReadDir(s.dir)
	var names []string
	for _, e := range ents {
		if _, ok := snapSeq(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Slice(names, func(i, j int) bool {
		a, _ := snapSeq(names[i])
		b, _ := snapSeq(names[j])
		return a < b || a == b && strings.HasSuffix(names[i], ".json")
	})
	return names
}

// snapSeq parses a snapshot file name.
func snapSeq(name string) (uint64, bool) {
	num, ok := strings.CutPrefix(name, "snap-")
	if !ok {
		return 0, false
	}
	num, bin := strings.CutSuffix(num, ".bin")
	if !bin {
		if num, ok = strings.CutSuffix(num, ".json"); !ok {
			return 0, false
		}
	}
	v, err := strconv.ParseUint(num, 10, 64)
	return v, err == nil
}

// Latest returns the payload of the newest snapshot and its sequence
// number; ok is false when no snapshot exists. A binary payload comes
// without its checksum, a JSON file whole. A checksum mismatch, or a JSON
// file that is not one JSON document, is an error.
func (s *SnapshotStore) Latest() (seq uint64, data []byte, ok bool, err error) {
	names := s.list()
	if len(names) == 0 {
		return 0, nil, false, nil
	}
	name := names[len(names)-1]
	seq, _ = snapSeq(name)
	if data, err = os.ReadFile(filepath.Join(s.dir, name)); err != nil {
		return 0, nil, false, err
	}
	if strings.HasSuffix(name, ".json") {
		if !json.Valid(data) {
			return 0, nil, false, fmt.Errorf("storage: snapshot %d: not a JSON document", seq)
		}
		return seq, data, true, nil
	}
	n := len(data) - 4
	if n < 0 || crc32.ChecksumIEEE(data[:n]) != binary.LittleEndian.Uint32(data[n:]) {
		return 0, nil, false, fmt.Errorf("storage: snapshot %d: checksum mismatch", seq)
	}
	return seq, data[:n], true, nil
}
