// Package storage is the persistence substrate of the central control
// station (Fig. 3). The paper assumes durable authorization, movement and
// profile databases without prescribing an engine; this package provides
// one: an append-only frame log with periodic snapshots and crash
// recovery.
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
// body, body bytes. A replication stream ships frames in this layout, so
// it is byte-compatible with the log it was read from.
const frameHeader = 8

// MaxFrameSize guards recovery against garbage length prefixes.
const MaxFrameSize = 16 << 20

// ErrCorrupt reports a frame that passes its checksum but whose body
// does not decode.
var ErrCorrupt = errors.New("storage: corrupt log record")

// ErrTooLarge reports a record whose frame body exceeds MaxFrameSize.
var ErrTooLarge = errors.New("storage: record exceeds the frame limit")

// File is the surface a Log needs from its backing file. *os.File
// satisfies it; fault-injection tests substitute a wrapper that fails
// chosen writes and syncs (see internal/fault).
type File interface {
	io.Reader
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// DefaultRelayMaxBytes bounds a cache-policy log before it compacts
// itself. Downstream readers behind the compaction get ErrSeqGap (410)
// and re-bootstrap from this node — the self-heal path a primary's
// compaction triggers.
const DefaultRelayMaxBytes = 256 << 20

// Log is an append-only frame log positioned in the global replication
// sequence: base is the sequence of the file's first frame, and count
// the frames in the file. A primary's WAL and a cascading follower's
// relay log are both a Log; the constructor sets the policy:
//
//   - OpenWAL is the durable policy. It keeps the file's intact frames,
//     truncating a torn tail, and fsyncs every Append, so an Append that
//     returns nil is durable.
//   - OpenCache is the cache policy, for a copy of a log that is durable
//     elsewhere. It starts the file empty, never fsyncs, compacts itself
//     once the file would pass DefaultRelayMaxBytes, and latches its
//     first failure: a cache that lost a frame stops serving rather than
//     serve a gap.
//
// Both publish their window under the lock Reset holds, which is what a
// LogReader's read-then-recheck relies on. Safe for concurrent use;
// readers open a LogReader on Path with Window.
type Log struct {
	mu      sync.Mutex
	f       File
	path    string
	durable bool
	base    uint64
	count   uint64
	// pending counts frames written but not fsynced: zero after every
	// successful durable Append, non-zero only after a failed fsync.
	pending uint64
	// size is the file's length; maxBytes the cache policy's bound.
	size, maxBytes int64
	// err is the cache policy's latched failure.
	err error
	// buf is the reused encode buffer of Append.
	buf []byte
}

// OpenWAL opens (creating if needed) the durable log at path, whose
// first frame is global sequence base. When wrap is non-nil the opened
// file is passed through it before any I/O — the fault-injection seam.
func OpenWAL(path string, base uint64, wrap func(File) File) (*Log, error) {
	l, err := openLog(path, base, wrap, os.O_RDWR)
	if err != nil {
		return nil, err
	}
	l.durable = true
	// Keep the intact prefix; truncate a torn tail.
	if l.size, l.count, err = scan(l.f, nil); err == nil {
		err = l.f.Truncate(l.size)
	}
	if err != nil {
		l.f.Close()
		return nil, fmt.Errorf("storage: truncate torn tail: %w", err)
	}
	return l, nil
}

// OpenCache creates (or empties) the cache-policy log at path, its
// first frame at global sequence base. wrap is OpenWAL's.
func OpenCache(path string, base uint64, wrap func(File) File) (*Log, error) {
	l, err := openLog(path, base, wrap, os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		return nil, err
	}
	l.maxBytes = DefaultRelayMaxBytes
	return l, nil
}

func openLog(path string, base uint64, wrap func(File) File, flag int) (*Log, error) {
	osf, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open log: %w", err)
	}
	var f File = osf
	if wrap != nil {
		f = wrap(f)
	}
	return &Log{f: f, path: path, base: base}, nil
}

// Path returns the log file's path — what readers open.
func (l *Log) Path() string { return l.path }

// fail returns err, latching it under the cache policy. A durable log
// does not latch: its one writer, the Committer, does.
func (l *Log) fail(err error) error {
	if !l.durable {
		l.err = err
	}
	return err
}

// Append writes recs as one contiguous frame sequence under a single
// lock acquisition and, under the durable policy, exactly one fsync: N
// records cost one durable write instead of N. A crash mid-sequence
// truncates to a frame boundary, so recovery replays an atomic prefix of
// recs (see the crash tests). Under the cache policy an Append that
// would grow the file past its bound first compacts it: the file is
// emptied in place and base moves past every frame written so far,
// whose effects are in this node's state, which a downstream bootstrap
// captures.
func (l *Log) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	buf := l.buf[:0]
	for _, rec := range recs {
		var err error
		if buf, err = appendFrame(buf, rec); err != nil {
			return l.fail(err)
		}
	}
	if cap(buf) <= maxRetainedBuf {
		l.buf = buf
	}
	if !l.durable && l.count > 0 && l.size+int64(len(buf)) > l.maxBytes {
		if err := l.resetLocked(l.base + l.count); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		return l.fail(fmt.Errorf("storage: append: %w", err))
	}
	l.count += uint64(len(recs))
	l.size += int64(len(buf))
	if !l.durable {
		return nil
	}
	l.pending += uint64(len(recs))
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.pending = 0
	return nil
}

// maxRetainedBuf bounds the encode buffer Append keeps between calls: a
// batch of large admin records does not pin its buffer.
const maxRetainedBuf = 1 << 20

// Len returns the number of frames in the file.
func (l *Log) Len() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Window reports the log's coordinates, a Window for its readers: base
// is the compaction horizon (records below it need a bootstrap), and
// total the frontier readers may read up to. Under the durable policy
// total counts only fsynced frames: a frame a crash could retract must
// not be shipped, or the primary could later rewrite that sequence with
// a different record and a follower that applied the first would diverge
// undetectably. Every Append fsyncs, so total reaches the written
// frontier except after a failed fsync. Under the cache policy total is
// the written frontier, and err the latched failure.
func (l *Log) Window() (base, total uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base, l.base + l.count - l.pending, l.err
}

// Reset empties the log in place and positions it at global sequence
// base: after a snapshot compaction, a follower's re-bootstrap, or a
// cache's self-compaction. The inode is reused, so an open reader sees
// the shrink as ErrWALReset, and the new base is published under the
// log's lock (see Window). The durable policy fsyncs the truncation.
func (l *Log) Reset(base uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	return l.resetLocked(base)
}

func (l *Log) resetLocked(base uint64) error {
	if err := l.f.Truncate(0); err != nil {
		return l.fail(fmt.Errorf("storage: reset: %w", err))
	}
	l.base, l.count, l.pending, l.size = base, 0, 0, 0
	if l.durable {
		return l.f.Sync()
	}
	return nil
}

var errLogClosed = errors.New("storage: log closed")

// Close closes the file, fsyncing it under the durable policy. A closed
// cache refuses further appends.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.durable {
		err = l.f.Sync()
	} else if l.err == nil {
		l.err = errLogClosed
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
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
		return dst[:base], fmt.Errorf("%w: %d bytes", ErrTooLarge, len(body))
	}
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[base+4:], crc32.ChecksumIEEE(body))
	return dst, nil
}

// CheckRecord returns ErrTooLarge when rec's frame body would exceed
// MaxFrameSize, without writing it, so a writer can refuse a mutation
// before applying it. Encoding grows a byte to at most six (a JSON
// escape) and adds the envelope's 19 bytes of keys and quotes, so a
// record below a sixth of the limit is not encoded.
func CheckRecord(rec Record) error {
	if 6*(len(rec.Type)+len(rec.Data))+19 <= MaxFrameSize {
		return nil
	}
	_, err := appendFrame(nil, rec)
	return err
}

// frameSize reads a frame header: the whole frame's length, and whether
// the length is one a writer produces. Anything else is a torn tail.
func frameSize(hdr []byte) (int64, bool) {
	n := binary.LittleEndian.Uint32(hdr)
	return frameHeader + int64(n), n != 0 && n <= MaxFrameSize
}

// intact reports whether the whole frame fr passes its checksum.
func intact(fr []byte) bool {
	return crc32.ChecksumIEEE(fr[frameHeader:]) == binary.LittleEndian.Uint32(fr[4:])
}

// scan reads the frames of r from its current offset, handing each
// intact body to fn (which must not retain it; nil only counts). It
// stops without error at the first torn, garbage or checksum-failing
// frame — recovery keeps the prefix before it — and returns the byte
// length of the intact prefix and its frame count. An error of fn ends
// the scan.
func scan(r io.Reader, fn func(body []byte) error) (end int64, n uint64, err error) {
	br := bufio.NewReader(r)
	var fr []byte
	for {
		fr = slices.Grow(fr[:0], frameHeader)[:frameHeader]
		if _, err := io.ReadFull(br, fr); err != nil {
			return end, n, nil
		}
		size, ok := frameSize(fr)
		if !ok {
			return end, n, nil
		}
		fr = slices.Grow(fr, int(size)-frameHeader)[:size]
		if _, err := io.ReadFull(br, fr[frameHeader:]); err != nil || !intact(fr) {
			return end, n, nil
		}
		if fn != nil {
			if err := fn(fr[frameHeader:]); err != nil {
				return end, n, err
			}
		}
		end += size
		n++
	}
}

// Replay reads every intact record from the log at path in append order
// and returns how many fn took. It opens the file read-only and does not
// truncate; a missing file replays nothing.
func Replay(path string, fn func(Record) error) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	_, n, err := scan(f, func(body []byte) error {
		rec, err := DecodeRecord(body)
		if err != nil {
			return err
		}
		return fn(rec)
	})
	return n, err
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
