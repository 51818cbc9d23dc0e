// Relay log: the follower-side frame log that turns a replica into a
// distribution-tree node. A follower has no WAL of its own — its only
// mutation path is the primary's shipped frame stream — so to re-serve
// GET /v1/replication/wal and the committed-event feed to a downstream
// tier it persists each applied record's frame into a RelayLog, in the
// exact on-disk layout the WAL uses (Frame). Downstream consumers then
// read the relay file through the same validated LogReader as the WAL:
// Reset truncates in place (reusing the inode, so open readers observe
// ErrWALReset), and Info publishes base/total under the same lock the
// truncation holds.
//
// The relay is a CACHE of the upstream durable log, not a durability
// root: appends are not fsynced, and on process restart the follower
// re-bootstraps from upstream anyway, starting a fresh relay at its new
// applied sequence. Loss of the file costs downstream consumers a
// re-bootstrap (410), never data.
package storage

import (
	"fmt"
	"os"
	"sync"
)

// DefaultRelayMaxBytes bounds the relay file before it self-compacts
// (Reset to the current applied sequence). Downstream followers behind
// the compaction get ErrSeqGap/410 and re-bootstrap from this node —
// the same self-heal path a primary compaction triggers.
const DefaultRelayMaxBytes = 256 << 20

// RelayLog is an append-only frame log positioned in the global
// replication sequence space. Safe for concurrent use; readers open
// their own LogReader on Path().
type RelayLog struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// base is the global sequence of the file's first frame; count the
	// frames currently in it. Info publishes base+count as the total —
	// the downstream durable frontier.
	base  uint64
	count uint64
	size  int64
	// maxBytes triggers self-compaction; err latches the first write
	// failure (a broken relay stops serving downstream, it does not
	// fail replication itself).
	maxBytes int64
	err      error
	// buf is the reused frame buffer of Append.
	buf []byte
}

// OpenRelay creates (or truncates) the relay file at path, positioned
// at global sequence base. maxBytes <= 0 selects DefaultRelayMaxBytes.
func OpenRelay(path string, base uint64, maxBytes int64) (*RelayLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open relay: %w", err)
	}
	if maxBytes <= 0 {
		maxBytes = DefaultRelayMaxBytes
	}
	return &RelayLog{f: f, path: path, base: base, maxBytes: maxBytes}, nil
}

// Path returns the relay file's path — what downstream tailers open.
func (r *RelayLog) Path() string { return r.path }

// Info reports the relay's coordinates: base (the compaction horizon —
// records below it require a bootstrap from this node) and total (the
// frontier: base + frames in the file). Published under the same lock
// Reset holds, so an unchanged base observed after a batch of reads
// proves no truncation raced them — the WAL's read-then-validate
// contract, verbatim.
func (r *RelayLog) Info() (base, total uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.base, r.base + r.count
}

// Err returns the latched write failure, if any.
func (r *RelayLog) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Append writes one record body as a frame at the next sequence. When
// the file would exceed maxBytes it first self-compacts: truncate in
// place and advance base past every frame written so far (their effects
// are inside this node's state, which is what a downstream bootstrap
// captures). Append failures latch into Err and poison the relay.
func (r *RelayLog) Append(body []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	r.buf = appendWireFrame(r.buf[:0], body)
	fr := r.buf
	if r.size+int64(len(fr)) > r.maxBytes && r.count > 0 {
		if err := r.resetLocked(r.base + r.count); err != nil {
			return err
		}
	}
	if _, err := r.f.Write(fr); err != nil {
		r.err = fmt.Errorf("storage: relay append: %w", err)
		return r.err
	}
	r.count++
	r.size += int64(len(fr))
	return nil
}

// Reset truncates the relay in place and repositions it at global
// sequence base — the follower re-bootstrapped (or self-compacted), so
// the file restarts empty at the new applied position. The inode is
// reused: open tailers see the shrink as ErrWALReset and re-resolve.
func (r *RelayLog) Reset(base uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resetLocked(base)
}

func (r *RelayLog) resetLocked(base uint64) error {
	if r.err != nil {
		return r.err
	}
	if err := r.f.Truncate(0); err != nil {
		r.err = fmt.Errorf("storage: relay reset: %w", err)
		return r.err
	}
	if _, err := r.f.Seek(0, 0); err != nil {
		r.err = fmt.Errorf("storage: relay reset: %w", err)
		return r.err
	}
	r.base = base
	r.count = 0
	r.size = 0
	return nil
}

// Close releases the file. The relay refuses further appends.
func (r *RelayLog) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err == nil {
		r.err = fmt.Errorf("storage: relay closed")
	}
	return r.f.Close()
}
