// The served log: the one description of the frame log a node serves
// downstream — a durable primary's WAL, or a cascading follower's relay
// log. The replication stream endpoint, the same-process replication
// source and the committed-event bus all read it through the shared
// storage.LogReader, so each re-validates the window after every batch.
package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// idleRecheck bounds how long a caught-up reader of a served log sleeps
// without a wakeup. A term move, a fence, a promotion or a latched relay
// failure fire no wakeup, so every waiter re-checks at least this often.
const idleRecheck = 25 * time.Millisecond

// ServedLog describes the frame log a node serves downstream. Get one
// from System.ServedLog (the WAL) or Replica.ServedLog (the relay).
type ServedLog struct {
	// sys is the node whose state the log's records built; rep is set on
	// a cascading follower, whose served log is its relay.
	sys *System
	rep *Replica
	log *storage.Log
}

// ServedLog describes the primary's WAL; it fails without durability.
func (s *System) ServedLog() (ServedLog, error) {
	if s.wal == nil {
		return ServedLog{}, errors.New("core: replication requires durability (set Config.DataDir)")
	}
	return ServedLog{sys: s, log: s.wal}, nil
}

// ServedLog describes the follower's relay log; it fails unless
// EnableRelay armed cascading.
func (r *Replica) ServedLog() (ServedLog, error) {
	if r.relay == nil {
		return ServedLog{}, errors.New("core: follower has no relay (EnableRelay not called)")
	}
	return ServedLog{sys: r.sys, rep: r, log: r.relay}, nil
}

// System returns the node whose state the log's records built: its
// alerts and pipeline trace ride the event feed.
func (l ServedLog) System() *System { return l.sys }

// Path returns the log file's path.
func (l ServedLog) Path() string { return l.log.Path() }

// Window reports the servable (base, total) window: records below base
// are compacted into a snapshot, and total is the durable (WAL) or
// applied (relay) frontier. It is a storage.Window.
func (l ServedLog) Window() (base, total uint64, err error) { return l.log.Window() }

// Term is the promotion term a stream opened now is stamped with: the
// primary's term, or the highest term a follower has proof of — so
// fencing survives every cascade hop.
func (l ServedLog) Term() uint64 {
	if l.rep != nil {
		return l.rep.Term()
	}
	return l.sys.Term()
}

// Ended reports whether a stream stamped with term must end: the term
// moved, or the primary was fenced, or the follower was promoted.
func (l ServedLog) Ended(term uint64) bool {
	if l.rep != nil {
		return l.rep.Term() != term || l.rep.Promoted()
	}
	return l.sys.Term() != term || l.sys.Fenced()
}

// Changed returns the log's wakeup: a channel closed the next time the
// window may move (records became durable or were applied, or a
// compaction moved the base). Take it before reading the window. Every
// holder is woken, so consumers never steal each other's wakeups.
func (l ServedLog) Changed() <-chan struct{} { return l.sys.logMoved.wait() }

// Wait blocks until changed closes, done closes, or idleRecheck passes.
// It returns false when done closed.
func (l ServedLog) Wait(changed, done <-chan struct{}) bool {
	t := time.NewTimer(idleRecheck)
	defer t.Stop()
	select {
	case <-changed:
	case <-t.C:
	case <-done:
		return false
	}
	return true
}

// Open positions a reader at global sequence from; storage.ErrSeqGap
// when from lies outside the window.
func (l ServedLog) Open(from uint64) (*storage.LogReader, error) {
	return storage.OpenLogReader(l.Path(), from, l.Window)
}

// Follow ships the log from rd's position: every validated batch of
// whole wire-form frames goes to ship, and a
// caught-up reader waits on the wakeup. It returns nil when the stream
// must end cleanly — the log was compacted under the reader (the
// consumer reconnects and re-resolves its position) or Ended(term) —
// ctx.Err() on cancellation, and otherwise the error of the window or of
// ship.
func (l ServedLog) Follow(ctx context.Context, rd *storage.LogReader, term uint64, ship func(frames []byte) error) error {
	var batch []byte // reused round after round
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if l.Ended(term) {
			return nil
		}
		changed := l.Changed()
		var err error
		if batch, err = rd.Read(batch[:0], math.MaxUint64); err != nil {
			if errors.Is(err, storage.ErrWALReset) {
				return nil
			}
			return err
		}
		if len(batch) > 0 {
			if err := ship(batch); err != nil {
				return err
			}
		} else if !l.Wait(changed, ctx.Done()) {
			return ctx.Err()
		}
	}
}

// logMoved is a broadcast wakeup: the next fire releases every goroutine
// holding the channel from wait. (A one-token channel would let one
// consumer of a log swallow the wakeup another is waiting on.)
type logMoved struct {
	mu sync.Mutex
	ch chan struct{}
}

func (m *logMoved) wait() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ch == nil {
		m.ch = make(chan struct{})
	}
	return m.ch
}

func (m *logMoved) fire() {
	m.mu.Lock()
	if m.ch != nil {
		close(m.ch)
		m.ch = nil
	}
	m.mu.Unlock()
}

// --- Same-process source -----------------------------------------------

// LogNode is a node a same-process follower can replicate from: a
// durable primary (*System) or a cascading follower (*Replica).
type LogNode interface {
	CaptureBootstrap() (*Capture, error)
	ServedLog() (ServedLog, error)
}

// LogSource feeds a follower from a node in the same process — the
// test harness's and tooling's source. It follows the node's served log
// exactly as the HTTP stream does: one term per stream, ended when the
// term moves or the node is fenced or promoted.
type LogSource struct {
	Node LogNode
	term atomic.Uint64
}

// Bootstrap captures the node's live state and encodes it.
func (l *LogSource) Bootstrap() (io.ReadCloser, error) {
	c, err := l.Node.CaptureBootstrap()
	if err != nil {
		return nil, err
	}
	data, err := c.encode()
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// SourceTerm reports the term of the most recently opened Tail stream.
func (l *LogSource) SourceTerm() uint64 { return l.term.Load() }

// PrimarySeq reports the node's served frontier: a primary's durable
// record count, or a relaying follower's applied sequence (a leaf's lag
// is measured against its immediate upstream).
func (l *LogSource) PrimarySeq(context.Context) (uint64, error) {
	lg, err := l.Node.ServedLog()
	if err != nil {
		return 0, err
	}
	_, total, err := lg.Window()
	return total, err
}

// Tail follows the node's served log from global sequence from (see
// ServedLog.Follow). A position outside the window is storage.ErrSeqGap,
// which Run self-heals with a fresh bootstrap.
func (l *LogSource) Tail(ctx context.Context, from uint64, apply func(storage.Record) error) error {
	lg, err := l.Node.ServedLog()
	if err != nil {
		return err
	}
	rd, err := lg.Open(from)
	if err != nil {
		return err
	}
	defer rd.Close()
	term := lg.Term()
	l.term.Store(term)
	return lg.Follow(ctx, rd, term, func(frames []byte) error {
		for len(frames) > 0 {
			var body []byte
			body, frames = storage.NextFrame(frames)
			rec, err := storage.DecodeRecord(body)
			if err != nil {
				return err
			}
			if err := apply(rec); err != nil {
				return err
			}
		}
		return nil
	})
}
