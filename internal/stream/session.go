// Ingest sessions: the server-kept resume state that upgrades streaming
// ingest from at-most-once-per-connection to exactly-once-per-session.
//
// A session outlives its connections. The client names one with an
// opaque token, numbers every frame with a session-scoped sequence
// (ObserveFrame.Seq), and keeps the un-acked suffix buffered. On
// reconnect the server's hello ack reports Applied — the session's
// durable frame high-water — and the client re-sends only Seq >
// Applied. The server dedupes the overlap a second time at gather (the
// hello races in-flight folds of the previous connection), so a frame
// is applied exactly once no matter where the connection died:
//
//	client buffer:  [trimmed | un-acked suffix]
//	                         ^ Ack.Resume          (fold-time, durable)
//	server dedupe:                 gather high-water (chunker-local)
//
// Exactly-once holds across connection kills while the server process
// lives. Across a server restart the registry is empty, Applied restarts
// at 0, and delivery degrades to at-least-once for the un-acked window —
// re-applied movement readings are no-op samples unless the clock moved,
// and the WAL's replay equivalence is unaffected (see DESIGN.md D14).
package stream

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// IngestSession is one logical ingest stream's resume state. Create via
// SessionRegistry.Get; pass to Ingestor.RunFramedSession.
type IngestSession struct {
	// applied is the durable high-water: the largest ObserveFrame.Seq
	// whose effects are fsynced. Advanced only at fold time, after the
	// chunk's commit barrier, under mu.
	applied atomic.Uint64
	// hw is the gather high-water — the largest Seq already pulled into
	// a chunk. It dedupes re-sent frames that race the previous
	// connection's in-flight batch. Written only by the chunker — the
	// single gather/fold thread, which is what makes the
	// dedupe-then-apply sequence atomic without a lock — but atomic so
	// the registry's idle sweep can READ it: an eviction is safe only
	// when hw == applied (nothing gathered but not yet durably acked).
	hw atomic.Uint64

	mu  sync.Mutex
	cur *ingestConn // the attached live connection, if any
	// out holds the session's cumulative outcome counters
	// (Granted/Denied/Moved/Errors/LastError), folded with applied. Every
	// ack of a session connection, the hello included, carries them, so
	// the latest ack a client holds is the session's exact total across
	// reconnects.
	out Ack
	// idleSince is when the last connection detached (zero while one is
	// attached); the registry's TTL sweep measures idleness from it.
	idleSince time.Time
}

// Applied returns the session's durable frame high-water.
func (s *IngestSession) Applied() uint64 { return s.applied.Load() }

// advanceApplied moves the durable high-water monotonically.
func (s *IngestSession) advanceApplied(seq uint64) {
	for {
		cur := s.applied.Load()
		if seq <= cur || s.applied.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// fold records one durable chunk fold: the frame high-water advances to
// resume and outs join the outcome totals. Only the chunker calls it.
func (s *IngestSession) fold(resume uint64, outs []core.ObserveOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceApplied(resume)
	foldOutcomes(&s.out, outs)
}

// stamp writes the session's position into a: the durable frame
// high-water (when ahead of a.Resume) and the outcome totals.
func (s *IngestSession) stamp(a *Ack) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a.Resume = max(a.Resume, s.applied.Load())
	a.Granted, a.Denied, a.Moved = s.out.Granted, s.out.Denied, s.out.Moved
	a.Errors, a.LastError = s.out.Errors, s.out.LastError
}

// attach makes c the session's live connection, stealing the session
// from any previous connection: the old connection is marked dead so the
// chunker discards (rather than applies) whatever it still has queued —
// the client has moved on and will re-send everything un-acked on the
// new connection.
func (s *IngestSession) attach(c *ingestConn) {
	s.mu.Lock()
	old := s.cur
	s.cur = c
	s.idleSince = time.Time{}
	s.mu.Unlock()
	if old != nil && old != c {
		old.mu.Lock()
		old.dead = true
		old.mu.Unlock()
	}
}

// detach clears the attachment if c still holds it, starting the idle
// clock.
func (s *IngestSession) detach(c *ingestConn) {
	s.mu.Lock()
	if s.cur == c {
		s.cur = nil
		s.idleSince = time.Now()
	}
	s.mu.Unlock()
}

// evictable reports whether the idle-TTL sweep may drop this session:
// no attached connection, idle past the TTL, and a fully-acked buffer
// (gather high-water == durable high-water — evicting a session with
// gathered-but-unacked frames would turn the next reconnect's re-send
// into a double apply).
func (s *IngestSession) evictable(now time.Time, ttl time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur == nil && !s.idleSince.IsZero() &&
		now.Sub(s.idleSince) >= ttl && s.hw.Load() == s.applied.Load()
}

// Registry bounds.
const (
	// maxSessions caps the registry; beyond it, detached sessions are
	// evicted (arbitrary order — an evicted session degrades its client
	// to a fresh session, i.e. at-least-once for the un-acked window,
	// the same contract as a server restart).
	maxSessions = 4096
	// DefaultSessionIdleTTL is how long a detached, fully-acked session
	// survives before the idle sweep reclaims it. Long enough to ride
	// out any reconnect backoff; short enough that client churn cannot
	// grow the registry without bound.
	DefaultSessionIdleTTL = 15 * time.Minute
	// sweepInterval rate-limits the idle sweep (it runs inline in Get).
	sweepInterval = time.Second
)

// SessionRegistry maps resume tokens to sessions. The server holds one
// per Ingestor. In-memory by design: the WAL already persists the data;
// the registry persists only dedupe state, whose loss is a documented
// degradation, not corruption. Detached sessions whose buffer is fully
// acked are reclaimed after IdleTTL (swept inline by Get, rate-limited),
// so abandoned tokens do not accumulate for the process lifetime.
type SessionRegistry struct {
	// IdleTTL overrides the idle eviction window (0 selects
	// DefaultSessionIdleTTL). Set before serving traffic.
	IdleTTL time.Duration

	mu        sync.Mutex
	m         map[string]*IngestSession
	lastSweep time.Time
	evictions uint64
}

func (r *SessionRegistry) ttl() time.Duration {
	if r.IdleTTL > 0 {
		return r.IdleTTL
	}
	return DefaultSessionIdleTTL
}

// Get returns the session for token, creating it on first use. An empty
// token returns nil (no session).
func (r *SessionRegistry) Get(token string) *IngestSession {
	if token == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[string]*IngestSession)
	}
	if now := time.Now(); now.Sub(r.lastSweep) >= sweepInterval {
		r.lastSweep = now
		r.sweepLocked(now)
	}
	if s, ok := r.m[token]; ok {
		return s
	}
	if len(r.m) >= maxSessions {
		for k, s := range r.m {
			s.mu.Lock()
			detached := s.cur == nil
			s.mu.Unlock()
			if detached {
				delete(r.m, k)
				r.evictions++
				if len(r.m) < maxSessions {
					break
				}
			}
		}
	}
	s := &IngestSession{}
	r.m[token] = s
	return s
}

// sweepLocked drops every evictable session. Callers hold r.mu.
func (r *SessionRegistry) sweepLocked(now time.Time) {
	ttl := r.ttl()
	for k, s := range r.m {
		if s.evictable(now, ttl) {
			delete(r.m, k)
			r.evictions++
		}
	}
}

// SweepIdle runs one idle sweep immediately (tests; the serving path
// sweeps inline in Get) and reports the live session count after it.
func (r *SessionRegistry) SweepIdle() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(time.Now())
	return len(r.m)
}

// Len reports the number of live sessions (stats).
func (r *SessionRegistry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// Evictions reports how many sessions the registry has dropped — idle
// TTL sweeps and overflow evictions combined.
func (r *SessionRegistry) Evictions() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evictions
}
