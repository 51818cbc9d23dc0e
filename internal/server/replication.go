// Replication endpoints: the serving side of the log-shipping protocol.
//
//	GET /v1/replication/snapshot      bootstrap state + sequence
//	GET /v1/replication/wal?from=N    long-lived frame stream
//	GET /v1/replication/status        position (primary or replica role)
//
// The WAL stream is a chunked, indefinitely-long response of
// length-prefixed frames in exactly the log's on-disk layout. The
// handler follows the live log file (core.ServedLog.Follow), flushing
// whatever is durable and then waiting for the log to move; it ends the
// stream (cleanly) when the log is compacted underneath it, and the
// follower reconnects and re-resolves its position — a follower that
// fell behind the compaction gets HTTP 410 and must re-bootstrap.
//
// A PRIMARY serves these from its WAL. A FOLLOWER with cascading armed
// (core.Replica.EnableRelay) serves the same three endpoints from its
// relay log — the distribution-tree hop: a downstream follower points
// -replica-of at this node and never touches the primary. Frames are
// identical bytes either way (the relay re-frames the records it
// applied), and the term stamped on the stream is the highest term this
// node has proof of, so fencing survives every extra hop.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Header names shared with the wire package (aliased so the handlers
// read naturally).
const (
	wireTermHeader = wire.TermHeader
	wireRoleHeader = wire.RoleHeader
)

func formatTerm(t uint64) string { return strconv.FormatUint(t, 10) }

// gossipTerm ingests the request's X-Ltam-Term header — the highest
// promotion term the caller has seen. A primary that hears of a higher
// term has been superseded and fences itself (core.System.Fence):
// mutations start failing with ErrFenced and the role flips to
// "fenced". This is the split-brain close: a resurrected stale primary
// is fenced by the very first probe any term-aware client or follower
// sends it. Followers ignore the gossip here — their term tracking
// rides the replication stream itself (core.ApplyTermRecord).
func (s *Server) gossipTerm(r *http.Request) {
	t, _ := strconv.ParseUint(r.Header.Get(wireTermHeader), 10, 64)
	if t == 0 || s.isFollower() {
		return
	}
	s.sys.Fence(t)
}

// defaultCaptureTimeout bounds how long the replication handlers wait
// on the primary: the bootstrap state capture (which takes the write
// lock) and the status endpoint's primary-seq refresh.
const defaultCaptureTimeout = 500 * time.Millisecond

// SetCaptureTimeout overrides the bootstrap-capture/status bound
// (<= 0 keeps the 500ms default). Call before serving traffic.
func (s *Server) SetCaptureTimeout(d time.Duration) { s.captureTimeout = d }

func (s *Server) captureBound() time.Duration {
	if s.captureTimeout > 0 {
		return s.captureTimeout
	}
	return defaultCaptureTimeout
}

func (s *Server) replicationSnapshot(w http.ResponseWriter, r *http.Request) {
	s.gossipTerm(r)
	// Capture takes the node's write lock; a capture stuck behind a long
	// mutation burst must not hang the downstream bootstrap forever. On
	// timeout the caller gets 503 + Retry-After and tries again (the
	// capture goroutine finishes harmlessly in the background — its
	// result is simply dropped). On a cascading follower the capture is
	// Replica.CaptureBootstrap — the applied state cut consistently with
	// the relay frontier; anywhere else it is the primary's.
	capture := s.sys.CaptureBootstrap
	if s.isFollower() {
		if _, _, ok := s.relayWindow(); !ok {
			writeErr(w, http.StatusBadRequest, errRelayUnarmed)
			return
		}
		capture = s.rep.CaptureBootstrap
	}
	type captured struct {
		c   *core.Capture
		err error
	}
	ch := make(chan captured, 1)
	go func() {
		c, err := capture()
		ch <- captured{c, err}
	}()
	bound := s.captureBound()
	select {
	case c := <-ch:
		if c.err != nil {
			writeErr(w, statusFor(c.err), c.err)
			return
		}
		// Encoded here, off the node's lock, straight into the body. A
		// failed write cuts the body short, and the follower's decode
		// fails on it.
		s.roleHeaders(w)
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = c.c.WriteTo(w)
	case <-time.After(bound):
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("bootstrap capture exceeded %s (node busy): retry", bound))
	case <-r.Context().Done():
	}
}

// errRelayUnarmed is the refusal a follower without cascading gives the
// replication surface: it has no local log to serve a downstream tier
// from.
var errRelayUnarmed = errors.New("this follower does not cascade (start it with -relay to serve a downstream tier)")

func (s *Server) replicationStatus(w http.ResponseWriter, r *http.Request) {
	s.gossipTerm(r)
	// The dedicated status endpoint refreshes lag against the primary,
	// but with a hard bound: a follower must answer about itself even
	// when its primary is unreachable.
	ctx, cancel := context.WithTimeout(r.Context(), s.captureBound())
	defer cancel()
	st := s.replicationWireStatus(ctx)
	if st == nil {
		writeErr(w, http.StatusBadRequest, errors.New("replication requires durability (start with -data)"))
		return
	}
	s.roleHeaders(w)
	writeJSON(w, http.StatusOK, *st)
}

// replicationWireStatus builds the node's wire-level replication
// status: replica role when this server fronts a follower, primary role
// when the system is durable, nil otherwise. A nil ctx skips the
// primary-seq refresh (used by /v1/stats, which must never block on a
// remote primary).
func (s *Server) replicationWireStatus(ctx context.Context) *wire.ReplicationStatus {
	if s.isFollower() {
		st := s.rep.Status(ctx)
		out := &wire.ReplicationStatus{
			Role:        "replica",
			Term:        s.rep.Term(),
			AppliedSeq:  st.AppliedSeq,
			PrimarySeq:  st.PrimarySeq,
			Lag:         st.Lag,
			Connected:   st.Connected,
			Bootstraps:  st.Bootstraps,
			StalenessNS: st.Staleness,
			WalConns:    s.walConns.Load(),
			WalBytes:    s.walBytes.Load(),
		}
		if base, total, ok := s.relayWindow(); ok {
			// A cascading follower publishes its relay coordinates in the
			// primary's BaseSeq/TotalSeq slots: they mean the same thing to
			// a downstream consumer — the servable window.
			out.Relay = true
			out.BaseSeq, out.TotalSeq = base, total
		}
		return out
	}
	info := s.sys.ReplicationInfo()
	if !info.Durable {
		return nil
	}
	role := "primary"
	if s.sys.Fenced() {
		role = "fenced"
	}
	return &wire.ReplicationStatus{
		Role:     role,
		Term:     info.Term,
		Durable:  true,
		BaseSeq:  info.BaseSeq,
		TotalSeq: info.TotalSeq,
		WalConns: s.walConns.Load(),
		WalBytes: s.walBytes.Load(),
	}
}

// relayWindow reports a follower's relay window. ok is false when
// cascading is not enabled or the relay has latched a write failure —
// either way this node cannot serve a downstream tier right now.
func (s *Server) relayWindow() (base, total uint64, ok bool) {
	lg, err := s.rep.ServedLog()
	if err == nil {
		base, total, err = lg.Window()
	}
	return base, total, err == nil
}

// downstreamLog resolves which log this node serves downstream — the
// primary's WAL, or a cascading follower's relay — or an error when it
// serves none (non-durable primary; non-cascading follower).
func (s *Server) downstreamLog() (core.ServedLog, error) {
	if s.isFollower() {
		lg, err := s.rep.ServedLog()
		if err != nil {
			return lg, errRelayUnarmed
		}
		return lg, nil
	}
	lg, err := s.sys.ServedLog()
	if err != nil {
		return lg, errors.New("replication requires durability (start with -data)")
	}
	return lg, nil
}

func (s *Server) replicationWAL(w http.ResponseWriter, r *http.Request) {
	s.gossipTerm(r)
	lg, err := s.downstreamLog()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	from := uint64(0)
	if v := r.URL.Query().Get("from"); v != "" {
		if from, err = strconv.ParseUint(v, 10, 64); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad from"))
			return
		}
	}
	rd, err := lg.Open(from)
	if errors.Is(err, storage.ErrSeqGap) {
		// The requested position is inside the latest snapshot (or behind
		// a relay compaction), or ahead of this node's durable history (a
		// diverged follower, e.g. one that applied records a primary crash
		// retracted; resuming would splice histories). Either way the
		// consumer must re-bootstrap from this node.
		writeErr(w, http.StatusGone, fmt.Errorf("%w: bootstrap again", err))
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	defer rd.Close()

	// Count the stream for the fan-out measurement: a cascading tier is
	// working exactly when the leaf tier's consumers show up in the
	// FOLLOWER's counters and the primary's stay flat.
	s.walConns.Add(1)
	defer s.walConns.Add(-1)

	// The whole stream is served under ONE promotion term, stamped on
	// the response header before the first frame: the follower fences on
	// it per-record, and Follow ends the stream the moment the term moves
	// (or this node is fenced/promoted) so the header can never go stale.
	term := lg.Term()
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Replication-From", strconv.FormatUint(from, 10))
	w.Header().Set(wireTermHeader, formatTerm(term))
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush() // commit the headers so the follower knows it's live
	}
	// The batches are the frames' exact on-disk bytes (the on-disk layout
	// IS the protocol), shipped verbatim from one reused buffer.
	_ = lg.Follow(r.Context(), rd, term, func(frames []byte) error {
		if _, err := w.Write(frames); err != nil {
			return err // client went away
		}
		s.walBytes.Add(uint64(len(frames)))
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}
