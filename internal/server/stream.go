// Streaming endpoints: the long-lived faces of the ingest and event
// subsystems (internal/stream).
//
//	POST /v1/stream/observe        NDJSON ObserveFrame in, Ack out
//	GET  /v1/stream/events?from=N  NDJSON committed-event feed
//
// Both are full-duplex/indefinite connections and are registered
// unwrapped, like the replication WAL stream, so one endless request
// does not skew the latency histograms. The observe stream requires
// HTTP/1.x full duplex (acks flow while the request body is still
// arriving); the event feed is plain chunked response streaming.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/profile"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/wire/frame"
)

// streamState is the server's lazily-built streaming machinery: ingest
// counters exist from construction (they are just atomics), the shared
// ingestor is built on the first observe connection (all connections
// feed its ONE chunker, so concurrent streams share ObserveBatch
// calls), and the event bus is built on the first subscription because
// it pins the alert-log feed and needs a durable primary.
type streamState struct {
	ingest stream.IngestCounters
	// sessions maps X-Ltam-Session tokens to ingest resume sessions
	// (exactly-once across reconnects; see internal/stream/session.go).
	sessions stream.SessionRegistry

	ingMu sync.Mutex
	ing   *stream.Ingestor

	busMu sync.Mutex
	bus   *stream.Bus

	// cursors maps subscriber cursor tokens to acked event sequences
	// (cursor=<token> on /v1/stream/events, POST /v1/stream/ack),
	// persisted in a sidecar next to the node's log; cursorPath overrides
	// the sidecar location (SetCursorPath).
	curMu      sync.Mutex
	cursors    *stream.CursorRegistry
	cursorPath string
}

// ingestor returns the server's shared ingestor, building it on first
// use.
func (s *Server) ingestor() *stream.Ingestor {
	st := &s.stream
	st.ingMu.Lock()
	defer st.ingMu.Unlock()
	if st.ing == nil {
		st.ing = &stream.Ingestor{Target: s.sys, Counters: &st.ingest}
	}
	return st.ing
}

// eventBus returns the shared bus, building it on first use. A primary
// feeds it from its WAL; a cascading follower from its relay log (the
// leaf tier of the distribution tree subscribes to the follower and the
// primary never sees the connection). A follower without a relay has no
// local log to replay and refuses.
func (s *Server) eventBus() (*stream.Bus, error) {
	st := &s.stream
	st.busMu.Lock()
	defer st.busMu.Unlock()
	if st.bus == nil {
		lg, err := s.downstreamLog()
		if err != nil {
			return nil, err
		}
		st.bus = stream.NewBus(lg)
	}
	return st.bus, nil
}

// SetCursorPath overrides where the durable subscriber-cursor sidecar
// lives ("" keeps the default: cursors.json next to the primary's WAL,
// or in a cascading follower's relay directory; memory-only when the
// node has neither). Call before serving traffic.
func (s *Server) SetCursorPath(path string) { s.stream.cursorPath = path }

// cursorRegistry returns the shared durable-cursor registry, building
// (and loading the sidecar) on first use.
func (s *Server) cursorRegistry() *stream.CursorRegistry {
	st := &s.stream
	st.curMu.Lock()
	defer st.curMu.Unlock()
	if st.cursors == nil {
		path := st.cursorPath
		if path == "" {
			if s.rep != nil && s.rep.RelayDir() != "" {
				path = filepath.Join(s.rep.RelayDir(), "cursors.json")
			} else if wal := s.sys.WALPath(); wal != "" {
				path = filepath.Join(filepath.Dir(wal), "cursors.json")
			}
		}
		st.cursors = stream.OpenCursors(path)
	}
	return st.cursors
}

// Close releases the server's background machinery (today: the event
// bus and its alert-log subscription). The Server remains usable as an
// http.Handler for non-streaming routes afterwards.
func (s *Server) Close() {
	st := &s.stream
	st.busMu.Lock()
	defer st.busMu.Unlock()
	if st.bus != nil {
		st.bus.Close()
		st.bus = nil
	}
}

// streamStats assembles the /v1/stats streaming section: always the
// ingest counters (augmented with the session registry's live/evicted
// counts), plus the bus counters once a subscriber has forced the bus
// into existence. Followers report it too — a cascading follower serves
// the event feed, and its bus counters are where leaf-tier load shows.
func (s *Server) streamStats() *wire.StreamStats {
	st := &s.stream
	ing := st.ingest.Snapshot()
	ing.Sessions = int64(st.sessions.Len())
	ing.SessionEvictions = st.sessions.Evictions()
	out := &wire.StreamStats{Ingest: ing}
	st.busMu.Lock()
	if st.bus != nil {
		bs := st.bus.Stats()
		out.Bus = &bs
	}
	st.busMu.Unlock()
	return out
}

// flushWriter pushes every buffered ack through the HTTP response as
// soon as the ingestor writes it: the ingestor flushes its own buffer
// once per ack line, so each Write here is one ack (or a coalesced few).
type flushWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if err == nil {
		err = f.rc.Flush()
	}
	return n, err
}

// streamObserve services POST /v1/stream/observe: one long-lived
// connection of observation frames, chunked into ObserveBatch calls by
// the SHARED chunker (all concurrent connections fold into combined
// batches), answered with cumulative durable acks (see
// internal/stream/ingest.go for the chunker and crash contract).
//
// Framing is negotiated by the request Content-Type: the default is
// NDJSON; application/x-ltam-frame selects the binary framing for both
// directions (observe frames in, ack frames out).
func (s *Server) streamObserve(w http.ResponseWriter, r *http.Request) {
	// Every ingest response ends its connection. With full duplex the
	// server leaves the unread request body to the handler; whatever is
	// left when the handler returns (all of a refused upload, or a tail
	// past the drain below) is read by net/http's post-handler body
	// Close, and a body EOF reached there arms the connection's
	// background read after the request's pending read was aborted. On a
	// kept-alive connection the next request's read then races it and
	// panics ("invalid concurrent Body.Read call"). A closed connection
	// reads no next request.
	w.Header().Set("Connection", "close")
	rc := http.NewResponseController(w)
	// Acks must reach the client while its request body is still open;
	// without full duplex Go's HTTP/1.x server would cut the body off at
	// the first response write. This applies to the ERROR responses too:
	// the client is mid-way through an endless chunked upload, and
	// without duplex+flush its transport sits on the refusal until the
	// upload ends — i.e. forever.
	duplexErr := rc.EnableFullDuplex()
	refuse := func(code int, err error) {
		writeErr(w, code, err)
		_ = rc.Flush()
	}
	if s.isFollower() {
		refuse(http.StatusForbidden, core.ErrReadOnly)
		return
	}
	if s.draining.Load() {
		refuse(http.StatusServiceUnavailable, errors.New("draining: reconnect to another node (or retry after restart)"))
		return
	}
	if duplexErr != nil {
		refuse(http.StatusInternalServerError, fmt.Errorf("streaming ingest unsupported: %w", duplexErr))
		return
	}
	sess := s.stream.sessions.Get(r.Header.Get(wire.SessionHeader))
	binary := strings.HasPrefix(r.Header.Get("Content-Type"), frame.ContentType)
	if binary {
		w.Header().Set("Content-Type", frame.ContentType)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush() // commit headers so the client knows the stream is live
	ing := s.ingestor()
	// The terminal condition already rode to the client in the final ack
	// (or the client is gone); there is no HTTP status left to change.
	if binary {
		or := frame.NewObserveReader(r.Body)
		aw := frame.NewAckWriter(flushWriter{w: w, rc: rc})
		_ = ing.RunFramedSession(or, aw, sess)
		or.Release()
		aw.Release()
	} else {
		_ = ing.RunFramedSession(
			stream.NewNDJSONFrameReader(r.Body),
			stream.NewNDJSONAckWriter(flushWriter{w: w, rc: rc}), sess)
	}
	// Consume the body's trailing framing (the ingestor stops at the End
	// frame, before the chunked terminator) while the handler still owns
	// the body, rather than leave it to net/http's post-handler Close
	// (see the top of this function).
	_, _ = io.Copy(io.Discard, io.LimitReader(r.Body, 256<<10))
}

// parseSubscribeOptions decodes the event-feed query parameters:
// from=<seq>, subject=<id>, location=<id>, kinds=<k1,k2,...>,
// alerts_since=<seq> (presence enables the retained-alert backlog),
// buffer=<n>. The cursor=<token> parameter is resolved by the caller
// (it needs the cursor registry).
func parseSubscribeOptions(r *http.Request) (stream.SubscribeOptions, error) {
	q := r.URL.Query()
	var opts stream.SubscribeOptions
	if v := q.Get("from"); v != "" {
		from, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("bad from: %w", err)
		}
		opts.From = from
	}
	opts.Filter.Subject = profile.SubjectID(q.Get("subject"))
	opts.Filter.Location = graph.ID(q.Get("location"))
	if v := q.Get("kinds"); v != "" {
		for _, k := range strings.Split(v, ",") {
			if k = strings.TrimSpace(k); k != "" {
				opts.Filter.Kinds = append(opts.Filter.Kinds, stream.EventKind(k))
			}
		}
	}
	if v := q.Get("alerts_since"); v != "" {
		since, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return opts, fmt.Errorf("bad alerts_since: %w", err)
		}
		opts.AlertsSince = &since
	}
	if v := q.Get("buffer"); v != "" {
		buf, err := strconv.Atoi(v)
		if err != nil || buf < 0 {
			return opts, fmt.Errorf("bad buffer")
		}
		opts.Buffer = buf
	}
	return opts, nil
}

// streamEvents services GET /v1/stream/events: a feed of committed
// events from the shared bus — NDJSON by default, the binary framing
// when the request Accept header asks for application/x-ltam-frame.
// The connection ends when the subscription does — slow-consumer
// eviction and compaction arrive as in-band KindError frames before the
// close; a From behind the horizon is HTTP 410 up front.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request) {
	bus, err := s.eventBus()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	opts, err := parseSubscribeOptions(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// A durable cursor resumes the feed server-side: a known token with
	// no explicit from= starts at acked+1, so a restarted client needs
	// only its token. An explicit from= always wins — the resumable
	// client's redials pass the exact next sequence, and the cursor
	// (advanced only by acks) may trail it.
	if token := r.URL.Query().Get("cursor"); token != "" && opts.From == 0 {
		if acked, ok := s.cursorRegistry().Resume(token); ok {
			opts.From = acked + 1
		}
	}
	sub, err := bus.Subscribe(opts)
	if err != nil {
		if errors.Is(err, stream.ErrCompacted) {
			writeErr(w, http.StatusGone, err)
			return
		}
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer sub.Close()

	binary := strings.Contains(r.Header.Get("Accept"), frame.ContentType)
	rc := http.NewResponseController(w)
	if binary {
		w.Header().Set("Content-Type", frame.ContentType)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()

	bw := bufio.NewWriterSize(w, 32<<10)
	var write func(*stream.Event) error
	if binary {
		ew := frame.NewEventWriter(bw)
		defer ew.Release()
		write = ew.WriteEvent
	} else {
		enc := json.NewEncoder(bw)
		write = func(ev *stream.Event) error { return enc.Encode(ev) }
	}
	done := r.Context().Done()
	for {
		ev, err := sub.Next(done)
		if err != nil {
			// Terminated (client gone, eviction after its in-band frame
			// drained, bus closed): flush whatever is buffered and end.
			_ = bw.Flush()
			return
		}
		if err := write(&ev); err != nil {
			return
		}
		// Batch while the queue has backlog; flush on every drain so a
		// quiet feed delivers each event immediately.
		if sub.Pending() == 0 {
			if bw.Flush() != nil || rc.Flush() != nil {
				return
			}
		}
	}
}

// streamAck services POST /v1/stream/ack: advance a durable subscriber
// cursor (see cursorRegistry). Served by primaries and cascading
// followers alike — the cursor lives on whichever node the subscriber
// reads its feed from.
func (s *Server) streamAck(w http.ResponseWriter, r *http.Request) {
	var req wire.CursorAckRequest
	if !readJSON(w, r, &req) {
		return
	}
	acked, err := s.cursorRegistry().Ack(req.Cursor, req.Seq)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, wire.CursorAckResponse{Cursor: req.Cursor, Acked: acked})
}

// SetFollowLagMax arms the replica read barrier: queries on a follower
// whose replication staleness exceeds max are rejected with HTTP 503
// and a Retry-After, so load balancers fail over to a fresher node
// instead of serving arbitrarily old answers. Zero disables the
// barrier. Call before serving traffic; /v1/stats and
// /v1/replication/* stay exempt (operators need them most exactly when
// the barrier trips).
func (s *Server) SetFollowLagMax(max time.Duration) { s.maxLag = max }

// lagExempt reports routes the read barrier never applies to: the
// operator surface, and the probes — healthz must answer 200 from a
// live process no matter what, and readyz computes its own (richer)
// staleness verdict.
func lagExempt(pattern string) bool {
	return strings.Contains(pattern, "/v1/stats") || strings.Contains(pattern, "/v1/replication/") ||
		strings.Contains(pattern, "/v1/healthz") || strings.Contains(pattern, "/v1/readyz") ||
		strings.Contains(pattern, "/v1/admin/") || strings.Contains(pattern, "/v1/stream/ack") ||
		strings.Contains(pattern, "/v1/trace") || strings.Contains(pattern, "/metrics")
}

// barred enforces the follow-lag barrier; it reports true after writing
// the 503.
func (s *Server) barred(w http.ResponseWriter) bool {
	if !s.isFollower() || s.maxLag <= 0 {
		return false
	}
	stale := s.rep.Staleness()
	if stale <= s.maxLag {
		return false
	}
	retry := int(s.maxLag / time.Second)
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", retryAfter(retry))
	writeErr(w, http.StatusServiceUnavailable,
		fmt.Errorf("replica stale for %s (max %s): retry on this node or fail over to the primary", stale.Round(time.Millisecond), s.maxLag))
	return true
}
