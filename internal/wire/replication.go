// Replication over the wire: the follower side of the log-shipping
// protocol. A ReplicationSource adapts the HTTP client to the
// core.ReplicaSource contract — bootstrap from GET
// /v1/replication/snapshot, then tail GET /v1/replication/wal?from=N, a
// long-lived chunked stream of length-prefixed frames in exactly the
// WAL's on-disk layout (4-byte little-endian length, 4-byte CRC32,
// JSON body).
package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/storage"
	"repro/internal/wire/frame"
)

// TermHeader carries the promotion term on the replication plane: as a
// response header it stamps the term a status answer or WAL stream was
// served under; as a request header it gossips the highest term the
// caller has seen, which is how a resurrected stale primary learns it
// has been fenced.
const TermHeader = "X-Ltam-Term"

// RoleHeader mirrors the role field of /v1/readyz and
// /v1/replication/status ("primary", "replica" or "fenced") so
// orchestration can pick a promotion target from headers alone.
const RoleHeader = "X-Ltam-Role"

// ReplicationStatus reports a node's position in the replication
// stream. Role is "primary" (BaseSeq/TotalSeq populated) or "replica"
// (AppliedSeq/PrimarySeq/Lag/Connected populated).
type ReplicationStatus struct {
	Role string `json:"role"`
	// Term is the node's promotion epoch: the term a primary writes at
	// (or was fenced out of), the highest term a replica has seen.
	Term       uint64 `json:"term,omitempty"`
	Durable    bool   `json:"durable,omitempty"`
	BaseSeq    uint64 `json:"base_seq,omitempty"`
	TotalSeq   uint64 `json:"total_seq,omitempty"`
	AppliedSeq uint64 `json:"applied_seq,omitempty"`
	PrimarySeq uint64 `json:"primary_seq,omitempty"`
	Lag        uint64 `json:"lag,omitempty"`
	Connected  bool   `json:"connected,omitempty"`
	// Bootstraps counts a replica's state loads (>1 = it self-healed in
	// place across a primary compaction); Staleness is how long it has
	// been unable to prove it is caught up — the quantity the
	// -follow-lag-max read barrier bounds.
	Bootstraps  uint64        `json:"bootstraps,omitempty"`
	StalenessNS time.Duration `json:"staleness_ns,omitempty"`
	// Relay reports a cascading follower: it re-serves the replication
	// stream and the event feed from its relay log, whose servable window
	// rides in BaseSeq/TotalSeq. WalConns/WalBytes count the live
	// downstream WAL streams this node serves and the frame bytes shipped
	// over them — the fan-out measurement (leaf traffic lands on the
	// follower's counters; the primary's stay flat).
	Relay    bool   `json:"relay,omitempty"`
	WalConns int64  `json:"wal_conns,omitempty"`
	WalBytes uint64 `json:"wal_bytes,omitempty"`
}

// ReplicationStatus fetches a node's replication position.
func (c *Client) ReplicationStatus() (ReplicationStatus, error) {
	var out ReplicationStatus
	err := c.do("GET", "/v1/replication/status", nil, &out)
	return out, err
}

// ReplicationSource adapts the client to the follower's pull contract
// (core.ReplicaSource). Build one with Client.ReplicationSource.
type ReplicationSource struct {
	c *Client
	// high is the highest promotion term this source has observed. It
	// rides every replication request as the TermHeader gossip: probing
	// a resurrected stale primary with a higher term is what fences it.
	// MultiSource shares one cell across its whole endpoint list.
	high *atomic.Uint64
	// streamTerm is the term of the most recently opened Tail stream —
	// the fencing input (core.ReplicaSource.SourceTerm).
	streamTerm atomic.Uint64
}

// ReplicationSource returns the follower-side adapter for this client.
func (c *Client) ReplicationSource() *ReplicationSource {
	return &ReplicationSource{c: c, high: new(atomic.Uint64)}
}

// SourceTerm reports the term of the last opened WAL stream (0 before
// the first stream, or against a pre-term primary).
func (s *ReplicationSource) SourceTerm() uint64 { return s.streamTerm.Load() }

// noteTerm advances the gossip cell.
func (s *ReplicationSource) noteTerm(term uint64) {
	for {
		cur := s.high.Load()
		if term <= cur || s.high.CompareAndSwap(cur, term) {
			return
		}
	}
}

// headerTerm parses a TermHeader value (0 when absent or malformed).
func headerTerm(h http.Header) uint64 {
	t, _ := strconv.ParseUint(h.Get(TermHeader), 10, 64)
	return t
}

// Bootstrap opens the stream of the primary's full state (core's
// snapshot encoding); the caller reads it to the end and closes it.
// Unlike other responses it has no size bound.
func (s *ReplicationSource) Bootstrap() (io.ReadCloser, error) {
	resp, err := s.c.open("GET", "/v1/replication/snapshot", nil)
	if err != nil {
		return nil, err
	}
	s.noteTerm(headerTerm(resp.Header))
	return resp.Body, nil
}

// Status fetches the node's replication status with the term gossip
// attached, recording any higher term it reports.
func (s *ReplicationSource) Status(ctx context.Context) (ReplicationStatus, error) {
	var st ReplicationStatus
	req, err := http.NewRequestWithContext(ctx, "GET", s.c.BaseURL+"/v1/replication/status", nil)
	if err != nil {
		return st, err
	}
	if t := s.high.Load(); t > 0 {
		req.Header.Set(TermHeader, strconv.FormatUint(t, 10))
	}
	resp, err := s.c.HTTP.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("wire: replication status: HTTP %d", resp.StatusCode)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, err
	}
	s.noteTerm(st.Term)
	return st, nil
}

// PrimarySeq reports the upstream node's shippable frontier: a
// primary's durable record count, or — when the upstream is itself a
// cascading follower — its applied sequence (a leaf's lag is measured
// against its immediate upstream, not the root).
func (s *ReplicationSource) PrimarySeq(ctx context.Context) (uint64, error) {
	st, err := s.Status(ctx)
	if err != nil {
		return 0, err
	}
	if st.Role == "replica" {
		return st.AppliedSeq, nil
	}
	return st.TotalSeq, nil
}

// Tail opens the long-lived WAL stream at global sequence `from` and
// applies each frame's record in order. It returns nil when the server
// ends the stream (the caller reconnects and resumes from its applied
// sequence), storage.ErrSeqGap when the requested sequence has been
// compacted into a snapshot (HTTP 410), ctx.Err() on cancellation, and
// any error apply returned. A frame that fails its checksum aborts the
// stream with an error — the reconnect re-reads it from the log.
func (s *ReplicationSource) Tail(ctx context.Context, from uint64, apply func(storage.Record) error) error {
	url := s.c.BaseURL + "/v1/replication/wal?from=" + strconv.FormatUint(from, 10)
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return err
	}
	if t := s.high.Load(); t > 0 {
		req.Header.Set(TermHeader, strconv.FormatUint(t, 10))
	}
	resp, err := s.c.HTTP.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	defer resp.Body.Close()
	// One stream is shipped entirely under one term (the handler ends
	// the stream if its term changes), so the header term covers every
	// frame that follows.
	if t := headerTerm(resp.Header); t > 0 {
		s.streamTerm.Store(t)
		s.noteTerm(t)
	} else {
		s.streamTerm.Store(0)
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return storage.ErrSeqGap
	default:
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		var e Error
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("wire: replication stream: %s", e.Error)
		}
		return fmt.Errorf("wire: replication stream: HTTP %d", resp.StatusCode)
	}

	// The stream is the WAL's own binary framing, so it is read with the
	// shared frame reader — one reused body buffer for the life of the
	// connection (the record decode copies what it keeps, so aliasing the
	// buffer across frames is safe).
	br := bufio.NewReader(resp.Body)
	fr := frame.NewRawReader(br)
	for {
		body, err := fr.Next()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				// EOF (clean or torn mid-frame): benign stream end; the
				// reconnect resumes from the applied sequence, so a torn
				// HTTP read can never skip or double-apply a record.
				return nil
			}
			return fmt.Errorf("wire: replication stream: %w", err)
		}
		rec, err := storage.DecodeRecord(body)
		if err != nil {
			return fmt.Errorf("wire: replication stream: %w", err)
		}
		if err := apply(rec); err != nil {
			return err
		}
	}
}
