// Package stream is the continuous-movement face of the control
// station: the paper's model is an ongoing stream of subjects entering
// and leaving locations, and violations matter the moment they happen —
// so both directions of that stream get a long-lived connection instead
// of a request/response round-trip per movement.
//
// Two halves share one NDJSON framing (one JSON object per line):
//
//   - Ingest (ingest.go): a client streams ObserveFrame readings over a
//     single connection; the server chunks them into ObserveBatch calls
//     of at most MaxChunk readings (mirroring the group committer's
//     batch bound) and writes back cumulative Ack frames carrying the
//     durable record sequence — the client learns exactly which prefix
//     of its stream survives a crash.
//
//   - Subscribe (bus.go): a Bus tails the primary's WAL — the committed
//     history, in the exact order every replica applies it — decodes
//     each record into an Event, and fans events out to subscribers with
//     per-subscriber buffering, slow-consumer eviction and filter
//     predicates. Denial/overstay alerts from internal/audit ride the
//     same feed. An unfiltered subscriber that replays every event's
//     Record from sequence 0 reconstructs the primary's answers exactly
//     (see the equivalence test).
package stream

import (
	"repro/internal/audit"
	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/storage"
)

// ObserveFrame is one client→server line on the ingest stream: a
// positioning reading, or the end-of-stream marker. Field names match
// the batched-ingest wire.Reading so the two ingest paths share one
// vocabulary.
type ObserveFrame struct {
	Time    interval.Time     `json:"time,omitempty"`
	Subject profile.SubjectID `json:"subject,omitempty"`
	X       float64           `json:"x,omitempty"`
	Y       float64           `json:"y,omitempty"`
	// End marks a clean end of stream: the server flushes the pending
	// chunk, writes a final Ack, and closes. An abruptly cut connection
	// gets the same flush, minus the ack delivery.
	End bool `json:"end,omitempty"`
	// Seq is the frame's 1-based position in its ingest SESSION (not
	// connection): a resuming client re-sends the un-acked suffix with
	// the original sequence numbers and the server deduplicates anything
	// it already applied (see IngestSession). Zero means "no session
	// sequencing" — the pre-resume wire.
	Seq uint64 `json:"fseq,omitempty"`
}

// Ack is one server→client line on the ingest stream, written after
// every applied chunk. All counters are CUMULATIVE over the connection —
// the outcome counters of a session connection over the whole session —
// so a client needs only the latest ack to know its position:
// the first Acked frames of its stream are applied, and every WAL
// record they produced is durable up to sequence Seq.
type Ack struct {
	// Acked is how many observation frames have been applied (including
	// frames whose application failed per-reading — see Errors).
	Acked uint64 `json:"acked"`
	// Seq is the primary's durable record sequence
	// (ReplicationInfo.TotalSeq) after the chunk's commit barrier: the
	// prefix of the global history this connection's acked frames are
	// part of.
	Seq uint64 `json:"seq"`
	// Granted/Denied count Def.-7 entry decisions; Moved counts readings
	// that produced a movement; Errors counts per-reading application
	// failures (e.g. time regressions) — those frames are acked but had
	// no effect, exactly like the batch endpoint's per-reading errors.
	Granted uint64 `json:"granted"`
	Denied  uint64 `json:"denied"`
	Moved   uint64 `json:"moved"`
	Errors  uint64 `json:"errors,omitempty"`
	// LastError is the most recent per-reading failure, for operators.
	LastError string `json:"last_error,omitempty"`
	// Final marks the terminal ack: the server is done with this
	// connection (clean End frame, torn stream, or the Error below).
	Final bool `json:"final,omitempty"`
	// Error is a terminal connection failure: the chunk was applied in
	// memory but NOT durably acknowledged (or the system rejected the
	// stream). Without a session the client must not retry the un-acked
	// suffix blindly — it cannot know which of those frames applied. A
	// session (Resume) is exactly the coordinate that makes the retry
	// safe: re-send from Resume+1 and the server dedupes the overlap.
	Error string `json:"error,omitempty"`
	// Resume is the session-scoped durable high-water: every frame of
	// this ingest session with ObserveFrame.Seq <= Resume is applied and
	// durable. The first ack of a session connection (the "hello", sent
	// before any frame is read) carries the resume point a reconnecting
	// client should re-send from. Zero when the connection has no
	// session.
	Resume uint64 `json:"resume,omitempty"`
}

// EventKind classifies a bus event.
type EventKind string

// The event kinds on the subscription feed. The first group mirrors the
// WAL record types one-to-one (every committed record becomes exactly
// one event); KindAlert rides alongside with its own sequence space;
// KindError is a terminal in-band frame on an HTTP feed.
const (
	KindEnter         EventKind = "enter"
	KindLeave         EventKind = "leave"
	KindGrant         EventKind = "grant"
	KindRevoke        EventKind = "revoke"
	KindResolve       EventKind = "resolve"
	KindRuleAdd       EventKind = "rule-add"
	KindRuleRemove    EventKind = "rule-remove"
	KindProfilePut    EventKind = "profile-put"
	KindProfileRemove EventKind = "profile-remove"
	KindTick          EventKind = "tick"
	KindAlert         EventKind = "alert"
	KindError         EventKind = "error"
)

// Event is one line on the subscription feed.
//
// Record events (every kind except KindAlert/KindError) carry the
// committed WAL record itself plus decoded summary fields for
// filtering; Seq is the record's global sequence number, contiguous per
// feed. Replaying Records in Seq order through core.Replica.ApplyRecord
// reconstructs the primary's state exactly.
//
// Alert events carry the audit.Alert and its own AlertSeq (the audit
// log's sequence — a separate space from the record sequence, because
// alerts are observations, not state transitions: they are raised
// during enforcement and never logged to the WAL).
type Event struct {
	Seq      uint64            `json:"seq"`
	Kind     EventKind         `json:"kind"`
	Time     interval.Time     `json:"time,omitempty"`
	Subject  profile.SubjectID `json:"subject,omitempty"`
	Location graph.ID          `json:"location,omitempty"`
	// Auth is the authorization ID a grant assigned or a revoke removed.
	Auth authz.ID `json:"auth,omitempty"`
	// Name is the rule name on rule-add/rule-remove events.
	Name     string          `json:"name,omitempty"`
	Alert    *audit.Alert    `json:"alert,omitempty"`
	AlertSeq uint64          `json:"alert_seq,omitempty"`
	Record   *storage.Record `json:"record,omitempty"`
	// Error is set on KindError: the feed is ending abnormally (slow
	// consumer evicted, or the requested range was compacted — Seq then
	// holds the oldest still-available sequence to resubscribe from).
	Error string `json:"error,omitempty"`
}

// Filter selects which events a subscriber receives. The zero value
// matches everything.
type Filter struct {
	// Subject keeps only events about this subject (events with no
	// subject — ticks, rule changes — are dropped).
	Subject profile.SubjectID
	// Location keeps only events at this location.
	Location graph.ID
	// Kinds keeps only the listed kinds (nil keeps all). KindError
	// frames always pass: they are the feed's failure channel.
	Kinds []EventKind
}

// Match reports whether the filter keeps ev.
func (f Filter) Match(ev Event) bool {
	if ev.Kind == KindError {
		return true
	}
	if f.Subject != "" && ev.Subject != f.Subject {
		return false
	}
	if f.Location != "" && ev.Location != f.Location {
		return false
	}
	if len(f.Kinds) > 0 {
		for _, k := range f.Kinds {
			if ev.Kind == k {
				return true
			}
		}
		return false
	}
	return true
}
