// Package enforce implements LTAM's access control engine (Fig. 3, §5):
// it evaluates access requests against the authorization database
// (Definitions 6 and 7), monitors user movement at all times — not only at
// card readers — and raises alerts for the violations the paper calls out:
// entering without an authorization (tailgating on a group entry),
// overstaying past the exit duration ("a warning signal to the security
// guards will be generated"), leaving early, and movements that are
// impossible under the location graph's topology.
package enforce

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/audit"
	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/movement"
	"repro/internal/profile"
)

// Outside is the pseudo-location of subjects not inside any primitive
// location.
const Outside graph.ID = ""

// Decision is the outcome of an access request.
type Decision struct {
	// Granted reports whether the request is authorized (Def. 7).
	Granted bool
	// Auth is the granting authorization's ID when granted.
	Auth authz.ID
	// Reason explains a denial.
	Reason string
	// Exhausted distinguishes denial-by-entry-count from
	// denial-by-absence-of-authorization.
	Exhausted bool
}

// String renders the decision for logs.
func (d Decision) String() string {
	if d.Granted {
		return fmt.Sprintf("granted (a%d)", d.Auth)
	}
	return "denied: " + d.Reason
}

// AuthSource supplies the authorizations of (s, l) for Def.-7
// evaluation; *authz.Store and *authz.View satisfy it. The engine's
// decision paths take it explicitly so the core read path can evaluate
// against an immutable store snapshot instead of the live database.
type AuthSource interface {
	For(s profile.SubjectID, l graph.ID) []authz.Authorization
}

// Engine is the access control engine. It owns a logical clock that only
// moves forward; all enforcement is deterministic in the event sequence.
// Engine is safe for concurrent use.
//
// Concurrency: movements (Enter, Leave, Tick, SetClock) take the engine
// lock — they must be atomic with respect to each other because a
// movement is a read-modify-write of the movement database. Pure
// decisions (Request, Query, RequestIn, QueryIn) acquire no engine lock
// at all: the logical clock they advance is an atomic monotonic maximum,
// the authorization source is lock-free (a sharded store read or an
// immutable view), the alert log is internally synchronized, and the
// only remaining shared read — the movement database's entry counter,
// consulted just for entry-count-limited authorizations — takes that
// database's internal read lock. A decision that overlaps an in-flight
// movement linearizes to one side of it or the other, exactly as a
// request arriving a moment earlier or later would.
type Engine struct {
	mu     sync.RWMutex
	root   *graph.Graph
	flat   *graph.Flat
	store  *authz.Store
	moves  *movement.DB
	alerts *audit.Log
	now    atomic.Int64 // interval.Time, advanced by CAS; never moves back
	// overstayAlerted remembers stints already flagged so the periodic
	// monitor raises one alert per violation, keyed by subject and stint
	// entry time. Guarded by mu (write side only).
	overstayAlerted map[stintKey]bool
}

type stintKey struct {
	s profile.SubjectID
	t interval.Time
}

// New builds an engine over a validated location graph and the three
// databases.
func New(root *graph.Graph, store *authz.Store, moves *movement.DB, alerts *audit.Log) (*Engine, error) {
	if err := root.Validate(); err != nil {
		return nil, fmt.Errorf("enforce: %w", err)
	}
	return &Engine{
		root:            root,
		flat:            graph.Expand(root),
		store:           store,
		moves:           moves,
		alerts:          alerts,
		overstayAlerted: make(map[stintKey]bool),
	}, nil
}

// Now returns the engine's logical clock (the latest time it has seen).
func (e *Engine) Now() interval.Time {
	return interval.Time(e.now.Load())
}

// SetClock fast-forwards the logical clock without running the monitor —
// used by recovery to resume at the persisted time. It cannot move the
// clock backwards.
func (e *Engine) SetClock(t interval.Time) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.advance(t)
}

// advance moves the clock forward to t, rejecting regressions. It is a
// CAS loop so that read-locked decision paths can share it.
func (e *Engine) advance(t interval.Time) error {
	for {
		cur := e.now.Load()
		if int64(t) < cur {
			return fmt.Errorf("enforce: time %s precedes engine clock %s", t, interval.Time(cur))
		}
		if int64(t) == cur {
			// Steady state under concurrent readers: the clock is already
			// there; skip the CAS to avoid cacheline ping-pong.
			return nil
		}
		if e.now.CompareAndSwap(cur, int64(t)) {
			return nil
		}
	}
}

// Request evaluates the access request (t, s, l) — Definition 6 — against
// the authorization database and the movement history, without moving the
// subject. Per Definition 7 the request is authorized when some
// authorization for (s, l) has tis <= t <= tie and s has entered l during
// [tis, tie] fewer than n times. Denials are recorded in the alert log.
func (e *Engine) Request(t interval.Time, s profile.SubjectID, l graph.ID) Decision {
	return e.RequestIn(e.store, t, s, l)
}

// RequestIn is Request evaluated against an explicit authorization
// source — the zero-lock decision path. The core System passes the
// current read view's store snapshot here, so a card-reader fan-in of
// concurrent requests shares no mutex at all.
func (e *Engine) RequestIn(src AuthSource, t interval.Time, s profile.SubjectID, l graph.ID) Decision {
	if err := e.advance(t); err != nil {
		return e.deny(t, s, l, err.Error(), false)
	}
	return e.evaluate(src, t, s, l, true)
}

// evaluate applies Def. 7 against src. When raiseAlerts is false the
// evaluation is a pure query (used by what-if tooling). Everything it
// reads is immutable, atomic, or internally synchronized, so it needs no
// engine lock on any path.
func (e *Engine) evaluate(src AuthSource, t interval.Time, s profile.SubjectID, l graph.ID, raiseAlerts bool) Decision {
	auths := src.For(s, l)
	if len(auths) == 0 {
		return e.maybeDeny(t, s, l, fmt.Sprintf("no authorization specifies %s's access to %s", s, l), false, raiseAlerts)
	}
	exhausted := false
	for _, a := range auths {
		if !a.PermitsEntryAt(t) {
			continue
		}
		if a.MaxEntries != authz.Unlimited {
			used := e.moves.EntryCount(s, l, a.Entry)
			if int64(used) >= a.MaxEntries {
				exhausted = true
				continue
			}
		}
		return Decision{Granted: true, Auth: a.ID}
	}
	if exhausted {
		return e.maybeDeny(t, s, l, fmt.Sprintf("%s has used all permitted entries to %s", s, l), true, raiseAlerts)
	}
	return e.maybeDeny(t, s, l, fmt.Sprintf("no authorization for %s at %s covers time %s", s, l, t), false, raiseAlerts)
}

func (e *Engine) maybeDeny(t interval.Time, s profile.SubjectID, l graph.ID, reason string, exhausted, raise bool) Decision {
	if raise {
		return e.deny(t, s, l, reason, exhausted)
	}
	return Decision{Reason: reason, Exhausted: exhausted}
}

func (e *Engine) deny(t interval.Time, s profile.SubjectID, l graph.ID, reason string, exhausted bool) Decision {
	kind := audit.DeniedRequest
	if exhausted {
		kind = audit.EntryExhausted
	}
	e.alerts.Raise(audit.Alert{Time: t, Kind: kind, Subject: s, Location: l, Detail: reason})
	return Decision{Reason: reason, Exhausted: exhausted}
}

// Query evaluates Def. 7 without side effects: no clock movement, no
// alerts. It answers "would (t, s, l) be authorized right now?".
func (e *Engine) Query(t interval.Time, s profile.SubjectID, l graph.ID) Decision {
	return e.QueryIn(e.store, t, s, l)
}

// QueryIn is Query against an explicit authorization source — see
// RequestIn.
func (e *Engine) QueryIn(src AuthSource, t interval.Time, s profile.SubjectID, l graph.ID) Decision {
	return e.evaluate(src, t, s, l, false)
}

// Enter records subject s physically entering location l at time t. LTAM
// monitors movement continuously, so the movement is recorded even when it
// is a violation — with the appropriate alert raised:
//
//   - topology: entering from Outside is legal only at an entry primitive
//     of the (multilevel) graph; entering from another room requires a
//     direct connection (an expansion edge);
//   - authorization: an un-granted entry (tailgating) raises
//     UnauthorizedEntry — this is how LTAM eliminates "a group of users
//     enter[ing] a restricted location based on a single user
//     authorization": every body in the room needs its own grant;
//   - when moving room-to-room, the implicit exit of the previous room is
//     checked against the granting authorization's exit duration.
func (e *Engine) Enter(t interval.Time, s profile.SubjectID, l graph.ID) (Decision, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.advance(t); err != nil {
		return Decision{}, err
	}
	if _, ok := e.flat.Index[l]; !ok {
		return Decision{}, fmt.Errorf("enforce: unknown location %q", l)
	}

	from, inside := e.moves.CurrentLocation(s)

	// Topology checks.
	switch {
	case !inside && !e.flat.IsEntry(l):
		e.alerts.Raise(audit.Alert{Time: t, Kind: audit.IllegalMovement, Subject: s, Location: l,
			Detail: fmt.Sprintf("entered the facility at %s, which is not an entry location", l)})
	case inside && !e.flat.HasEdge(from, l):
		e.alerts.Raise(audit.Alert{Time: t, Kind: audit.IllegalMovement, Subject: s, Location: l,
			Detail: fmt.Sprintf("moved from %s to %s with no direct connection", from, l)})
	}

	// Implicit exit from the previous room.
	if inside {
		if err := e.exitLocked(t, s); err != nil {
			return Decision{}, err
		}
	}

	// Authorization check (Def. 7) — against the live store: movements
	// must see their own write-path state.
	d := e.evaluate(e.store, t, s, l, false)
	if !d.Granted {
		kind := audit.UnauthorizedEntry
		e.alerts.Raise(audit.Alert{Time: t, Kind: kind, Subject: s, Location: l,
			Detail: fmt.Sprintf("entered without authorization: %s", d.Reason)})
	}
	if _, err := e.moves.RecordEnter(t, s, l, d.Auth); err != nil {
		return Decision{}, err
	}
	return d, nil
}

// Leave records subject s leaving its current location at time t to the
// outside. Leaving the facility from a non-entry location raises an
// IllegalMovement alert; leaving outside the granting authorization's exit
// duration raises EarlyExit or Overstay.
func (e *Engine) Leave(t interval.Time, s profile.SubjectID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.advance(t); err != nil {
		return err
	}
	from, inside := e.moves.CurrentLocation(s)
	if !inside {
		return fmt.Errorf("enforce: %s is not inside any location", s)
	}
	if !e.flat.IsExit(from) {
		e.alerts.Raise(audit.Alert{Time: t, Kind: audit.IllegalMovement, Subject: s, Location: from,
			Detail: fmt.Sprintf("left the facility from %s, which is not an exit location", from)})
	}
	return e.exitLocked(t, s)
}

// exitLocked closes the subject's stint, checking the exit window of the
// granting authorization.
func (e *Engine) exitLocked(t interval.Time, s profile.SubjectID) error {
	_, st, err := e.moves.RecordExit(t, s)
	if err != nil {
		return err
	}
	if st.Auth == 0 {
		return nil // ungranted stint: the entry alert already fired
	}
	a, ok := e.stintAuth(st)
	if !ok {
		return nil // authorization revoked mid-stay; nothing to check against
	}
	switch {
	case t < a.Exit.Start:
		e.alerts.Raise(audit.Alert{Time: t, Kind: audit.EarlyExit, Subject: s, Location: st.Location,
			Detail: fmt.Sprintf("left %s at %s before exit duration %s began", st.Location, t, a.Exit)})
	case t > a.Exit.End:
		e.alerts.Raise(audit.Alert{Time: t, Kind: audit.Overstay, Subject: s, Location: st.Location,
			Detail: fmt.Sprintf("left %s at %s after exit duration %s ended", st.Location, t, a.Exit)})
	}
	return nil
}

// stintAuth returns the authorization that admitted st, if it is still
// stored. It granted st's own (subject, location), so the Def.-7 lookup
// finds it in one shard; Store.Get would search every shard by ID.
func (e *Engine) stintAuth(st movement.Stint) (authz.Authorization, bool) {
	for _, a := range e.store.For(st.Subject, st.Location) {
		if a.ID == st.Auth {
			return a, true
		}
	}
	return authz.Authorization{}, false
}

// MoveTo is the room-to-room transition: an implicit exit from the current
// room followed by an entry into l, with all checks of both.
func (e *Engine) MoveTo(t interval.Time, s profile.SubjectID, l graph.ID) (Decision, error) {
	return e.Enter(t, s, l)
}

// Tick advances the clock to t and runs the continuous monitor: every
// subject still inside a location whose granting authorization's exit
// duration has ended is flagged with an Overstay alert — the paper's "if
// she does not exit CAIS during the exit duration, a warning signal to the
// security guards will be generated". Each violation is reported once.
func (e *Engine) Tick(t interval.Time) ([]audit.Alert, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.advance(t); err != nil {
		return nil, err
	}
	var raised []audit.Alert
	for _, st := range e.moves.OpenStints() {
		if st.Auth == 0 {
			continue
		}
		a, ok := e.stintAuth(st)
		if !ok {
			continue
		}
		if t <= a.Exit.End {
			continue
		}
		key := stintKey{st.Subject, st.Enter}
		if e.overstayAlerted[key] {
			continue
		}
		e.overstayAlerted[key] = true
		raised = append(raised, e.alerts.Raise(audit.Alert{
			Time: t, Kind: audit.Overstay, Subject: st.Subject, Location: st.Location,
			Detail: fmt.Sprintf("still inside %s at %s; exit duration %s has ended", st.Location, t, a.Exit),
		}))
	}
	return raised, nil
}

// WhereIs reports the subject's current location (Outside, false when not
// inside).
func (e *Engine) WhereIs(s profile.SubjectID) (graph.ID, bool) {
	return e.moves.CurrentLocation(s)
}

// Occupants returns who is currently inside l.
func (e *Engine) Occupants(l graph.ID) []profile.SubjectID {
	return e.moves.Occupants(l)
}

// ErrUnknownSubject is returned by presence helpers for subjects with no
// movement history. (Presence queries return ok=false instead; the error
// form is used by the wire layer.)
var ErrUnknownSubject = errors.New("enforce: unknown subject")
