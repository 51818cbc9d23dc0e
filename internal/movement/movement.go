// Package movement implements LTAM's location & movements database
// (Fig. 3): the append-only log of user movements, the derived per-user
// presence state, entry counting for Definition 7's "entered l during
// [tis, tie] for less than n times", and the co-location queries behind
// the paper's SARS contact-tracing motivation (§1).
package movement

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sync"

	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

// EventKind distinguishes entering from leaving a location.
type EventKind int

// The movement event kinds.
const (
	Enter EventKind = iota
	Exit
)

func (k EventKind) String() string {
	switch k {
	case Enter:
		return "enter"
	case Exit:
		return "exit"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one recorded movement.
type Event struct {
	// Seq is the event's place in the log, from 1. RecordEnter and
	// RecordExit return the number of events recorded so far; Events
	// numbers the log it derives, in which same-time events of different
	// subjects follow stint order, so the two can differ for such events.
	Seq uint64
	// Time is the logical time the movement happened.
	Time interval.Time
	// Subject moved; Location is the room entered or left.
	Subject  profile.SubjectID
	Location graph.ID
	Kind     EventKind
	// Auth is the authorization under which an Enter was granted (zero
	// for ungranted movements such as tailgating, which the enforcement
	// engine still records before raising an alert).
	Auth authz.ID
}

// Stint is one contiguous stay of a subject in a location: [Enter, Exit].
// An open stint (subject still inside) has Exit == interval.Inf.
type Stint struct {
	Subject  profile.SubjectID
	Location graph.ID
	Enter    interval.Time
	Exit     interval.Time
	// Auth is the authorization that admitted the stint (zero if none).
	Auth authz.ID
}

// Open reports whether the subject is still inside.
func (s Stint) Open() bool { return s.Exit == interval.Inf }

// Interval returns the stint as a time interval.
func (s Stint) Interval() interval.Interval { return interval.New(s.Enter, s.Exit) }

// Contact is one co-location record produced by ContactsOf.
type Contact struct {
	Other    profile.SubjectID
	Location graph.ID
	Overlap  interval.Interval
}

// Errors returned by the movement database.
var (
	ErrAlreadyInside = errors.New("movement: subject already inside a location")
	ErrNotInside     = errors.New("movement: subject not inside any location")
	ErrTimeRegress   = errors.New("movement: event time precedes an earlier event")
)

// none marks an empty open-stint slot and the end of a subject's chain.
const none = ^uint32(0)

// Rows live in fixed chunks of chunkSize: the history grows without
// copying, and its unused capacity stays under one chunk.
const (
	chunkBits = 10
	chunkSize = 1 << chunkBits
)

// row is one stint. It holds no pointer, so the garbage collector never
// scans the history; names are interned in the subject and location
// tables. prev links each stint to the subject's previous one.
type row struct {
	enter, exit interval.Time // exit is interval.Inf while open
	auth        authz.ID
	subject     uint32
	location    uint32
	prev        uint32
}

type subjectState struct {
	id   profile.SubjectID
	open uint32 // the stint the subject is inside, or none
	last uint32 // the subject's newest stint, or none
}

type locationState struct {
	id   graph.ID
	rows []uint32 // the stints in the location, oldest first
}

// DB is the movement database. It is safe for concurrent use.
//
// It keeps one row per stint and no event list: the log that Events
// returns is derived from the rows (see Frozen).
type DB struct {
	mu          sync.RWMutex
	chunks      [][]row
	nrows       uint32
	nevents     uint64
	lastTime    interval.Time
	subjectIdx  map[profile.SubjectID]uint32
	subjects    []subjectState
	locationIdx map[graph.ID]uint32
	locations   []locationState
}

// NewDB returns an empty movement database.
func NewDB() *DB {
	return &DB{
		lastTime:    interval.MinTime,
		subjectIdx:  make(map[profile.SubjectID]uint32),
		locationIdx: make(map[graph.ID]uint32),
	}
}

func (db *DB) row(r uint32) *row { return &db.chunks[r>>chunkBits][r&(chunkSize-1)] }

// stint renders row r; every reader of the history goes through it.
func (db *DB) stint(r uint32) Stint {
	w := db.row(r)
	return Stint{
		Subject: db.subjects[w.subject].id, Location: db.locations[w.location].id,
		Enter: w.enter, Exit: w.exit, Auth: w.auth,
	}
}

func (w *row) presence() interval.Interval { return interval.New(w.enter, w.exit) }

// RecordEnter logs subject s entering location l at time t under the
// given authorization (zero when the entry was not granted). The database
// is strict: a subject must exit its current location before entering
// another (the enforcement engine decomposes a room-to-room transition
// into exit+enter), and event times must be non-decreasing.
func (db *DB) RecordEnter(t interval.Time, s profile.SubjectID, l graph.ID, auth authz.ID) (Event, error) {
	if s == "" || l == "" {
		return Event{}, errors.New("movement: empty subject or location")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if t < db.lastTime {
		return Event{}, fmt.Errorf("%w: %s < %s", ErrTimeRegress, t, db.lastTime)
	}
	si, known := db.subjectIdx[s]
	if known && db.subjects[si].open != none {
		return Event{}, fmt.Errorf("%w: %s is in %s", ErrAlreadyInside, s, db.stint(db.subjects[si].open).Location)
	}
	if db.nrows == none {
		return Event{}, errors.New("movement: history full")
	}
	if !known {
		si = uint32(len(db.subjects))
		db.subjectIdx[s] = si
		db.subjects = append(db.subjects, subjectState{id: s, open: none, last: none})
	}
	li, known := db.locationIdx[l]
	if !known {
		li = uint32(len(db.locations))
		db.locationIdx[l] = li
		db.locations = append(db.locations, locationState{id: l})
	}
	r, sub := db.nrows, &db.subjects[si]
	if c := len(db.chunks) - 1; c < 0 || len(db.chunks[c]) == chunkSize {
		var next []row // the first chunk grows by append, so a small history stays small
		if c >= 0 {
			next = make([]row, 0, chunkSize)
		}
		db.chunks = append(db.chunks, next)
	}
	c := &db.chunks[len(db.chunks)-1]
	*c = append(*c, row{enter: t, exit: interval.Inf, auth: auth, subject: si, location: li, prev: sub.last})
	db.nrows++
	sub.open, sub.last = r, r
	db.locations[li].rows = append(db.locations[li].rows, r)
	return Event{Seq: db.logged(t), Time: t, Subject: s, Location: l, Kind: Enter, Auth: auth}, nil
}

// RecordExit logs subject s leaving its current location at time t and
// returns the event together with the closed stint.
func (db *DB) RecordExit(t interval.Time, s profile.SubjectID) (Event, Stint, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if t < db.lastTime {
		return Event{}, Stint{}, fmt.Errorf("%w: %s < %s", ErrTimeRegress, t, db.lastTime)
	}
	si, known := db.subjectIdx[s]
	if !known || db.subjects[si].open == none {
		return Event{}, Stint{}, fmt.Errorf("%w: %s", ErrNotInside, s)
	}
	r := db.subjects[si].open
	db.subjects[si].open = none
	db.row(r).exit = t
	st := db.stint(r)
	return Event{Seq: db.logged(t), Time: t, Subject: s, Location: st.Location, Kind: Exit, Auth: st.Auth}, st, nil
}

// logged counts one more event at time t and returns its number.
func (db *DB) logged(t interval.Time) uint64 {
	db.nevents++
	db.lastTime = t
	return db.nevents
}

// CurrentLocation returns where subject s currently is.
func (db *DB) CurrentLocation(s profile.SubjectID) (graph.ID, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	si, known := db.subjectIdx[s]
	if !known || db.subjects[si].open == none {
		return "", false
	}
	return db.locations[db.row(db.subjects[si].open).location].id, true
}

// Occupants returns the subjects currently inside location l, sorted.
func (db *DB) Occupants(l graph.ID) []profile.SubjectID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	li, known := db.locationIdx[l]
	if !known {
		return nil
	}
	var out []profile.SubjectID
	for _, sub := range db.subjects {
		if sub.open != none && db.row(sub.open).location == li {
			out = append(out, sub.id)
		}
	}
	slices.Sort(out)
	return out
}

// EntryCount returns how many times subject s entered location l with
// entry time inside window — the count Definition 7 compares against n.
// It walks the subject's stints from the newest back to window.Start, so
// its cost is the subject's entries since the window opened, not its
// history.
func (db *DB) EntryCount(s profile.SubjectID, l graph.ID, window interval.Interval) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	li, known := db.locationIdx[l]
	if !known || window.IsEmpty() {
		return 0
	}
	n := 0
	for r := db.newest(s); r != none; r = db.row(r).prev {
		w := db.row(r)
		if w.enter < window.Start {
			break // entry times never decrease along the subject's stints
		}
		if w.location == li && w.enter <= window.End {
			n++
		}
	}
	return n
}

// newest returns subject s's newest stint, or none: the head of the
// subject's prev chain.
func (db *DB) newest(s profile.SubjectID) uint32 {
	if si, known := db.subjectIdx[s]; known {
		return db.subjects[si].last
	}
	return none
}

// History returns all stints of subject s in chronological order.
func (db *DB) History(s profile.SubjectID) []Stint {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Stint
	for r := db.newest(s); r != none; r = db.row(r).prev {
		out = append(out, db.stint(r))
	}
	slices.Reverse(out)
	return out
}

// locationRows returns the rows of location l entered by time end,
// oldest first: the only ones that can be present at or before end.
func (db *DB) locationRows(l graph.ID, end interval.Time) []uint32 {
	li, known := db.locationIdx[l]
	if !known {
		return nil
	}
	rows := db.locations[li].rows
	n, _ := slices.BinarySearchFunc(rows, end, func(r uint32, end interval.Time) int {
		if db.row(r).enter <= end {
			return -1
		}
		return 1
	})
	return rows[:n]
}

// StintsIn returns the stints in location l whose presence interval
// overlaps window, in chronological order.
func (db *DB) StintsIn(l graph.ID, window interval.Interval) []Stint {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Stint
	for _, r := range db.locationRows(l, window.End) {
		if db.row(r).presence().Overlaps(window) {
			out = append(out, db.stint(r))
		}
	}
	return out
}

// WhoWasIn returns the distinct subjects present in location l at some
// point of window, sorted.
func (db *DB) WhoWasIn(l graph.ID, window interval.Interval) []profile.SubjectID {
	seen := map[profile.SubjectID]bool{}
	for _, st := range db.StintsIn(l, window) {
		seen[st.Subject] = true
	}
	out := make([]profile.SubjectID, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// ContactsOf returns every co-location of subject s with another subject
// during window: pairs that were inside the same location at overlapping
// times, with the overlap interval. This is the movement-database query
// behind the paper's SARS motivation — "users who were in contact with
// diagnosed SARS patients could be traced".
func (db *DB) ContactsOf(s profile.SubjectID, window interval.Interval) []Contact {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Contact
	for r := db.newest(s); r != none; r = db.row(r).prev {
		mine := db.row(r)
		if mine.exit < window.Start {
			break // the subject's earlier stints all ended before this one
		}
		span := mine.presence().Intersect(window)
		if span.IsEmpty() {
			continue
		}
		for _, o := range db.locationRows(db.locations[mine.location].id, span.End) {
			other := db.row(o)
			if other.subject == mine.subject {
				continue
			}
			if overlap := other.presence().Intersect(span); !overlap.IsEmpty() {
				out = append(out, Contact{Other: db.subjects[other.subject].id, Location: db.locations[mine.location].id, Overlap: overlap})
			}
		}
	}
	slices.SortFunc(out, func(a, b Contact) int {
		return cmp.Or(cmp.Compare(a.Overlap.Start, b.Overlap.Start), cmp.Compare(a.Other, b.Other),
			cmp.Compare(a.Location, b.Location), cmp.Compare(a.Overlap.End, b.Overlap.End))
	})
	return out
}

// Events returns the movement log, derived from the stints (see Frozen).
func (db *DB) Events() []Event {
	return db.Freeze().Events()
}

// Frozen is a copy of the history, from which Events derives the log
// without holding the database's lock.
type Frozen struct {
	rows      []row
	subjects  []profile.SubjectID
	locations []graph.ID
	nevents   uint64
}

// Freeze copies the history under the read lock: one row per stint and
// the name tables, no per-event work.
func (db *DB) Freeze() *Frozen {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f := &Frozen{
		rows:      make([]row, 0, db.nrows),
		subjects:  make([]profile.SubjectID, len(db.subjects)),
		locations: make([]graph.ID, len(db.locations)),
		nevents:   db.nevents,
	}
	for _, c := range db.chunks {
		f.rows = append(f.rows, c...)
	}
	for i, sub := range db.subjects {
		f.subjects[i] = sub.id
	}
	for i, loc := range db.locations {
		f.locations[i] = loc.id
	}
	return f
}

// Len returns the number of events in the frozen log.
func (f *Frozen) Len() int { return int(f.nevents) }

// All yields the frozen movement log: each stint contributes its enter
// and, once closed, its exit. Events are ordered by time, then by stint,
// enter before exit. A subject's own events keep their recorded order
// under this key — its exit from a room precedes its next entry at the
// same time, because that entry is a later stint — so the derived log
// replays through the strict Restore.
func (f *Frozen) All() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		type exit struct {
			t interval.Time
			r uint32
		}
		exits := make([]exit, 0, f.nevents-uint64(len(f.rows)))
		for r, w := range f.rows {
			if w.exit != interval.Inf {
				exits = append(exits, exit{w.exit, uint32(r)})
			}
		}
		slices.SortFunc(exits, func(a, b exit) int {
			if c := cmp.Compare(a.t, b.t); c != 0 {
				return c
			}
			return cmp.Compare(a.r, b.r)
		})
		seq := uint64(0)
		emit := func(r uint32, kind EventKind, t interval.Time) bool {
			seq++
			w := &f.rows[r]
			return yield(Event{Seq: seq, Time: t, Subject: f.subjects[w.subject],
				Location: f.locations[w.location], Kind: kind, Auth: w.auth})
		}
		// Entries are already in (time, stint) order: stints are numbered
		// as they are entered, and entry times never decrease.
		enter := uint32(0)
		for _, x := range exits {
			for ; int(enter) < len(f.rows) && (f.rows[enter].enter < x.t || f.rows[enter].enter == x.t && enter <= x.r); enter++ {
				if !emit(enter, Enter, f.rows[enter].enter) {
					return
				}
			}
			if !emit(x.r, Exit, x.t) {
				return
			}
		}
		for ; int(enter) < len(f.rows); enter++ {
			if !emit(enter, Enter, f.rows[enter].enter) {
				return
			}
		}
	}
}

// Events returns the frozen movement log (see All).
func (f *Frozen) Events() []Event {
	out := make([]Event, 0, f.nevents)
	for ev := range f.All() {
		out = append(out, ev)
	}
	return out
}

// Len returns the number of logged events.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return int(db.nevents)
}

// LastTime returns the time of the most recent event, or interval.MinTime
// when the log is empty.
func (db *DB) LastTime() interval.Time {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.lastTime
}

// OpenStints returns the stints of subjects currently inside a location,
// sorted by subject — the working set for the engine's overstay monitor.
func (db *DB) OpenStints() []Stint {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Stint
	for _, sub := range db.subjects {
		if sub.open != none {
			out = append(out, db.stint(sub.open))
		}
	}
	slices.SortFunc(out, func(a, b Stint) int { return cmp.Compare(a.Subject, b.Subject) })
	return out
}

// Snapshot returns the event log for persistence.
func (db *DB) Snapshot() []Event {
	return db.Events()
}

// Restore rebuilds the database by replaying the given event log.
func (db *DB) Restore(events []Event) error {
	fresh := NewDB()
	for _, ev := range events {
		var err error
		switch ev.Kind {
		case Enter:
			_, err = fresh.RecordEnter(ev.Time, ev.Subject, ev.Location, ev.Auth)
		case Exit:
			_, _, err = fresh.RecordExit(ev.Time, ev.Subject)
		default:
			err = fmt.Errorf("movement: restore: unknown event kind %d", ev.Kind)
		}
		if err != nil {
			return fmt.Errorf("movement: restore seq %d: %w", ev.Seq, err)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	fresh.mu.Lock()
	defer fresh.mu.Unlock()
	db.chunks, db.nrows, db.nevents, db.lastTime = fresh.chunks, fresh.nrows, fresh.nevents, fresh.lastTime
	db.subjectIdx, db.subjects = fresh.subjectIdx, fresh.subjects
	db.locationIdx, db.locations = fresh.locationIdx, fresh.locations
	return nil
}
