package movement

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

// TestModelMatchesReference drives DB and refDB, the list-of-structs
// database it replaced, with the same random movements — same-time
// room-to-room moves, zero-length stints, and events the strict checks
// reject — and compares every read after every step. At the end of each
// run, a DB restored from the derived log must give the same answers.
func TestModelMatchesReference(t *testing.T) {
	subjects := []profile.SubjectID{"a", "b", "c", "d", "e"}
	locations := []graph.ID{"w", "x", "y", "z"}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db, ref := NewDB(), newRefDB()
		clock := interval.Time(0)
		for step := range 250 {
			tm := clock + interval.Time(rng.Intn(3)) // 0: a same-time event
			if rng.Intn(15) == 0 {
				tm = clock - 1 - interval.Time(rng.Intn(3)) // rejected: ErrTimeRegress
			}
			s := subjects[rng.Intn(len(subjects))]
			_, inside := ref.CurrentLocation(s)
			enter := rng.Intn(2) == 0
			if inside && enter && rng.Intn(2) == 0 {
				// Room to room: exit, then enter at the same time.
				applyExit(t, db, ref, tm, s)
			}
			if enter {
				l, auth := locations[rng.Intn(len(locations))], authz.ID(rng.Intn(4))
				_, err := db.RecordEnter(tm, s, l, auth)
				_, refErr := ref.RecordEnter(tm, s, l, auth)
				sameErr(t, err, refErr)
			} else {
				applyExit(t, db, ref, tm, s)
			}
			clock = max(clock, ref.LastTime())
			compareDBs(t, fmt.Sprintf("seed %d step %d", seed, step), db, ref, rng, subjects, locations, clock)
		}
		restored := NewDB()
		if err := restored.Restore(db.Events()); err != nil {
			t.Fatalf("seed %d: restore of the derived log: %v", seed, err)
		}
		compareDBs(t, fmt.Sprintf("seed %d restored", seed), restored, ref, rng, subjects, locations, clock)
		if !slices.Equal(restored.Events(), db.Events()) {
			t.Fatalf("seed %d: the restored log differs from the one it was restored from", seed)
		}
	}
}

func applyExit(t *testing.T, db *DB, ref *refDB, tm interval.Time, s profile.SubjectID) {
	t.Helper()
	_, st, err := db.RecordExit(tm, s)
	_, refSt, refErr := ref.RecordExit(tm, s)
	sameErr(t, err, refErr)
	if st != refSt {
		t.Fatalf("closed stint %+v, reference %+v", st, refSt)
	}
}

func sameErr(t *testing.T, err, refErr error) {
	t.Helper()
	for _, target := range []error{ErrAlreadyInside, ErrNotInside, ErrTimeRegress} {
		if errors.Is(err, target) != errors.Is(refErr, target) {
			t.Fatalf("error %v, reference %v", err, refErr)
		}
	}
	if (err == nil) != (refErr == nil) {
		t.Fatalf("error %v, reference %v", err, refErr)
	}
}

// windows returns random query windows around the history: bounded,
// unbounded, a single chronon, everything, and the empty interval.
func windows(rng *rand.Rand, clock interval.Time) []interval.Interval {
	start := interval.Time(rng.Intn(int(clock)+4)) - 2
	return []interval.Interval{
		interval.New(start, start+interval.Time(rng.Intn(12))),
		interval.From(start),
		interval.Point(start),
		{Start: interval.MinTime, End: interval.Inf},
		interval.Empty,
	}
}

func compareDBs(t *testing.T, tag string, db *DB, ref *refDB, rng *rand.Rand, subjects []profile.SubjectID, locations []graph.ID, clock interval.Time) {
	t.Helper()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("%s: %s = %v, reference %v", tag, what, got, want)
	}
	if db.Len() != ref.Len() || db.LastTime() != ref.LastTime() {
		fail("len, last time", []any{db.Len(), db.LastTime()}, []any{ref.Len(), ref.LastTime()})
	}
	if got, want := db.OpenStints(), ref.OpenStints(); !slices.Equal(got, want) {
		fail("open stints", got, want)
	}
	byFullKey := func(a, b Contact) int {
		return cmp.Or(cmp.Compare(a.Overlap.Start, b.Overlap.Start), cmp.Compare(a.Other, b.Other),
			cmp.Compare(a.Location, b.Location), cmp.Compare(a.Overlap.End, b.Overlap.End))
	}
	ws := windows(rng, clock)
	for _, w := range ws {
		if got, want := db.BusiestLocations(w), ref.BusiestLocations(w); !slices.Equal(got, want) {
			fail(fmt.Sprintf("busiest %v", w), got, want)
		}
	}
	for _, s := range subjects {
		if got, want := db.History(s), ref.History(s); !slices.Equal(got, want) {
			fail("history of "+string(s), got, want)
		}
		gl, gin := db.CurrentLocation(s)
		wl, win := ref.CurrentLocation(s)
		if gl != wl || gin != win {
			fail("location of "+string(s), gl, wl)
		}
		for _, w := range ws {
			got, want := db.ContactsOf(s, w), ref.ContactsOf(s, w)
			slices.SortFunc(want, byFullKey)
			if !slices.Equal(got, want) {
				fail(fmt.Sprintf("contacts of %s in %v", s, w), got, want)
			}
			for _, l := range locations {
				if got, want := db.EntryCount(s, l, w), ref.EntryCount(s, l, w); got != want {
					fail(fmt.Sprintf("entries of %s in %s during %v", s, l, w), got, want)
				}
				if got, want := db.DwellTime(s, l, w), ref.DwellTime(s, l, w); got != want {
					fail(fmt.Sprintf("dwell of %s in %s during %v", s, l, w), got, want)
				}
			}
		}
	}
	for _, l := range locations {
		if got, want := db.Occupants(l), ref.Occupants(l); !slices.Equal(got, want) {
			fail("occupants of "+string(l), got, want)
		}
		for _, tm := range []interval.Time{ws[0].Start, clock, interval.Inf} {
			if got, want := db.OccupancyAt(l, tm), ref.OccupancyAt(l, tm); got != want {
				fail(fmt.Sprintf("occupancy of %s at %v", l, tm), got, want)
			}
		}
		for _, w := range ws {
			if got, want := db.StintsIn(l, w), ref.StintsIn(l, w); !slices.Equal(got, want) {
				fail(fmt.Sprintf("stints in %s during %v", l, w), got, want)
			}
			if got, want := db.WhoWasIn(l, w), ref.WhoWasIn(l, w); !slices.Equal(got, want) {
				fail(fmt.Sprintf("who was in %s during %v", l, w), got, want)
			}
			gn, gt := db.PeakOccupancy(l, w)
			wn, wt := ref.PeakOccupancy(l, w)
			if gn != wn || gt != wt {
				fail(fmt.Sprintf("peak of %s during %v", l, w), []any{gn, gt}, []any{wn, wt})
			}
		}
	}
	// The derived log holds the recorded events, numbered in order, at
	// non-decreasing times.
	evs, refEvs := db.Events(), ref.Events()
	count := map[Event]int{}
	for i, ev := range evs {
		if ev.Seq != uint64(i)+1 || i > 0 && ev.Time < evs[i-1].Time {
			fail("derived event", ev, i+1)
		}
		ev.Seq = 0
		count[ev]++
	}
	for _, ev := range refEvs {
		ev.Seq = 0
		count[ev]--
	}
	for _, n := range count {
		if n != 0 {
			fail("events", evs, refEvs)
		}
	}
}

// refDB is the movement database as it was before stints became
// pointer-free rows: every event and every stint kept as a struct. It is
// the reference the model test checks DB against.
type refDB struct {
	mu            sync.RWMutex
	events        []Event
	nextSeq       uint64
	lastTime      interval.Time
	stints        []Stint
	openBySubject map[profile.SubjectID]int // index into stints
	bySubject     map[profile.SubjectID][]int
	byLocation    map[graph.ID][]int
}

// newRefDB returns an empty reference database.
func newRefDB() *refDB {
	return &refDB{
		nextSeq:       1,
		lastTime:      interval.MinTime,
		openBySubject: make(map[profile.SubjectID]int),
		bySubject:     make(map[profile.SubjectID][]int),
		byLocation:    make(map[graph.ID][]int),
	}
}

// RecordEnter logs subject s entering location l at time t under the
// given authorization (zero when the entry was not granted). The database
// is strict: a subject must exit its current location before entering
// another (the enforcement engine decomposes a room-to-room transition
// into exit+enter), and event times must be non-decreasing.
func (db *refDB) RecordEnter(t interval.Time, s profile.SubjectID, l graph.ID, auth authz.ID) (Event, error) {
	if s == "" || l == "" {
		return Event{}, errors.New("movement: empty subject or location")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if t < db.lastTime {
		return Event{}, fmt.Errorf("%w: %s < %s", ErrTimeRegress, t, db.lastTime)
	}
	if idx, inside := db.openBySubject[s]; inside {
		return Event{}, fmt.Errorf("%w: %s is in %s", ErrAlreadyInside, s, db.stints[idx].Location)
	}
	ev := db.appendLocked(Event{Time: t, Subject: s, Location: l, Kind: Enter, Auth: auth})
	idx := len(db.stints)
	db.stints = append(db.stints, Stint{Subject: s, Location: l, Enter: t, Exit: interval.Inf, Auth: auth})
	db.openBySubject[s] = idx
	db.bySubject[s] = append(db.bySubject[s], idx)
	db.byLocation[l] = append(db.byLocation[l], idx)
	return ev, nil
}

// RecordExit logs subject s leaving its current location at time t and
// returns the event together with the closed stint.
func (db *refDB) RecordExit(t interval.Time, s profile.SubjectID) (Event, Stint, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if t < db.lastTime {
		return Event{}, Stint{}, fmt.Errorf("%w: %s < %s", ErrTimeRegress, t, db.lastTime)
	}
	idx, inside := db.openBySubject[s]
	if !inside {
		return Event{}, Stint{}, fmt.Errorf("%w: %s", ErrNotInside, s)
	}
	st := &db.stints[idx]
	st.Exit = t
	delete(db.openBySubject, s)
	ev := db.appendLocked(Event{Time: t, Subject: s, Location: st.Location, Kind: Exit, Auth: st.Auth})
	return ev, *st, nil
}

func (db *refDB) appendLocked(ev Event) Event {
	ev.Seq = db.nextSeq
	db.nextSeq++
	db.lastTime = ev.Time
	db.events = append(db.events, ev)
	return ev
}

// CurrentLocation returns where subject s currently is.
func (db *refDB) CurrentLocation(s profile.SubjectID) (graph.ID, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	idx, inside := db.openBySubject[s]
	if !inside {
		return "", false
	}
	return db.stints[idx].Location, true
}

// Occupants returns the subjects currently inside location l, sorted.
func (db *refDB) Occupants(l graph.ID) []profile.SubjectID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []profile.SubjectID
	for s, idx := range db.openBySubject {
		if db.stints[idx].Location == l {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EntryCount returns how many times subject s entered location l with
// entry time inside window — the count Definition 7 compares against n.
func (db *refDB) EntryCount(s profile.SubjectID, l graph.ID, window interval.Interval) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, idx := range db.bySubject[s] {
		st := db.stints[idx]
		if st.Location == l && window.Contains(st.Enter) {
			n++
		}
	}
	return n
}

// History returns all stints of subject s in chronological order.
func (db *refDB) History(s profile.SubjectID) []Stint {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]Stint, 0, len(db.bySubject[s]))
	for _, idx := range db.bySubject[s] {
		out = append(out, db.stints[idx])
	}
	return out
}

// StintsIn returns the stints in location l whose presence interval
// overlaps window, in chronological order.
func (db *refDB) StintsIn(l graph.ID, window interval.Interval) []Stint {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Stint
	for _, idx := range db.byLocation[l] {
		st := db.stints[idx]
		if st.Interval().Overlaps(window) {
			out = append(out, st)
		}
	}
	return out
}

// WhoWasIn returns the distinct subjects present in location l at some
// point of window, sorted.
func (db *refDB) WhoWasIn(l graph.ID, window interval.Interval) []profile.SubjectID {
	seen := map[profile.SubjectID]bool{}
	for _, st := range db.StintsIn(l, window) {
		seen[st.Subject] = true
	}
	out := make([]profile.SubjectID, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ContactsOf returns every co-location of subject s with another subject
// during window: pairs that were inside the same location at overlapping
// times, with the overlap interval. This is the movement-database query
// behind the paper's SARS motivation — "users who were in contact with
// diagnosed SARS patients could be traced".
func (db *refDB) ContactsOf(s profile.SubjectID, window interval.Interval) []Contact {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Contact
	for _, idx := range db.bySubject[s] {
		mine := db.stints[idx]
		span := mine.Interval().Intersect(window)
		if span.IsEmpty() {
			continue
		}
		for _, oidx := range db.byLocation[mine.Location] {
			other := db.stints[oidx]
			if other.Subject == s {
				continue
			}
			overlap := other.Interval().Intersect(span)
			if !overlap.IsEmpty() {
				out = append(out, Contact{Other: other.Subject, Location: mine.Location, Overlap: overlap})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Overlap.Start != out[j].Overlap.Start {
			return out[i].Overlap.Start < out[j].Overlap.Start
		}
		return out[i].Other < out[j].Other
	})
	return out
}

// Events returns a copy of the whole movement log.
func (db *refDB) Events() []Event {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]Event, len(db.events))
	copy(out, db.events)
	return out
}

// Len returns the number of logged events.
func (db *refDB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.events)
}

// LastTime returns the time of the most recent event, or interval.MinTime
// when the log is empty.
func (db *refDB) LastTime() interval.Time {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.lastTime
}

// OpenStints returns the stints of subjects currently inside a location,
// sorted by subject — the working set for the engine's overstay monitor.
func (db *refDB) OpenStints() []Stint {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]Stint, 0, len(db.openBySubject))
	for _, idx := range db.openBySubject {
		out = append(out, db.stints[idx])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Subject < out[j].Subject })
	return out
}

// OccupancyAt returns how many subjects were inside location l at time t.
func (db *refDB) OccupancyAt(l graph.ID, t interval.Time) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, idx := range db.byLocation[l] {
		if db.stints[idx].Interval().Contains(t) {
			n++
		}
	}
	return n
}

// PeakOccupancy returns the maximum simultaneous occupancy of l during
// window and one time at which it was reached (the earliest). An empty
// room reports (0, window.Start).
func (db *refDB) PeakOccupancy(l graph.ID, window interval.Interval) (int, interval.Time) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if window.IsEmpty() {
		return 0, 0
	}
	// Sweep entry/exit boundaries clamped to the window.
	type edge struct {
		t     interval.Time
		delta int
	}
	var edges []edge
	for _, idx := range db.byLocation[l] {
		st := db.stints[idx]
		span := st.Interval().Intersect(window)
		if span.IsEmpty() {
			continue
		}
		edges = append(edges, edge{span.Start, +1})
		if !span.End.IsInf() {
			// Closed intervals: the subject is still present AT span.End,
			// so the decrement takes effect just after.
			edges = append(edges, edge{span.End + 1, -1})
		}
	}
	if len(edges) == 0 {
		return 0, window.Start
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta > edges[j].delta // arrivals before departures
	})
	cur, best := 0, 0
	bestAt := window.Start
	for _, e := range edges {
		cur += e.delta
		if cur > best {
			best, bestAt = cur, e.t
		}
	}
	return best, bestAt
}

// DwellTime returns the total number of chronons subject s spent inside
// location l during window; open stints count up to the window end (or
// -1 when both the stint and the window are unbounded).
func (db *refDB) DwellTime(s profile.SubjectID, l graph.ID, window interval.Interval) int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var total int64
	for _, idx := range db.bySubject[s] {
		st := db.stints[idx]
		if st.Location != l {
			continue
		}
		span := st.Interval().Intersect(window)
		if span.IsEmpty() {
			continue
		}
		sz := span.Size()
		if sz < 0 {
			return -1
		}
		total += sz
	}
	return total
}

// BusiestLocations implements the traffic ranking.
func (db *refDB) BusiestLocations(window interval.Interval) []LocationTraffic {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []LocationTraffic
	for l, idxs := range db.byLocation {
		n := 0
		for _, idx := range idxs {
			if db.stints[idx].Interval().Overlaps(window) {
				n++
			}
		}
		if n > 0 {
			out = append(out, LocationTraffic{Location: l, Visits: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Visits != out[j].Visits {
			return out[i].Visits > out[j].Visits
		}
		return out[i].Location < out[j].Location
	})
	return out
}
