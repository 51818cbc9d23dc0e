package movement

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

// This file provides the occupancy analytics a security console needs on
// top of the raw movement log: instantaneous occupancy, peak occupancy
// over a window, and per-subject dwell totals. They are read-side
// derivations over stints, so they stay consistent with everything the
// enforcement engine records — including ungranted (tailgating) stints,
// which a security dashboard must count, not hide.

// OccupancyAt returns how many subjects were inside location l at time t.
func (db *DB) OccupancyAt(l graph.ID, t interval.Time) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, r := range db.locationRows(l, t) {
		if db.row(r).presence().Contains(t) {
			n++
		}
	}
	return n
}

// PeakOccupancy returns the maximum simultaneous occupancy of l during
// window and one time at which it was reached (the earliest). An empty
// room reports (0, window.Start).
func (db *DB) PeakOccupancy(l graph.ID, window interval.Interval) (int, interval.Time) {
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
	for _, r := range db.locationRows(l, window.End) {
		span := db.row(r).presence().Intersect(window)
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
func (db *DB) DwellTime(s profile.SubjectID, l graph.ID, window interval.Interval) int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	li, known := db.locationIdx[l]
	if !known {
		return 0
	}
	var total int64
	for r := db.newest(s); r != none; r = db.row(r).prev {
		w := db.row(r)
		if w.exit < window.Start {
			break // the subject's earlier stints all ended before this one
		}
		if w.location != li {
			continue
		}
		span := w.presence().Intersect(window)
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

// BusiestLocations returns every location that saw at least one stint
// overlapping window, ordered by descending visit count (ties broken by
// name) — "where is the traffic" for the security console.
type LocationTraffic struct {
	Location graph.ID
	Visits   int
}

// BusiestLocations implements the traffic ranking.
func (db *DB) BusiestLocations(window interval.Interval) []LocationTraffic {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []LocationTraffic
	for _, loc := range db.locations {
		n := 0
		for _, r := range db.locationRows(loc.id, window.End) {
			if db.row(r).presence().Overlaps(window) {
				n++
			}
		}
		if n > 0 {
			out = append(out, LocationTraffic{Location: loc.id, Visits: n})
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
