// Package query implements LTAM's query engine (Fig. 3), centred on the
// paper's flagship analysis: the inaccessible location finding problem
// (Definitions 8 and 9) and its solution, Algorithm 1 — a fixpoint
// propagation of overall grant times T^g and overall departure times T^d
// over the location graph. It also provides the §6 authorized-route check,
// a Lemma-1-based hierarchical solver for multilevel graphs, and a naive
// route-enumeration baseline used to validate the algorithm and to
// benchmark against.
package query

import (
	"fmt"
	"strings"

	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

// AuthSource supplies the authorizations of a subject on a location;
// *authz.Store and *authz.View satisfy it. Algorithm 1 reads the returned
// slices in place and never writes them.
type AuthSource interface {
	For(s profile.SubjectID, l graph.ID) []authz.Authorization
}

// gatherAuths collects src.For(s, l) for every node of f. The slices are
// lent, not copied: a View's (and the Store's) For returns its immutable
// published index, so the gather allocates only the per-node header
// array.
func gatherAuths(f *graph.Flat, src AuthSource, s profile.SubjectID) [][]authz.Authorization {
	auths := make([][]authz.Authorization, len(f.Nodes))
	for i, id := range f.Nodes {
		auths[i] = src.For(s, id)
	}
	return auths
}

// State is the Algorithm-1 per-location state: the boolean flag, the
// overall grant time T^g and the overall departure time T^d.
type State struct {
	Flag   bool
	Grant  interval.Set // T^g
	Depart interval.Set // T^d
}

// TraceStep is one row of a Table-2-style trace: the location that was
// just processed ("Initiation" for the starting row) and every location's
// state after the update.
type TraceStep struct {
	Updated graph.ID // "" for the initiation row
	States  map[graph.ID]State
}

// Label renders the row label as in Table 2.
func (ts TraceStep) Label() string {
	if ts.Updated == "" {
		return "Initiation"
	}
	return "Update " + string(ts.Updated)
}

// Result is the output of FindInaccessible.
type Result struct {
	// Inaccessible lists the locations with null overall grant time, in
	// node order (Algorithm 1 line 35).
	Inaccessible []graph.ID
	// Accessible is the §5 complement of Inaccessible, in node order:
	// together they partition f.Nodes.
	Accessible []graph.ID
	// States holds the final per-location state.
	States map[graph.ID]State
	// Trace holds the per-update rows when tracing was requested.
	Trace []TraceStep
	// Rounds is the number of while-loop sweeps; Updates the number of
	// location processings — the work measure behind the paper's
	// O(N_L²·N_d·N_a) bound.
	Rounds, Updates int
}

// Options tunes FindInaccessible.
type Options struct {
	// Trace records a TraceStep after the initiation of each entry
	// location and after every location update, reproducing Table 2.
	Trace bool
	// Window is the access request duration. Definition 8 fixes it to
	// [0, ∞); leaving Window zero keeps that default. A bounded window
	// generalises the query to "which locations are inaccessible to s
	// when the visit must happen within [tp, tq]" — the entry
	// locations' grant and departure durations are clamped per §6's
	// GrantDuring/DepartureDuring instead of taken whole.
	Window interval.Interval
}

func (o Options) window() interval.Interval {
	if o.Window == (interval.Interval{}) || o.Window.IsEmpty() {
		return interval.From(0)
	}
	return o.Window
}

// FindInaccessible runs Algorithm 1 for subject s over the expanded
// location graph f, reading authorizations from src. It follows the
// paper's pseudocode line by line, with two documented corrections of
// obvious typos, both confirmed by the paper's own Table 2 narrative:
//
//   - line 8 reads "if lentry.T^d = null then [flag neighbours]"; it must
//     be ≠ null (neighbours become reachable when the entry CAN be
//     departed — after "Update A" with T^d=[20,50], B and D are flagged);
//   - line 28 reads "if l.T^d = l.T^old_d then [flag neighbours]"; it
//     must be ≠ ("Since there is no change to both durations, A will not
//     update its neighbors").
func FindInaccessible(f *graph.Flat, src AuthSource, s profile.SubjectID, opts Options) Result {
	n := len(f.Nodes)
	states := make([]State, n) // line 1: T^g = T^d = null, flag = false

	res := Result{States: make(map[graph.ID]State, n)}
	auths := gatherAuths(f, src, s)

	if opts.Trace {
		res.Trace = append(res.Trace, snapshot("", f, states))
	}

	// Lines 2–13: initiation of entry locations. With the default
	// window [0, ∞), GrantDuring/DepartureDuring reduce to the raw
	// entry/exit durations of lines 4–5; a bounded window clamps them
	// per §6.
	window := opts.window()
	for _, e := range f.Entries {
		for _, a := range auths[e] {
			g := a.GrantDuring(window)
			if g.IsEmpty() {
				continue
			}
			states[e].Grant = states[e].Grant.Add(g)                           // line 4
			states[e].Depart = states[e].Depart.Add(a.DepartureDuring(window)) // line 5
		}
		states[e].Flag = false           // line 7: will not change further... except via the loop
		if !states[e].Depart.IsEmpty() { // line 8 (corrected to ≠ null)
			for _, nb := range f.Adj[e] {
				states[nb].Flag = true // line 10
			}
		}
		res.Updates++
		if opts.Trace {
			res.Trace = append(res.Trace, snapshot(f.Nodes[e], f, states))
		}
	}

	// Lines 14–34: fixpoint loop. Each sweep snapshots the flagged set
	// and processes it in node order, which keeps the run deterministic.
	// One flagged buffer is reused across sweeps.
	flagged := make([]int, 0, n)
	for {
		flagged = flagged[:0]
		for i := range states {
			if states[i].Flag {
				flagged = append(flagged, i)
			}
		}
		if len(flagged) == 0 {
			break // line 14
		}
		res.Rounds++
		for _, li := range flagged {
			st := &states[li]
			st.Flag = false        // line 16
			oldDepart := st.Depart // line 17
			var t interval.Set     // line 18: T := ∪ neighbours' T^d
			for _, nb := range f.Adj[li] {
				t = t.Union(states[nb].Depart)
			}
			for wi := 0; wi < t.Len(); wi++ { // line 19 (At avoids Intervals' copy)
				w := t.At(wi)
				for _, a := range auths[li] { // line 20
					g := a.GrantDuring(w) // line 21
					if !g.IsEmpty() {     // line 22
						st.Grant = st.Grant.Add(g)                      // line 23
						st.Depart = st.Depart.Add(a.DepartureDuring(w)) // line 24
					}
				}
			}
			if !st.Depart.Equal(oldDepart) { // line 28 (corrected to ≠)
				for _, nb := range f.Adj[li] {
					states[nb].Flag = true // line 30
				}
			}
			res.Updates++
			if opts.Trace {
				res.Trace = append(res.Trace, snapshot(f.Nodes[li], f, states))
			}
		}
	}

	// Line 35: return {l | l.T^g = null}, and its complement.
	for i, id := range f.Nodes {
		res.States[id] = states[i]
		if states[i].Grant.IsEmpty() {
			res.Inaccessible = append(res.Inaccessible, id)
		} else {
			res.Accessible = append(res.Accessible, id)
		}
	}
	return res
}

func snapshot(updated graph.ID, f *graph.Flat, states []State) TraceStep {
	ts := TraceStep{Updated: updated, States: make(map[graph.ID]State, len(states))}
	for i, id := range f.Nodes {
		ts.States[id] = states[i]
	}
	return ts
}

// Accessible returns the locations NOT inaccessible to s — the complement
// query mentioned in §5 ("a query that find all locations inaccessible
// (or accessible) to a given subject").
func Accessible(f *graph.Flat, src AuthSource, s profile.SubjectID) []graph.ID {
	return FindInaccessible(f, src, s, Options{}).Accessible
}

// EarliestAccess returns the earliest chronon at which subject s can be
// standing inside location l having entered through an authorized route
// from an entry location — the minimum of l's overall grant time T^g.
// ok is false when l is inaccessible (or unknown). This is a direct
// corollary of Algorithm 1: T^g is exactly the set of instants at which
// s can be granted entry to l along some authorized route.
func EarliestAccess(f *graph.Flat, src AuthSource, s profile.SubjectID, l graph.ID) (interval.Time, bool) {
	if _, known := f.Index[l]; !known {
		return 0, false
	}
	res := FindInaccessible(f, src, s, Options{})
	return res.States[l].Grant.Earliest()
}

// WhoCanAccess is the inverse analysis: of the given subjects, which can
// reach location l through an authorized route (Def. 8's accessibility,
// per subject). Results keep the input order, de-duplicated.
func WhoCanAccess(f *graph.Flat, src AuthSource, subjects []profile.SubjectID, l graph.ID) []profile.SubjectID {
	if _, known := f.Index[l]; !known {
		return nil
	}
	return WhoCanAccessBy(subjects, func(s profile.SubjectID) bool {
		_, ok := EarliestAccess(f, src, s, l)
		return ok
	})
}

// WhoCanAccessBy runs the inverse analysis over an arbitrary
// reachability predicate, keeping input order and de-duplicating.
// WhoCanAccess and the System's cached path share it.
func WhoCanAccessBy(subjects []profile.SubjectID, canReach func(profile.SubjectID) bool) []profile.SubjectID {
	var out []profile.SubjectID
	seen := map[profile.SubjectID]bool{}
	for _, s := range subjects {
		if seen[s] {
			continue
		}
		seen[s] = true
		if canReach(s) {
			out = append(out, s)
		}
	}
	return out
}

// FormatTrace renders a Result's trace as a Table-2-style text table, one
// row per update, with per-location flag / T^g / T^d columns.
func FormatTrace(f *graph.Flat, res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "")
	for _, id := range f.Nodes {
		fmt.Fprintf(&b, "| %-34s", id)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-12s", "")
	for range f.Nodes {
		fmt.Fprintf(&b, "| %-4s %-14s %-14s", "flag", "T^g", "T^d")
	}
	b.WriteString("\n")
	for _, ts := range res.Trace {
		fmt.Fprintf(&b, "%-12s", ts.Label())
		for _, id := range f.Nodes {
			st := ts.States[id]
			flag := "F"
			if st.Flag {
				flag = "T"
			}
			fmt.Fprintf(&b, "| %-4s %-14s %-14s", flag, setOrPhi(st.Grant), setOrPhi(st.Depart))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func setOrPhi(s interval.Set) string {
	if s.IsEmpty() {
		return "φ"
	}
	return s.String()
}
