package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/rules"
)

// TestMemoMatchesFreshDifferential is the guard rail of the
// subject-scoped Algorithm-1 memo: after random interleavings of grants,
// revokes, rule edits, profile edits and store restores across many
// subjects, every memoized answer — fresh, subsumed and bounded-window,
// first lookup and repeat — equals a fresh FindInaccessible on the same
// state.
func TestMemoMatchesFreshDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { memoDifferential(t, seed) })
	}
}

func memoDifferential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g, rooms, _, _ := gridSite(t, 3)
	sys, err := Open(Config{Graph: g, AutoDerive: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	subjects := make([]profile.SubjectID, 10)
	for i := range subjects {
		subjects[i] = profile.SubjectID(fmt.Sprintf("s%d", i))
	}
	pick := func() profile.SubjectID { return subjects[rng.Intn(len(subjects))] }
	window := func() (interval.Interval, interval.Interval) {
		es := interval.Time(1 + rng.Intn(30))
		ee := es + interval.Time(rng.Intn(20))
		xs := es + interval.Time(rng.Intn(10))
		xe := max(ee, xs) + interval.Time(rng.Intn(20))
		return interval.New(es, ee), interval.New(xs, xe)
	}
	var bases []authz.ID
	var ruleNames []string
	type saved struct {
		auths []authz.Authorization
		next  authz.ID
	}
	var snaps []saved
	ignore := func(err error) {
		if err != nil && !errors.Is(err, authz.ErrNotFound) && !errors.Is(err, profile.ErrNotFound) {
			t.Logf("op error (tolerated): %v", err)
		}
	}

	ops := []func(){
		func() { // grant
			entry, exit := window()
			a, err := sys.AddAuthorization(authz.New(entry, exit, pick(), rooms[rng.Intn(len(rooms))], authz.Unlimited))
			if err != nil {
				t.Fatal(err)
			}
			bases = append(bases, a.ID)
		},
		func() { // revoke
			if len(bases) > 0 {
				_, err := sys.RevokeAuthorization(bases[rng.Intn(len(bases))])
				ignore(err)
			}
		},
		func() { // rule add
			if len(bases) == 0 {
				return
			}
			name := fmt.Sprintf("r%d", len(ruleNames))
			_, err := sys.AddRule(rules.Spec{
				Name: name, ValidFrom: 1, Base: bases[rng.Intn(len(bases))],
				Subject:  []string{"SAME", "Supervisor_Of", "Direct_Reports_Of"}[rng.Intn(3)],
				Location: []string{"SAME", "neighbors_of"}[rng.Intn(2)],
			})
			if err == nil {
				ruleNames = append(ruleNames, name)
			}
		},
		func() { // rule remove
			if len(ruleNames) > 0 {
				ignore(sys.RemoveRule(ruleNames[rng.Intn(len(ruleNames))]))
			}
		},
		func() { // profile edit, with or without a rule effect
			sub := profile.Subject{ID: pick(), Name: fmt.Sprint(rng.Intn(3))}
			if rng.Intn(2) == 0 {
				sub.Supervisor = pick()
			}
			ignore(sys.PutSubject(sub))
		},
		func() { // save, or restore an earlier saved store state
			if len(snaps) == 0 || rng.Intn(2) == 0 {
				auths, next := sys.AuthStore().Snapshot()
				snaps = append(snaps, saved{auths, next})
				return
			}
			s := snaps[rng.Intn(len(snaps))]
			if err := sys.AuthStore().Restore(s.auths, s.next); err != nil {
				t.Fatal(err)
			}
		},
	}

	check := func(step int, sub profile.SubjectID, opts query.Options) {
		t.Helper()
		want := fmt.Sprint(query.FindInaccessible(sys.Flat(), sys.AuthStore(), sub, opts).Inaccessible)
		for rep := 0; rep < 2; rep++ {
			var got []graph.ID
			if opts.Window == (interval.Interval{}) {
				got = sys.Inaccessible(sub)
			} else {
				got = sys.InaccessibleDuring(sub, opts.Window)
			}
			if fmt.Sprint(got) != want {
				t.Fatalf("step %d %s window %v rep %d: memo %v, fresh %s", step, sub, opts.Window, rep, got, want)
			}
		}
	}
	wide := interval.New(0, 1<<35)
	for step := 0; step < 300; step++ {
		ops[rng.Intn(len(ops))]()
		for k := 0; k < 4; k++ {
			sub := pick()
			check(step, sub, query.Options{})
			check(step, sub, query.Options{Window: wide})
			lo := interval.Time(rng.Intn(40))
			check(step, sub, query.Options{Window: interval.New(lo, lo+interval.Time(rng.Intn(40)))})
			inacc, acc := sys.Partition(sub)
			fresh := query.FindInaccessible(sys.Flat(), sys.AuthStore(), sub, query.Options{})
			if fmt.Sprint(inacc, acc) != fmt.Sprint(fresh.Inaccessible, fresh.Accessible) {
				t.Fatalf("step %d %s: partition %v %v, fresh %v %v", step, sub, inacc, acc, fresh.Inaccessible, fresh.Accessible)
			}
		}
	}
	if st := sys.QueryCacheStats(); st.Hits == 0 || st.Misses == 0 || st.Subsumed == 0 || st.Flushes != 0 {
		t.Errorf("the run must exercise hits, misses and subsumption without flushes: %+v", st)
	}
}

// memoHit reports whether one default-window query for sub was served
// from the memo, checking its answer against a fresh run.
func memoHit(t *testing.T, sys *System, sub profile.SubjectID) bool {
	t.Helper()
	before := sys.QueryCacheStats()
	got := sys.Inaccessible(sub)
	if want := freshInaccessible(sys, sub); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: memo %v, fresh %v", sub, got, want)
	}
	return sys.QueryCacheStats().Hits > before.Hits
}

// apartSubjects returns n subjects that pairwise share no
// authorization-store bucket: subjects in one bucket share its memo
// stamp by design, which would blur a test of scoping. It probes with a
// grant and a revoke per candidate pair, leaving the store as it was.
func apartSubjects(t *testing.T, sys *System, n int) []profile.SubjectID {
	t.Helper()
	room := sys.Flat().Nodes[0]
	moves := func(x, y profile.SubjectID) bool {
		before := sys.AuthStore().View()
		a, err := sys.AddAuthorization(authz.New(interval.From(1), interval.From(1), x, room, authz.Unlimited))
		if err != nil {
			t.Fatal(err)
		}
		moved := !before.SubjectStamp(y).Same(sys.AuthStore().View().SubjectStamp(y))
		if _, err := sys.RevokeAuthorization(a.ID); err != nil {
			t.Fatal(err)
		}
		return moved
	}
	var out []profile.SubjectID
	for i := 0; len(out) < n; i++ {
		cand := profile.SubjectID(fmt.Sprintf("p%d", i))
		apart := true
		for _, o := range out {
			apart = apart && !moves(cand, o)
		}
		if apart {
			out = append(out, cand)
		}
	}
	return out
}

// TestMemoGrantKeepsOtherSubjectsHits: a grant to one subject leaves
// another subject's memoized answer a hit, and makes only the grantee's
// next query a miss; no grant flushes the table.
func TestMemoGrantKeepsOtherSubjectsHits(t *testing.T) {
	g, rooms, _, _ := gridSite(t, 3)
	sys, err := Open(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	subs := apartSubjects(t, sys, 2)
	a, b := subs[0], subs[1]
	fullGrant(t, sys, a, rooms[:3])
	fullGrant(t, sys, b, rooms[:2])
	for _, s := range subs {
		if memoHit(t, sys, s) || !memoHit(t, sys, s) {
			t.Fatalf("%s: priming must miss once, then hit", s)
		}
	}
	fullGrant(t, sys, a, rooms[3:5])
	if !memoHit(t, sys, b) {
		t.Errorf("a grant to %s turned %s's memoized answer into a miss", a, b)
	}
	if memoHit(t, sys, a) {
		t.Errorf("%s's query after its own grant hit a stale entry", a)
	}
	if st := sys.QueryCacheStats(); st.Flushes != 0 {
		t.Errorf("grants flushed the memo: %+v", st)
	}
}

// TestMemoProfileEdits: Algorithm 1 reads only authorizations, so a
// profile edit reaches the memo only through the rule-derived grants it
// moves. An edit with no rule effect on a subject leaves that subject's
// entry a hit; an edit that changes a rule's output moves the bucket of
// each subject that gains or loses a derived grant, and their next
// answers are the new ones. Under AutoDerive every profile edit
// re-derives every rule, but a rule whose output did not change leaves
// the store alone, so its grantees keep their derived IDs and hits.
func TestMemoProfileEdits(t *testing.T) {
	g, rooms, _, _ := gridSite(t, 3)
	sys, err := Open(Config{Graph: g, AutoDerive: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	subs := apartSubjects(t, sys, 4)
	alice, bob, carol, dave := subs[0], subs[1], subs[2], subs[3]
	for _, p := range []profile.Subject{{ID: bob}, {ID: alice, Supervisor: bob}, {ID: carol}, {ID: dave}} {
		if err := sys.PutSubject(p); err != nil {
			t.Fatal(err)
		}
	}
	base, err := sys.AddAuthorization(authz.New(interval.New(1, 1<<40), interval.New(1, 1<<41), alice, rooms[0], authz.Unlimited))
	if err != nil {
		t.Fatal(err)
	}
	fullGrant(t, sys, alice, rooms[1:])
	if _, err := sys.AddRule(rules.Spec{Name: "sup", ValidFrom: 1, Base: base.ID, Subject: "Supervisor_Of"}); err != nil {
		t.Fatal(err)
	}
	fullGrant(t, sys, carol, rooms[:3])
	for _, s := range subs {
		if memoHit(t, sys, s) || !memoHit(t, sys, s) {
			t.Fatalf("%s: priming must miss once, then hit", s)
		}
	}
	if len(sys.Accessible(bob)) != 1 || len(sys.Accessible(dave)) != 0 {
		t.Fatalf("fixture: bob reaches %v, dave %v; want the derived entry room, nothing", sys.Accessible(bob), sys.Accessible(dave))
	}

	// No rule effect: carol's name changes.
	derived := sys.AuthorizationsFor(bob, rooms[0])
	if len(derived) != 1 || !derived[0].IsDerived() {
		t.Fatalf("fixture: bob holds %v at the entry room; want one derived grant", derived)
	}
	if err := sys.PutSubject(profile.Subject{ID: carol, Name: "Carol"}); err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if !memoHit(t, sys, s) {
			t.Errorf("an edit of %s's name turned %s's memoized answer into a miss", carol, s)
		}
	}
	if got := sys.AuthorizationsFor(bob, rooms[0]); len(got) != 1 || got[0].ID != derived[0].ID {
		t.Errorf("an edit of %s's name moved bob's derived grant: %v, want ID %d", carol, got, derived[0].ID)
	}

	// A rule effect: alice's supervisor moves from bob to dave.
	if err := sys.PutSubject(profile.Subject{ID: alice, Supervisor: dave}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []profile.SubjectID{bob, dave} {
		if memoHit(t, sys, s) {
			t.Errorf("%s's derived grant moved but its query hit the old entry", s)
		}
	}
	if len(sys.Accessible(bob)) != 0 || len(sys.Accessible(dave)) != 1 {
		t.Errorf("after the edit bob reaches %v, dave %v; want nothing, the derived entry room", sys.Accessible(bob), sys.Accessible(dave))
	}
	for _, s := range []profile.SubjectID{alice, carol} {
		if !memoHit(t, sys, s) {
			t.Errorf("the supervisor edit turned %s's memoized answer into a miss", s)
		}
	}
}
