package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/authz"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/query"
)

// stressGrid builds a small grid System with a handful of subjects, each
// holding authorizations over part of the grid so that Algorithm 1 has
// real work to do and real answers to change.
func stressGrid(t *testing.T, side, subjects int) (*System, []profile.SubjectID, []graph.ID) {
	t.Helper()
	g := graph.New("grid")
	id := func(r, c int) graph.ID { return graph.ID(fmt.Sprintf("r%02d_%02d", r, c)) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if err := g.AddLocation(id(r, c)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if r+1 < side {
				_ = g.AddEdge(id(r, c), id(r+1, c))
			}
			if c+1 < side {
				_ = g.AddEdge(id(r, c), id(r, c+1))
			}
		}
	}
	_ = g.SetEntry(id(0, 0))

	sys, err := Open(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	rooms := sys.Flat().Nodes
	var subs []profile.SubjectID
	for u := 0; u < subjects; u++ {
		sub := profile.SubjectID(fmt.Sprintf("u%02d", u))
		subs = append(subs, sub)
		if err := sys.PutSubject(profile.Subject{ID: sub}); err != nil {
			t.Fatal(err)
		}
		// Every subject can reach the first half of the grid.
		for _, room := range rooms[:len(rooms)/2] {
			if _, err := sys.AddAuthorization(authz.New(
				interval.New(1, 1<<30), interval.New(1, 1<<31), sub, room, authz.Unlimited)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sys, subs, rooms
}

// freshInaccessible recomputes Algorithm 1 from scratch, bypassing the
// System's epoch cache — the ground truth cached answers must match.
func freshInaccessible(sys *System, sub profile.SubjectID) []graph.ID {
	return query.FindInaccessible(sys.Flat(), sys.AuthStore(), sub, query.Options{}).Inaccessible
}

// TestConcurrentReadersAndWriters hammers the read path (Inaccessible,
// Accessible, Request, EarliestAccess, WhoCanAccess, Conflicts) while
// writers mutate authorizations, profiles, and movements. Run under
// -race this exercises the RWMutex split; afterwards every cached
// answer must equal a fresh recomputation.
func TestConcurrentReadersAndWriters(t *testing.T) {
	sys, subs, rooms := stressGrid(t, 6, 4)
	defer sys.Close()

	const iters = 150
	var wg sync.WaitGroup

	// Readers: one goroutine per subject, cycling through every query.
	for _, sub := range subs {
		wg.Add(1)
		go func(sub profile.SubjectID) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_ = sys.Inaccessible(sub)
				_ = sys.Accessible(sub)
				_, _ = sys.EarliestAccess(sub, rooms[len(rooms)-1])
				_ = sys.Request(interval.Time(2), sub, rooms[0])
				_ = sys.Query(interval.Time(2), sub, rooms[1])
				if i%10 == 0 {
					_ = sys.WhoCanAccess(rooms[2])
					_ = sys.Conflicts()
					_ = sys.Subjects()
				}
			}
		}(sub)
	}

	// Writer 1: churn authorizations on the second half of the grid.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			room := rooms[len(rooms)/2+i%(len(rooms)/2)]
			a, err := sys.AddAuthorization(authz.New(
				interval.New(1, 1<<30), interval.New(1, 1<<31), subs[i%len(subs)], room, authz.Unlimited))
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if _, err := sys.RevokeAuthorization(a.ID); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	// Writer 2: profile churn (bumps the profile epoch, re-derives).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			id := profile.SubjectID(fmt.Sprintf("guest%02d", i%8))
			if err := sys.PutSubject(profile.Subject{ID: id}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Writer 3: movements and clock ticks (do not touch the epoch).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := sys.Enter(interval.Time(2), subs[0], rooms[0]); err != nil {
				t.Error(err)
				return
			}
			if err := sys.Leave(interval.Time(2), subs[0]); err != nil {
				t.Error(err)
				return
			}
			if _, err := sys.Tick(interval.Time(2)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Wait()

	// Quiesced: every cached answer equals a from-scratch run.
	for _, sub := range subs {
		got := sys.Inaccessible(sub)
		want := freshInaccessible(sys, sub)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: cached %v != fresh %v", sub, got, want)
		}
	}
}

// TestSnapshotViewMatchesFreshAtEveryEpoch is the lock-free read path's
// core invariant, checked mid-flight rather than only at quiescence:
// whatever view a reader loads, the memoized Algorithm-1 answer served
// from that view equals a from-scratch fixpoint over the very same
// immutable snapshot — at every epoch, while AddAuthorization,
// RevokeAuthorization, and ObserveBatch churn underneath. Run with
// -race this also proves the view capture and the sync.Map memo are
// properly published.
func TestSnapshotViewMatchesFreshAtEveryEpoch(t *testing.T) {
	const side = 4
	g := graph.New("grid")
	id := func(r, c int) graph.ID { return graph.ID(fmt.Sprintf("r%03d_%03d", r, c)) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if err := g.AddLocation(id(r, c)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if r+1 < side {
				_ = g.AddEdge(id(r, c), id(r+1, c))
			}
			if c+1 < side {
				_ = g.AddEdge(id(r, c), id(r, c+1))
			}
		}
	}
	_ = g.SetEntry(id(0, 0))
	bounds, centers := geometry.UnitGrid(side, func(r, c int) string {
		return fmt.Sprintf("r%03d_%03d", r, c)
	})
	sys, err := Open(Config{Graph: g, Boundaries: bounds})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	rooms := sys.Flat().Nodes
	subs := []profile.SubjectID{"u00", "u01", "u02"}
	for _, sub := range subs {
		for _, room := range rooms[:len(rooms)/2] {
			if _, err := sys.AddAuthorization(authz.New(
				interval.New(1, 1<<30), interval.New(1, 1<<31), sub, room, authz.Unlimited)); err != nil {
				t.Fatal(err)
			}
		}
	}

	const iters = 200
	var wg sync.WaitGroup

	// Readers: at every loaded view, the cached answer must equal a fresh
	// fixpoint over the same snapshot — exact equality, no racing epoch.
	for _, sub := range subs {
		wg.Add(1)
		go func(sub profile.SubjectID) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				v := sys.currentView()
				got := v.result(sub, query.Options{}).Inaccessible
				fresh := query.FindInaccessible(v.flat, v.auths, sub, query.Options{}).Inaccessible
				if fmt.Sprint(got) != fmt.Sprint(fresh) {
					t.Errorf("%s epoch %d: view-cached %v != view-fresh %v", sub, v.epoch, got, fresh)
					return
				}
				// A second load at the same epoch must share the memo.
				if v2 := sys.currentView(); v2.epoch == v.epoch {
					if again := v2.result(sub, query.Options{}).Inaccessible; fmt.Sprint(again) != fmt.Sprint(got) {
						t.Errorf("%s epoch %d: re-read changed: %v != %v", sub, v.epoch, again, got)
						return
					}
				}
			}
		}(sub)
	}

	// Writer 1: authorization churn on the far half of the grid — every
	// op moves the epoch and publishes a new view.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			room := rooms[len(rooms)/2+i%(len(rooms)/2)]
			a, err := sys.AddAuthorization(authz.New(
				interval.New(1, 1<<30), interval.New(1, 1<<31), subs[i%len(subs)], room, authz.Unlimited))
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if _, err := sys.RevokeAuthorization(a.ID); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	// Writer 2: positioning batches bounce a dedicated subject between
	// two rooms — movement churn that must NOT move the epoch or flush
	// the memo, while exercising the batched write path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			readings := []Reading{
				{Time: 2, Subject: "walker", At: centers[i%2]},
				{Time: 2, Subject: "walker", At: centers[(i+1)%2]},
			}
			if _, err := sys.ObserveBatch(readings); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wg.Wait()

	// Quiesced: the published view agrees with the live store.
	for _, sub := range subs {
		got := sys.Inaccessible(sub)
		want := freshInaccessible(sys, sub)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: view %v != live %v", sub, got, want)
		}
	}
	if vs := sys.ViewStats(); vs.Publishes == 0 || vs.Epoch == 0 || vs.AuthShards < 1 {
		t.Errorf("view stats = %+v", vs)
	}
}

// TestCacheInvalidation proves the epoch cache returns exactly what a
// fresh computation returns across every mutation class that can change
// an Algorithm-1 answer: grant, revoke, rule derivation (via profile
// change with AutoDerive), and conflict resolution.
func TestCacheInvalidation(t *testing.T) {
	sys := openMem(t)
	defer sys.Close()

	assertFresh := func(step string, sub profile.SubjectID) {
		t.Helper()
		got := sys.Inaccessible(sub)
		want := freshInaccessible(sys, sub)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: cached %v != fresh %v", step, got, want)
		}
		// And again: the second read must hit the cache, same answer.
		if again := sys.Inaccessible(sub); fmt.Sprint(again) != fmt.Sprint(want) {
			t.Fatalf("%s (cached re-read): %v != %v", step, again, want)
		}
	}

	assertFresh("empty store", "Alice")

	// Grant a corridor: SCE.GO -> SectionA -> SectionB -> CAIS.
	var ids []authz.ID
	for _, l := range []graph.ID{graph.SCEGO, graph.SCESectionA, graph.SCESectionB, graph.CAIS} {
		a, err := sys.AddAuthorization(authz.New(iv("[1, 40]"), iv("[2, 60]"), "Alice", l, authz.Unlimited))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, a.ID)
	}
	assertFresh("after grants", "Alice")
	if n := len(sys.Accessible("Alice")); n != 4 {
		t.Fatalf("accessible = %d locations, want 4", n)
	}

	// Revoking the corridor's first hop must flip the answer back.
	if _, err := sys.RevokeAuthorization(ids[0]); err != nil {
		t.Fatal(err)
	}
	assertFresh("after revoke", "Alice")
	if n := len(sys.Accessible("Alice")); n != 0 {
		t.Fatalf("accessible after revoke = %d locations, want 0", n)
	}

	// A profile change with AutoDerive can add derived authorizations;
	// the cache must see them (profile epoch bump).
	if err := sys.PutSubject(profile.Subject{ID: "Alice", Supervisor: "Bob"}); err != nil {
		t.Fatal(err)
	}
	assertFresh("after profile change", "Bob")

	stats := sys.QueryCacheStats()
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Errorf("expected both hits and misses, got %+v", stats)
	}
}
