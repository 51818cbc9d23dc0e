package authz

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

// shardFixture fills a 4-shard store with na authorizations per (subject,
// location) over nSubs subjects and nLocs locations, so every fan-out
// path has work spread across stripes.
func shardFixture(t *testing.T, nSubs, nLocs, na int) (*Store, []profile.SubjectID, []graph.ID) {
	t.Helper()
	st := NewStoreWithShards(4)
	var subs []profile.SubjectID
	var locs []graph.ID
	for i := 0; i < nSubs; i++ {
		subs = append(subs, profile.SubjectID(fmt.Sprintf("u%02d", i)))
	}
	for i := 0; i < nLocs; i++ {
		locs = append(locs, graph.ID(fmt.Sprintf("l%02d", i)))
	}
	for _, s := range subs {
		for _, l := range locs {
			for k := 0; k < na; k++ {
				lo := interval.Time(1 + k*10)
				if _, err := st.Add(New(interval.New(lo, lo+5), interval.New(lo, lo+9), s, l, 1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return st, subs, locs
}

// TestShardedFanOut: the cross-shard reads (ByLocation, All, Subjects,
// Len, Get) agree with the per-shard reads (For, BySubject) and keep
// global ID order.
func TestShardedFanOut(t *testing.T) {
	st, subs, locs := shardFixture(t, 8, 6, 2)
	if st.ShardCount() != 4 {
		t.Fatalf("shards = %d, want 4", st.ShardCount())
	}
	wantTotal := len(subs) * len(locs) * 2
	if st.Len() != wantTotal {
		t.Fatalf("len = %d, want %d", st.Len(), wantTotal)
	}

	all := st.All()
	if len(all) != wantTotal {
		t.Fatalf("All = %d records", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("All not sorted at %d: %d >= %d", i, all[i-1].ID, all[i].ID)
		}
	}

	for _, l := range locs {
		byLoc := st.ByLocation(l)
		if len(byLoc) != len(subs)*2 {
			t.Fatalf("ByLocation(%s) = %d, want %d", l, len(byLoc), len(subs)*2)
		}
		for i := 1; i < len(byLoc); i++ {
			if byLoc[i-1].ID >= byLoc[i].ID {
				t.Fatalf("ByLocation(%s) not sorted", l)
			}
		}
	}

	for _, s := range subs {
		if got := st.BySubject(s); len(got) != len(locs)*2 {
			t.Fatalf("BySubject(%s) = %d", s, len(got))
		}
		for _, l := range locs {
			got := st.For(s, l)
			if len(got) != 2 || got[0].ID >= got[1].ID {
				t.Fatalf("For(%s, %s) = %v", s, l, got)
			}
		}
	}

	if got := st.Subjects(); fmt.Sprint(got) != fmt.Sprint(subs) {
		t.Fatalf("Subjects = %v", got)
	}
	for _, a := range all {
		got, err := st.Get(a.ID)
		if err != nil || got.ID != a.ID {
			t.Fatalf("Get(%d) = %v, %v", a.ID, got, err)
		}
	}
}

// TestViewStableUnderMutation: a captured View keeps answering from its
// snapshot while the live store moves on — the property the core read
// path's consistency rests on.
func TestViewStableUnderMutation(t *testing.T) {
	st, subs, locs := shardFixture(t, 4, 3, 1)
	v := st.View()
	wantLen := v.Len()
	wantFor := fmt.Sprint(v.For(subs[0], locs[0]))
	wantVer := v.Version()

	// Mutate the live store: add for an existing subject and revoke one.
	added, err := st.Add(New(interval.New(1, 5), interval.New(1, 9), subs[0], locs[0], 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Revoke(1); err != nil {
		t.Fatal(err)
	}

	if v.Len() != wantLen {
		t.Errorf("view len moved: %d -> %d", wantLen, v.Len())
	}
	if got := fmt.Sprint(v.For(subs[0], locs[0])); got != wantFor {
		t.Errorf("view For moved: %s -> %s", wantFor, got)
	}
	if _, err := v.Get(added.ID); err == nil {
		t.Error("view sees an authorization added after capture")
	}
	if _, err := v.Get(1); err != nil {
		t.Error("view lost an authorization revoked after capture")
	}
	if v.Version() != wantVer {
		t.Errorf("view version moved")
	}

	// A fresh capture sees the new state.
	v2 := st.View()
	if _, err := v2.Get(added.ID); err != nil {
		t.Error("fresh view misses the added authorization")
	}
	if _, err := v2.Get(1); err == nil {
		t.Error("fresh view still has the revoked authorization")
	}
	if v2.Version() <= wantVer {
		t.Errorf("fresh view version %d <= captured %d", v2.Version(), wantVer)
	}
}

// TestShardStats: totals match Len, per-shard sizes sum up, and the
// aggregate version moves with every mutation.
func TestShardStats(t *testing.T) {
	st, _, _ := shardFixture(t, 6, 2, 1)
	stats := st.Stats()
	if stats.Shards != 4 || len(stats.PerShard) != 4 {
		t.Fatalf("stats shards = %+v", stats)
	}
	sum := 0
	for _, sh := range stats.PerShard {
		sum += sh.Auths
	}
	if sum != stats.Auths || sum != st.Len() {
		t.Errorf("per-shard sum %d, total %d, len %d", sum, stats.Auths, st.Len())
	}
	before := st.Version()
	if _, err := st.Add(New(interval.New(1, 2), interval.New(1, 5), "extra", "l00", 1)); err != nil {
		t.Fatal(err)
	}
	if st.Version() != before+1 {
		t.Errorf("version %d after add, want %d", st.Version(), before+1)
	}
}

// TestAddAllSortedUnderRacingAdds: AddAll assigns its batch's IDs before
// locking shards, so a racing single Add can publish a higher ID first;
// the insert path must still leave every index list sorted by ID (the
// invariant For/BySubject rely on instead of sorting per read).
func TestAddAllSortedUnderRacingAdds(t *testing.T) {
	st := NewStoreWithShards(2)
	const subs = 4
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := profile.SubjectID(fmt.Sprintf("u%02d", i%subs))
				if w == 0 {
					batch := []Authorization{
						New(interval.New(1, 5), interval.New(1, 9), s, "a", 1),
						New(interval.New(1, 5), interval.New(1, 9), s, "b", 1),
					}
					if _, err := st.AddAll(batch); err != nil {
						t.Error(err)
						return
					}
				} else if _, err := st.Add(New(interval.New(1, 5), interval.New(1, 9), s, "a", 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	seen := map[ID]bool{}
	for i := 0; i < subs; i++ {
		s := profile.SubjectID(fmt.Sprintf("u%02d", i))
		for _, got := range [][]Authorization{st.BySubject(s), st.For(s, "a"), st.For(s, "b")} {
			for j := 1; j < len(got); j++ {
				if got[j-1].ID >= got[j].ID {
					t.Fatalf("%s: list not sorted: %d >= %d", s, got[j-1].ID, got[j].ID)
				}
			}
		}
	}
	for _, a := range st.All() {
		if seen[a.ID] {
			t.Fatalf("duplicate ID %d", a.ID)
		}
		seen[a.ID] = true
	}
}

// TestConcurrentLockFreeReads hammers every read path while writers churn
// adds and revokes — under -race this proves the copy-on-write publish
// discipline: readers never lock and never see a torn shard.
func TestConcurrentLockFreeReads(t *testing.T) {
	st, subs, locs := shardFixture(t, 8, 4, 1)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				a, err := st.Add(New(interval.New(1, 5), interval.New(1, 9),
					subs[(i+w)%len(subs)], locs[i%len(locs)], 1))
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := st.Revoke(a.ID); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				s, l := subs[i%len(subs)], locs[(i+r)%len(locs)]
				for _, a := range st.For(s, l) {
					if a.Subject != s || a.Location != l {
						t.Errorf("For(%s, %s) returned %v", s, l, a)
						return
					}
				}
				_ = st.BySubject(s)
				_ = st.ByLocation(l)
				_, _ = st.Get(ID(1 + i%64))
				if i%20 == 0 {
					_ = st.All()
					_ = st.Subjects()
					_ = st.FindConflicts()
					_ = st.View().Len()
				}
			}
		}(r)
	}
	close(stop)
	_ = stop
	wg.Wait()

	// Quiesced: indexes agree with a full snapshot-restore round trip.
	auths, next := st.Snapshot()
	fresh := NewStoreWithShards(4)
	if err := fresh.Restore(auths, next); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != st.Len() {
		t.Errorf("restore len %d != %d", fresh.Len(), st.Len())
	}
	for _, s := range subs {
		for _, l := range locs {
			if fmt.Sprint(fresh.For(s, l)) != fmt.Sprint(st.For(s, l)) {
				t.Errorf("restore disagrees on For(%s, %s)", s, l)
			}
		}
	}
}

// TestRevokeIfUnderRacingWriters: RevokeIf evaluates its predicate on
// published state without a lock and retries a shard another writer
// published over first, so with Add/Revoke churning the same shards it
// still removes exactly the matching authorizations, once each.
func TestRevokeIfUnderRacingWriters(t *testing.T) {
	st, subs, locs := shardFixture(t, 8, 4, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			a, err := st.Add(New(interval.New(1, 5), interval.New(1, 9), subs[i%len(subs)], locs[i%len(locs)], 1))
			if err != nil {
				t.Error(err)
				return
			}
			if err := st.Revoke(a.ID); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	sweep := func(a Authorization) bool { return a.DerivedBy == "sweep" }
	for i := 0; i < 100; i++ {
		batch := make([]Authorization, len(subs))
		for j, s := range subs {
			batch[j] = New(interval.New(1, 5), interval.New(1, 9), s, locs[(i+j)%len(locs)], 1)
			batch[j].DerivedBy, batch[j].BaseID = "sweep", 1
		}
		if _, err := st.AddAll(batch); err != nil {
			t.Fatal(err)
		}
		if n := st.RevokeIf(sweep); n != len(batch) {
			t.Fatalf("round %d: RevokeIf removed %d, want %d", i, n, len(batch))
		}
	}
	wg.Wait()
	if n := st.Len(); n != len(subs)*len(locs) {
		t.Errorf("len = %d, want the fixture's %d", n, len(subs)*len(locs))
	}
}
