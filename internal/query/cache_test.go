package query

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

// TestCacheMatchesDirect: after every mutation, the cached result equals
// a direct FindInaccessible run on the same view — over random graphs,
// random windows, and mutations between views (reusing the
// equivalence-test fixtures).
func TestCacheMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		g := randomFlatGraph(rng, 3+rng.Intn(7), rng.Intn(4), 1+rng.Intn(2))
		f := graph.Expand(g)
		st := authz.NewStore()
		randomAuths(rng, st, f.Nodes)
		c := NewCache(0)

		for step := 0; step < 4; step++ {
			opts := Options{}
			if rng.Intn(2) == 0 {
				lo := interval.Time(rng.Intn(40))
				opts.Window = interval.New(lo, lo+interval.Time(rng.Intn(60)))
			}
			v := st.View()
			direct := FindInaccessible(f, v, "u", opts).Inaccessible
			for rep := 0; rep < 3; rep++ {
				cached := c.Result(f, v, "u", opts).Inaccessible
				if fmt.Sprint(cached) != fmt.Sprint(direct) {
					t.Fatalf("trial %d step %d rep %d: cached %v != direct %v",
						trial, step, rep, cached, direct)
				}
			}
			// Mutate for the next view.
			randomAuths(rng, st, f.Nodes[:1+rng.Intn(len(f.Nodes))])
		}
	}
}

// TestCacheStaleEpochNotStored: a result memoized on one view is never
// served to a view in which the subject's authorizations differ, in
// either direction — a lookup on a stale view after a fresh one, and a
// fresh lookup after the stale one replaced the entry.
func TestCacheStaleEpochNotStored(t *testing.T) {
	f := graph.Expand(randomFlatGraph(rand.New(rand.NewSource(5)), 5, 2, 1))
	st := authz.NewStore()
	old := st.View() // u holds nothing: every location is inaccessible
	randomAuths(rand.New(rand.NewSource(6)), st, f.Nodes)
	if _, err := st.Add(authz.New(interval.From(1), interval.From(1), "u", f.Nodes[f.Entries[0]], authz.Unlimited)); err != nil {
		t.Fatal(err)
	}
	cur := st.View()
	wantOld := fmt.Sprint(FindInaccessible(f, old, "u", Options{}).Inaccessible)
	wantCur := fmt.Sprint(FindInaccessible(f, cur, "u", Options{}).Inaccessible)
	if wantOld == wantCur {
		t.Fatal("fixture: the two views must disagree")
	}
	c := NewCache(0)
	for i, step := range []struct {
		v    *authz.View
		want string
	}{{cur, wantCur}, {old, wantOld}, {cur, wantCur}, {cur, wantCur}} {
		if got := fmt.Sprint(c.Result(f, step.v, "u", Options{}).Inaccessible); got != step.want {
			t.Fatalf("lookup %d: %s, want %s", i, got, step.want)
		}
	}
	if s := c.Stats(); s.Misses != 3 || s.Hits != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 3 misses, 1 hit, 1 entry", s)
	}
}

// TestCacheConcurrentEpochRace: concurrent lookups on a mix of views,
// taken before and after mutations, are race-free, and every returned
// result is the one for the view it was asked on, while the entries
// replace each other.
func TestCacheConcurrentEpochRace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := graph.Expand(randomFlatGraph(rng, 8, 3, 2))
	st := authz.NewStore()
	var views []*authz.View
	var want []string
	for i := 0; i < 5; i++ {
		randomAuths(rng, st, f.Nodes)
		v := st.View()
		views = append(views, v)
		want = append(want, fmt.Sprint(FindInaccessible(f, v, "u", Options{}).Inaccessible))
	}

	c := NewCache(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (i / 20) % len(views) // runs of one view, so some lookups hit
				got := c.Result(f, views[k], "u", Options{}).Inaccessible
				if fmt.Sprint(got) != want[k] {
					t.Errorf("worker %d view %d: %v != %s", w, k, got, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if stats := c.Stats(); stats.Hits == 0 {
		t.Errorf("expected cache hits under contention, got %+v", stats)
	}
}

// TestCacheWindowSubsumption: a bounded window whose §6 clamp is a no-op
// on every entry-location authorization is answered by the cached
// default-window entry — counted as a (subsumed) hit, not a miss — while
// a window that does clamp recomputes.
func TestCacheWindowSubsumption(t *testing.T) {
	// Corridor e -> m -> far; entry auths live in [10, 30] / exit [15, 40].
	g := graph.New("corridor")
	for _, id := range []graph.ID{"e", "m", "far"} {
		if err := g.AddLocation(id); err != nil {
			t.Fatal(err)
		}
	}
	_ = g.AddEdge("e", "m")
	_ = g.AddEdge("m", "far")
	_ = g.SetEntry("e")
	f := graph.Expand(g)
	st := authz.NewStore()
	for _, id := range []graph.ID{"e", "m", "far"} {
		if _, err := st.Add(authz.New(interval.New(10, 30), interval.New(15, 40), "u", id, authz.Unlimited)); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCache(0)
	v := st.View()

	def := c.Result(f, v, "u", Options{})
	if got := c.Stats(); got.Misses != 1 {
		t.Fatalf("priming stats = %+v", got)
	}

	// [1, 100] contains every entry auth's entry and exit duration: the
	// clamp is a no-op, so the default entry must answer it.
	sub := c.Result(f, v, "u", Options{Window: interval.New(1, 100)})
	if sub != def {
		t.Error("subsumable window did not share the default-window result")
	}
	st1 := c.Stats()
	if st1.Misses != 1 || st1.Subsumed != 1 || st1.Hits != 1 {
		t.Errorf("after subsumable window: %+v", st1)
	}
	// The subsumed answer is now stored under the bounded key: a repeat
	// is a plain hit.
	_ = c.Result(f, v, "u", Options{Window: interval.New(1, 100)})
	st2 := c.Stats()
	if st2.Hits != 2 || st2.Subsumed != 1 || st2.Misses != 1 {
		t.Errorf("after repeat: %+v", st2)
	}

	// [20, 100] clamps the entry duration ([10,30] -> [20,30]): must
	// recompute, and the answers must equal direct runs.
	bounded := c.Result(f, v, "u", Options{Window: interval.New(20, 100)})
	if c.Stats().Misses != 2 {
		t.Errorf("clamping window must miss: %+v", c.Stats())
	}
	direct := FindInaccessible(f, v, "u", Options{Window: interval.New(20, 100)})
	if fmt.Sprint(bounded.Inaccessible) != fmt.Sprint(direct.Inaccessible) {
		t.Errorf("bounded: cached %v != direct %v", bounded.Inaccessible, direct.Inaccessible)
	}
}

// TestCacheSubsumptionMatchesDirect is the property form: for random
// stores and random windows, the cache (with subsumption in play) always
// equals a direct computation.
func TestCacheSubsumptionMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 80; trial++ {
		g := randomFlatGraph(rng, 3+rng.Intn(6), rng.Intn(4), 1+rng.Intn(2))
		f := graph.Expand(g)
		st := authz.NewStore()
		randomAuths(rng, st, f.Nodes)
		v := st.View()
		c := NewCache(0)
		_ = c.Result(f, v, "u", Options{}) // prime the default entry
		for rep := 0; rep < 6; rep++ {
			lo := interval.Time(rng.Intn(60))
			opts := Options{Window: interval.New(lo, lo+interval.Time(rng.Intn(80)))}
			direct := FindInaccessible(f, v, "u", opts).Inaccessible
			cached := c.Result(f, v, "u", opts).Inaccessible
			if fmt.Sprint(cached) != fmt.Sprint(direct) {
				t.Fatalf("trial %d rep %d window %v: cached %v != direct %v",
					trial, rep, opts.Window, cached, direct)
			}
		}
	}
}

// TestCacheLimit: the table is bounded; a new key into a full table
// empties it first and counts one flush.
func TestCacheLimit(t *testing.T) {
	f := graph.Expand(randomFlatGraph(rand.New(rand.NewSource(9)), 4, 1, 1))
	v := authz.NewStore().View()
	c := NewCache(2)
	for i := 0; i < 10; i++ {
		sub := fmt.Sprintf("u%d", i)
		_ = c.Result(f, v, profile.SubjectID(sub), Options{})
	}
	if stats := c.Stats(); stats.Entries > 2 || stats.Flushes != 4 {
		t.Errorf("stats = %+v, want <= 2 entries after 4 flushes", stats)
	}
}

// TestGatherLends: the Algorithm-1 gather allocates only its per-node
// slice-header array, however many authorizations the subject holds:
// the slices are the view's own, not copies.
func TestGatherLends(t *testing.T) {
	f := graph.Expand(randomFlatGraph(rand.New(rand.NewSource(3)), 8, 3, 1))
	st := authz.NewStore()
	for _, l := range f.Nodes {
		for k := 0; k < 8; k++ {
			if _, err := st.Add(authz.New(interval.From(interval.Time(1+k)), interval.From(interval.Time(1+k)), "u", l, authz.Unlimited)); err != nil {
				t.Fatal(err)
			}
		}
	}
	v := st.View()
	var auths [][]authz.Authorization
	if n := testing.AllocsPerRun(100, func() { auths = gatherAuths(f, v, "u") }); n != 1 {
		t.Errorf("gather allocates %v times per call, want 1 (the header array)", n)
	}
	for i, l := range f.Nodes {
		if lent := v.For("u", l); len(auths[i]) != 8 || &auths[i][0] != &lent[0] {
			t.Fatalf("gather copied %s's authorizations instead of lending them", l)
		}
	}
}
