package rules

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

var (
	indexSubjects  = []profile.SubjectID{"ann", "bob", "cat", "dan", "eve"}
	indexLocations = []graph.ID{graph.CAIS, graph.CHIPES, graph.SCEGO, graph.SCESectionA, graph.Lab1}
	indexGroups    = []string{"g0", "g1"}
)

// randRule draws a rule over base from a small operator menu that covers
// empty outputs, single and multiple subjects, several locations and
// entry/exit pairings that Validate rejects.
func randRule(rng *rand.Rand, name string, base authz.ID) Rule {
	subjects := []SubjectOp{SameSubject{}, SupervisorOf{}, DirectReportsOf{}, MembersOf{indexGroups[rng.IntN(2)]}}
	locations := []LocationOp{SameLocation{}, FixedLocation{graph.CAIS}, NeighborsOf{IncludeSelf: true}}
	temporal := []interval.TemporalOp{interval.Whenever{}, interval.WheneverNot{}, interval.IntersectionOp{With: interval.New(10, 30)}}
	return Rule{
		Name: name, ValidFrom: interval.Time(1 + rng.IntN(5)), Base: base,
		Ops: Ops{
			Entry:    temporal[rng.IntN(len(temporal))],
			Exit:     temporal[rng.IntN(len(temporal))],
			Subject:  subjects[rng.IntN(len(subjects))],
			Location: locations[rng.IntN(len(locations))],
		},
	}
}

func randProfile(rng *rand.Rand) profile.Subject {
	s := profile.Subject{ID: indexSubjects[rng.IntN(len(indexSubjects))]}
	if rng.IntN(3) > 0 {
		s.Supervisor = indexSubjects[rng.IntN(len(indexSubjects))]
	}
	for _, g := range indexGroups {
		if rng.IntN(2) == 0 {
			s.Groups = append(s.Groups, g)
		}
	}
	return s
}

// scanDerived is the full-scan reference for Store.Derived.
func scanDerived(all []authz.Authorization, rule string) []authz.Authorization {
	var out []authz.Authorization
	for _, a := range all {
		if a.DerivedBy == rule {
			out = append(out, a)
		}
	}
	return out
}

// pick returns a random element of xs, or the zero value when xs is empty.
func pick[T any](rng *rand.Rand, xs []T) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	return xs[rng.IntN(len(xs))]
}

// TestRuleIndexMatchesFullScan drives an engine with random rule,
// profile and store operations and checks after every step that the
// store's rule index answers Derived(name) exactly as a full scan of
// All() filtered by DerivedBy does, for every rule name ever used, and
// that RevokeBase removes exactly the base plus the derived
// authorizations whose BaseID is the base.
func TestRuleIndexMatchesFullScan(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 100
	}
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 29))
		store := authz.NewStoreWithShards(4)
		profiles := profile.NewDB()
		eng := NewEngine(store, profiles, graph.NTUCampus(), seed%2 == 0)
		var names []string
		for i := 0; i < steps; i++ {
			all := store.All()
			var derived []authz.ID
			for _, a := range all {
				if a.IsDerived() {
					derived = append(derived, a.ID)
				}
			}
			var what string
			switch op := rng.IntN(20); {
			case op < 3:
				loc := pick(rng, indexLocations)
				lo := interval.Time(1 + rng.IntN(40))
				a, err := store.Add(authz.New(interval.New(lo, lo+10), interval.New(lo+interval.Time(rng.IntN(3)*5), lo+20), pick(rng, indexSubjects), loc, 0))
				if err != nil {
					t.Fatal(err)
				}
				what = fmt.Sprintf("Add base %d", a.ID)
			case op < 6:
				name := fmt.Sprintf("r%d", rng.IntN(8))
				base := pick(rng, all).ID
				if rng.IntN(4) == 0 {
					base = authz.ID(1 + rng.IntN(int(store.NextID())))
				}
				_, err := eng.AddRule(randRule(rng, name, base))
				what = fmt.Sprintf("AddRule %s over %d (err %v)", name, base, err)
				if !slices.Contains(names, name) {
					names = append(names, name)
				}
			case op < 8:
				name := fmt.Sprintf("r%d", rng.IntN(8))
				what = fmt.Sprintf("RemoveRule %s (err %v)", name, eng.RemoveRule(name))
			case op < 10:
				name := fmt.Sprintf("r%d", rng.IntN(8))
				_, err := eng.Derive(name)
				what = fmt.Sprintf("Derive %s (err %v)", name, err)
			case op < 11:
				_, err := eng.DeriveAll()
				what = fmt.Sprintf("DeriveAll (err %v)", err)
			case op < 13:
				id := pick(rng, all).ID
				if rng.IntN(4) == 0 {
					id = authz.ID(rng.IntN(int(store.NextID()) + 1))
				}
				want := map[authz.ID]bool{}
				for _, a := range all {
					if a.ID == id || (a.BaseID == id && a.IsDerived()) {
						want[a.ID] = true
					}
				}
				n, err := eng.RevokeBase(id)
				if _, ok := want[id]; ok != (err == nil) {
					t.Fatalf("seed %d step %d: RevokeBase(%d) = %v, store had it: %v", seed, i, id, err, ok)
				}
				if err == nil && n != len(want) {
					t.Fatalf("seed %d step %d: RevokeBase(%d) removed %d, the BaseID sweep selects %d", seed, i, id, n, len(want))
				}
				var keep []authz.Authorization
				for _, a := range all {
					if !want[a.ID] || err != nil {
						keep = append(keep, a)
					}
				}
				if got := store.All(); !slices.Equal(got, keep) {
					t.Fatalf("seed %d step %d: RevokeBase(%d) left\n %v\nwant\n %v", seed, i, id, got, keep)
				}
				what = fmt.Sprintf("RevokeBase %d (removed %d, err %v)", id, n, err)
			case op < 16:
				p := randProfile(rng)
				if err := profiles.Put(p); err != nil {
					t.Fatal(err)
				}
				what = fmt.Sprintf("Put %+v", p)
			case op < 18:
				if len(derived) == 0 {
					continue
				}
				id := pick(rng, derived)
				if err := store.Revoke(id); err != nil {
					t.Fatal(err)
				}
				what = fmt.Sprintf("Revoke derived %d", id)
			default:
				rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
				if err := store.Restore(all, store.NextID()); err != nil {
					t.Fatal(err)
				}
				what = fmt.Sprintf("Restore %d", len(all))
			}
			after := store.All()
			for _, name := range names {
				got, want := store.Derived(name), scanDerived(after, name)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d (%s): Derived(%s) =\n %v\nfull scan =\n %v", seed, i, what, name, got, want)
				}
			}
		}
	}
}

// TestEngineConcurrentEdits runs profile edits (re-derived by the
// AutoDerive watcher), rule edits and lock-free store reads at once, the
// way the system and the profile watcher share an engine, and then checks
// the rule index against a full scan. Under -race it also checks that
// the engine's state is only touched under its mutex.
func TestEngineConcurrentEdits(t *testing.T) {
	store := authz.NewStoreWithShards(4)
	profiles := profile.NewDB()
	eng := NewEngine(store, profiles, graph.NTUCampus(), true)
	base, err := store.Add(authz.New(interval.New(5, 20), interval.New(15, 50), "ann", graph.CAIS, 0))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"r0", "r1", "r2"}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(1, 1))
		for i := 0; i < 100; i++ {
			if err := profiles.Put(randProfile(rng)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(2, 2))
		for i := 0; i < 100; i++ {
			name := pick(rng, names)
			switch rng.IntN(3) {
			case 0:
				_, _ = eng.AddRule(randRule(rng, name, base.ID))
			case 1:
				_ = eng.RemoveRule(name)
			default:
				_, _ = eng.Derive(name)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for _, name := range names {
				for _, a := range store.Derived(name) {
					if a.DerivedBy != name {
						t.Errorf("Derived(%s) returned %v", name, a)
						return
					}
				}
			}
		}
	}()
	wg.Wait()
	all := store.All()
	for _, name := range names {
		if got, want := store.Derived(name), scanDerived(all, name); !slices.Equal(got, want) {
			t.Errorf("Derived(%s) = %v, full scan = %v", name, got, want)
		}
	}
}
