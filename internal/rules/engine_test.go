package rules

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

func iv(s string) interval.Interval { return interval.MustParse(s) }

// fixture builds the paper's §4 environment: the NTU campus, Alice with
// supervisor Bob, and the base authorization
// a1 = ([5, 20], [15, 50], (Alice, CAIS), 2).
func fixture(t *testing.T, autoDerive bool) (*Engine, *authz.Store, *profile.DB, authz.Authorization) {
	t.Helper()
	store := authz.NewStore()
	profiles := profile.NewDB()
	if err := profiles.Put(profile.Subject{ID: "Alice", Supervisor: "Bob"}); err != nil {
		t.Fatal(err)
	}
	if err := profiles.Put(profile.Subject{ID: "Bob"}); err != nil {
		t.Fatal(err)
	}
	a1, err := store.Add(authz.New(iv("[5, 20]"), iv("[15, 50]"), "Alice", graph.CAIS, 2))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(store, profiles, graph.NTUCampus(), autoDerive)
	return eng, store, profiles, a1
}

func TestExperimentRuleExamples(t *testing.T) {
	// E2: regenerate §4 Examples 1–3 exactly.
	eng, store, _, a1 := fixture(t, false)

	// Example 1 — r1: ⟨7: a1, (WHENEVER, WHENEVER, Supervisor_Of, CAIS, 2)⟩
	// derives a2 = ([5, 20], [15, 50], (Bob, CAIS), 2).
	rep, err := eng.AddRule(Rule{
		Name:      "r1",
		ValidFrom: 7,
		Base:      a1.ID,
		Ops: Ops{
			Entry:    interval.Whenever{},
			Exit:     interval.Whenever{},
			Subject:  SupervisorOf{},
			Location: FixedLocation{graph.CAIS},
			Entries:  ConstEntries{2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Derived) != 1 {
		t.Fatalf("r1 derived %d auths: %v", len(rep.Derived), rep)
	}
	a2 := rep.Derived[0]
	wantA2 := "([5, 20], [15, 50], (Bob, CAIS), 2)"
	if a2.String() != wantA2 {
		t.Errorf("a2 = %s, want %s", a2, wantA2)
	}
	if a2.DerivedBy != "r1" || a2.BaseID != a1.ID {
		t.Errorf("a2 provenance = %q base %d", a2.DerivedBy, a2.BaseID)
	}
	t.Logf("Example 1: rule r1 derived a2 = %s", a2)

	// Example 2 — r2: ⟨7: a1, (INTERSECTION([10, 30]), WHENEVER,
	// Supervisor_Of, CAIS, 2)⟩ derives a3 = ([10, 20], [15, 50], (Bob,
	// CAIS), 2).
	rep, err = eng.AddRule(Rule{
		Name:      "r2",
		ValidFrom: 7,
		Base:      a1.ID,
		Ops: Ops{
			Entry:    interval.IntersectionOp{With: iv("[10, 30]")},
			Exit:     interval.Whenever{},
			Subject:  SupervisorOf{},
			Location: FixedLocation{graph.CAIS},
			Entries:  ConstEntries{2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Derived) != 1 {
		t.Fatalf("r2 derived %d auths", len(rep.Derived))
	}
	a3 := rep.Derived[0]
	wantA3 := "([10, 20], [15, 50], (Bob, CAIS), 2)"
	if a3.String() != wantA3 {
		t.Errorf("a3 = %s, want %s", a3, wantA3)
	}
	t.Logf("Example 2: rule r2 derived a3 = %s", a3)

	// Example 3 — r3: ⟨7: a1, (WHENEVER, WHENEVER, _, all_route_from(
	// SCE.GO), 2)⟩ derives an authorization for Alice on every location
	// on routes from SCE.GO to CAIS: the paper's set {SCE.GO,
	// SCE.SectionA, SCE.SectionB, SCE.SectionC, CHIPES} plus the
	// destination CAIS.
	rep, err = eng.AddRule(Rule{
		Name:      "r3",
		ValidFrom: 7,
		Base:      a1.ID,
		Ops: Ops{
			Location: AllRouteFrom{Source: graph.SCEGO},
			Entries:  ConstEntries{2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[graph.ID]bool{
		graph.SCEGO: true, graph.SCESectionA: true, graph.SCESectionB: true,
		graph.SCESectionC: true, graph.CHIPES: true, graph.CAIS: true,
	}
	if len(rep.Derived) != len(want) {
		t.Fatalf("r3 derived %d auths, want %d: %v", len(rep.Derived), len(want), rep.Derived)
	}
	for _, a := range rep.Derived {
		if !want[a.Location] {
			t.Errorf("unexpected derived location %s", a.Location)
		}
		if a.Subject != "Alice" {
			t.Errorf("r3 must keep the base subject, got %s", a.Subject)
		}
		if !a.Entry.Equal(iv("[5, 20]")) || !a.Exit.Equal(iv("[15, 50]")) || a.MaxEntries != 2 {
			t.Errorf("r3 derived wrong windows: %s", a)
		}
		t.Logf("Example 3: derived %s", a)
	}
	// Store now holds a1 + a2 + a3 + 6 route auths.
	if store.Len() != 9 {
		t.Errorf("store len = %d, want 9", store.Len())
	}
}

func TestSupervisorReassignmentRevokesAndRederives(t *testing.T) {
	// Example 1's punchline: "if Alice is assigned a different
	// supervisor ... the system is able to automatically derive the
	// authorizations for the new supervisor while the authorization for
	// Bob will be revoked."
	eng, store, profiles, a1 := fixture(t, true)
	_, err := eng.AddRule(Rule{
		Name: "r1", ValidFrom: 7, Base: a1.ID,
		Ops: Ops{Subject: SupervisorOf{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := store.For("Bob", graph.CAIS); len(got) != 1 {
		t.Fatalf("Bob should hold a derived auth, got %v", got)
	}
	// Reassign Alice to Carol.
	if err := profiles.Put(profile.Subject{ID: "Carol"}); err != nil {
		t.Fatal(err)
	}
	if err := profiles.Put(profile.Subject{ID: "Alice", Supervisor: "Carol"}); err != nil {
		t.Fatal(err)
	}
	if got := store.For("Bob", graph.CAIS); len(got) != 0 {
		t.Errorf("Bob's derived auth should be revoked, got %v", got)
	}
	got := store.For("Carol", graph.CAIS)
	if len(got) != 1 || got[0].DerivedBy != "r1" {
		t.Errorf("Carol should hold the derived auth, got %v", got)
	}
	// The base authorization is untouched throughout.
	if _, err := store.Get(a1.ID); err != nil {
		t.Error("base auth must survive re-derivation")
	}
}

func TestWheneverNotDerivesMultipleAuths(t *testing.T) {
	// WHENEVERNOT splits the complement into [tr, t0-1] and [t1+1, ∞],
	// deriving one authorization per interval (when valid).
	eng, _, _, a1 := fixture(t, false)
	rep, err := eng.AddRule(Rule{
		Name: "guard-offhours", ValidFrom: 0, Base: a1.ID,
		Ops: Ops{
			Entry: interval.WheneverNot{},
			Exit: interval.TemporalFunc{Name: "ALL", Fn: func(interval.Interval, interval.Time) interval.Set {
				return interval.NewSet(interval.From(0))
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Entry complement of [5,20] from 0: [0,4] and [21,inf]. The exit
	// window [0,inf] starts before the second entry window, violating
	// tos >= tis, so that combination is skipped and reported; only the
	// [0,4] authorization is derived.
	if len(rep.Derived) != 1 {
		t.Fatalf("derived = %v", rep.Derived)
	}
	if !rep.Derived[0].Entry.Equal(iv("[0, 4]")) {
		t.Errorf("entry = %v", rep.Derived[0].Entry)
	}
	if len(rep.Skips) != 1 || !strings.Contains(rep.Skips[0].Reason, "tos >= tis") {
		t.Errorf("skips = %v", rep.Skips)
	}
}

func TestDerivationSkipsInvalidCombos(t *testing.T) {
	// An entry/exit pairing violating toe >= tie is skipped and reported,
	// not stored.
	eng, store, _, a1 := fixture(t, false)
	rep, err := eng.AddRule(Rule{
		Name: "bad-exit", ValidFrom: 0, Base: a1.ID,
		Ops: Ops{
			Exit: interval.TemporalFunc{Name: "EARLY", Fn: func(interval.Interval, interval.Time) interval.Set {
				return interval.NewSet(iv("[5, 10]")) // ends before entry [5,20] ends
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Derived) != 0 {
		t.Errorf("derived = %v, want none", rep.Derived)
	}
	if len(rep.Skips) != 1 || !strings.Contains(rep.Skips[0].Reason, "toe >= tie") {
		t.Errorf("skips = %v", rep.Skips)
	}
	if store.Len() != 1 {
		t.Errorf("store should hold only the base, len = %d", store.Len())
	}
}

func TestRuleValidation(t *testing.T) {
	eng, _, _, a1 := fixture(t, false)
	if _, err := eng.AddRule(Rule{Base: a1.ID}); err == nil {
		t.Error("unnamed rule should fail")
	}
	if _, err := eng.AddRule(Rule{Name: "x"}); err == nil {
		t.Error("rule without base should fail")
	}
	if _, err := eng.AddRule(Rule{Name: "x", Base: 999}); err == nil {
		t.Error("rule with unknown base should fail")
	}
	if _, err := eng.AddRule(Rule{Name: "ok", Base: a1.ID}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddRule(Rule{Name: "ok", Base: a1.ID}); err == nil {
		t.Error("duplicate rule name should fail")
	}
}

func TestRemoveRule(t *testing.T) {
	eng, store, _, a1 := fixture(t, false)
	_, _ = eng.AddRule(Rule{Name: "r1", ValidFrom: 7, Base: a1.ID, Ops: Ops{Subject: SupervisorOf{}}})
	if store.Len() != 2 {
		t.Fatalf("len = %d", store.Len())
	}
	if err := eng.RemoveRule("r1"); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Error("derived auths must be revoked on rule removal")
	}
	if err := eng.RemoveRule("r1"); err == nil {
		t.Error("double remove should fail")
	}
	if len(eng.Rules()) != 0 {
		t.Error("rule list should be empty")
	}
}

func TestDormantRuleAfterBaseRevocation(t *testing.T) {
	eng, store, _, a1 := fixture(t, false)
	_, _ = eng.AddRule(Rule{Name: "r1", ValidFrom: 7, Base: a1.ID, Ops: Ops{Subject: SupervisorOf{}}})
	removed, err := eng.RevokeBase(a1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Errorf("removed = %d, want base+derived = 2", removed)
	}
	if store.Len() != 0 {
		t.Errorf("store len = %d", store.Len())
	}
	// Re-deriving the dormant rule yields a skip, not an error.
	rep, err := eng.Derive("r1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Derived) != 0 || len(rep.Skips) != 1 {
		t.Errorf("dormant rule report = %+v", rep)
	}
	if _, err := eng.RevokeBase(999); err == nil {
		t.Error("revoking unknown base should fail")
	}
}

func TestDeriveAllAndUnknownRule(t *testing.T) {
	eng, _, _, a1 := fixture(t, false)
	_, _ = eng.AddRule(Rule{Name: "r1", ValidFrom: 7, Base: a1.ID, Ops: Ops{Subject: SupervisorOf{}}})
	_, _ = eng.AddRule(Rule{Name: "r2", ValidFrom: 7, Base: a1.ID, Ops: Ops{Entries: ConstEntries{5}}})
	reports, err := eng.DeriveAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].Rule != "r1" || reports[1].Rule != "r2" {
		t.Errorf("reports = %v", reports)
	}
	if _, err := eng.Derive("ghost"); err == nil {
		t.Error("unknown rule should fail")
	}
}

func TestDeriveIsIdempotent(t *testing.T) {
	eng, store, _, a1 := fixture(t, false)
	_, _ = eng.AddRule(Rule{Name: "r1", ValidFrom: 7, Base: a1.ID, Ops: Ops{Subject: SupervisorOf{}}})
	before := store.Len()
	for i := 0; i < 3; i++ {
		if _, err := eng.Derive("r1"); err != nil {
			t.Fatal(err)
		}
	}
	if store.Len() != before {
		t.Errorf("re-derivation must not accumulate: %d -> %d", before, store.Len())
	}
}

// TestRederiveUnchangedOutputKeepsStore: re-deriving a rule whose
// output did not change leaves the store as it is (same IDs, same
// version); a change that moves the output replaces it, and a rule
// whose stored output was edited behind its back is re-derived whole.
func TestRederiveUnchangedOutputKeepsStore(t *testing.T) {
	eng, store, profiles, a1 := fixture(t, true)
	rep, err := eng.AddRule(Rule{Name: "r1", ValidFrom: 7, Base: a1.ID, Ops: Ops{Subject: SupervisorOf{}}})
	if err != nil || len(rep.Derived) != 1 {
		t.Fatalf("add: %v, %v", rep, err)
	}
	derived := rep.Derived[0]
	version := store.Version()

	// An edit that does not touch the rule's output (AutoDerive runs).
	if err := profiles.Put(profile.Subject{ID: "Bob", Name: "Robert"}); err != nil {
		t.Fatal(err)
	}
	reps, err := eng.DeriveAll()
	if err != nil || len(reps) != 1 || len(reps[0].Derived) != 1 || reps[0].Derived[0] != derived {
		t.Fatalf("re-derive: %v, %v; want the stored %v", reps, err, derived)
	}
	if got := store.For("Bob", graph.CAIS); len(got) != 1 || got[0].ID != derived.ID {
		t.Errorf("Bob's derived auth after an unrelated edit = %v, want ID %d", got, derived.ID)
	}
	if store.Version() != version {
		t.Errorf("store version %d -> %d: an unchanged output was rewritten", version, store.Version())
	}

	// Revoking the derived authorization directly: the next derivation
	// restores it under a fresh ID.
	if err := store.Revoke(derived.ID); err != nil {
		t.Fatal(err)
	}
	rep, err = eng.Derive("r1")
	if err != nil || len(rep.Derived) != 1 || rep.Derived[0].ID == derived.ID || rep.Derived[0].Subject != "Bob" {
		t.Fatalf("re-derive after revoke: %v, %v", rep, err)
	}

	// An edit that moves the output replaces it.
	if err := profiles.Put(profile.Subject{ID: "Alice", Supervisor: "Alice"}); err != nil {
		t.Fatal(err)
	}
	if got := store.For("Bob", graph.CAIS); len(got) != 0 {
		t.Errorf("Bob keeps %v after the supervisor moved", got)
	}
	if got := store.For("Alice", graph.CAIS); len(got) != 2 {
		t.Errorf("Alice holds %v; want the base and the derived auth", got)
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{Name: "r1", ValidFrom: 7, Base: 1, Ops: Ops{
		Subject: SupervisorOf{}, Location: FixedLocation{graph.CAIS}, Entries: ConstEntries{2},
	}}
	s := r.String()
	for _, frag := range []string{"⟨7:", "a1", "WHENEVER", "Supervisor_Of", "CAIS", "2"} {
		if !strings.Contains(s, frag) {
			t.Errorf("rule string %q missing %q", s, frag)
		}
	}
}

// TestSkipReasonsExact pins the skip report byte for byte: the reasons
// of a rule whose location operator yields an empty location next to a
// real one and whose exit operator yields one pairing Validate rejects,
// from AddRule, Derive and DeriveAll alike.
func TestSkipReasonsExact(t *testing.T) {
	eng, _, _, a1 := fixture(t, false)
	rep, err := eng.AddRule(Rule{
		Name: "mixed", ValidFrom: 1, Base: a1.ID,
		Ops: Ops{
			Exit: interval.TemporalFunc{Name: "SPLIT", Fn: func(interval.Interval, interval.Time) interval.Set {
				return interval.NewSet(iv("[5, 10]"), iv("[30, 60]"))
			}},
			Location: LocationFunc{Name: "WITH_EMPTY", Fn: func(graph.ID, *graph.Graph) ([]graph.ID, error) {
				return []graph.ID{graph.CAIS, ""}, nil
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Skip{
		{"mixed", "(Alice, ) entry [5, 20] exit [5, 10]: authz: empty location"},
		{"mixed", "(Alice, ) entry [5, 20] exit [30, 60]: authz: empty location"},
		{"mixed", "(Alice, CAIS) entry [5, 20] exit [5, 10]: authz: exit end 10 before entry end 20 (need toe >= tie)"},
	}
	if !slices.Equal(rep.Skips, want) {
		t.Errorf("AddRule skips =\n %q\nwant\n %q", rep.Skips, want)
	}
	if len(rep.Derived) != 1 || rep.Derived[0].Exit != iv("[30, 60]") {
		t.Errorf("derived = %v, want the one (Alice, CAIS) exit [30, 60]", rep.Derived)
	}
	if rep, _ := eng.Derive("mixed"); !slices.Equal(rep.Skips, want) {
		t.Errorf("Derive skips = %q", rep.Skips)
	}
	if reps, _ := eng.DeriveAll(); len(reps) != 1 || !slices.Equal(reps[0].Skips, want) {
		t.Errorf("DeriveAll reports = %+v", reps)
	}
}
