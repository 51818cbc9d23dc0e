package authz

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/interval"
	"repro/internal/profile"
)

func addOK(t *testing.T, st *Store, a Authorization) Authorization {
	t.Helper()
	got, err := st.Add(a)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestStoreAddAssignsIDs(t *testing.T) {
	st := NewStore()
	a1 := addOK(t, st, New(iv("[10, 20]"), iv("[10, 50]"), "Alice", "CAIS", 2))
	a2 := addOK(t, st, New(iv("[5, 35]"), iv("[20, 100]"), "Bob", "CHIPES", 1))
	if a1.ID != 1 || a2.ID != 2 {
		t.Errorf("ids = %d, %d", a1.ID, a2.ID)
	}
	if st.Len() != 2 {
		t.Errorf("len = %d", st.Len())
	}
	got, err := st.Get(a1.ID)
	if err != nil || got.Subject != "Alice" {
		t.Errorf("Get = %v, %v", got, err)
	}
	if _, err := st.Get(999); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing get: %v", err)
	}
}

func TestStoreAddValidates(t *testing.T) {
	st := NewStore()
	if _, err := st.Add(New(iv("[5, 40]"), iv("[2, 100]"), "Alice", "CAIS", 1)); err == nil {
		t.Error("invalid auth must be rejected")
	}
	// Unspecified durations are normalised, not rejected.
	a := addOK(t, st, Authorization{Subject: "Alice", Location: "CAIS", CreatedAt: 3})
	if !a.Entry.Equal(interval.From(3)) {
		t.Errorf("entry = %v", a.Entry)
	}
}

func TestStoreIndexes(t *testing.T) {
	st := NewStore()
	addOK(t, st, New(iv("[10, 20]"), iv("[10, 50]"), "Alice", "CAIS", 2))
	addOK(t, st, New(iv("[5, 35]"), iv("[20, 100]"), "Bob", "CHIPES", 1))
	addOK(t, st, New(iv("[1, 2]"), iv("[1, 9]"), "Alice", "CHIPES", 1))

	if got := st.For("Alice", "CAIS"); len(got) != 1 || got[0].Subject != "Alice" {
		t.Errorf("For = %v", got)
	}
	if got := st.For("Bob", "CAIS"); got != nil {
		t.Errorf("no auth for (Bob, CAIS), got %v", got)
	}
	if got := st.BySubject("Alice"); len(got) != 2 {
		t.Errorf("BySubject = %v", got)
	}
	if got := st.ByLocation("CHIPES"); len(got) != 2 {
		t.Errorf("ByLocation = %v", got)
	}
	all := st.All()
	if len(all) != 3 || all[0].ID > all[1].ID || all[1].ID > all[2].ID {
		t.Errorf("All = %v", all)
	}
}

func TestStoreRevoke(t *testing.T) {
	st := NewStore()
	a := addOK(t, st, New(iv("[10, 20]"), iv("[10, 50]"), "Alice", "CAIS", 2))
	if err := st.Revoke(a.ID); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 || st.For("Alice", "CAIS") != nil || st.BySubject("Alice") != nil || st.ByLocation("CAIS") != nil {
		t.Error("revoke must clear all indexes")
	}
	if err := st.Revoke(a.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("double revoke: %v", err)
	}
}

func TestStoreRevokeDerived(t *testing.T) {
	st := NewStore()
	base := addOK(t, st, New(iv("[5, 20]"), iv("[15, 50]"), "Alice", "CAIS", 2))
	d1 := New(iv("[5, 20]"), iv("[15, 50]"), "Bob", "CAIS", 2)
	d1.DerivedBy, d1.BaseID = "r1", base.ID
	d1 = addOK(t, st, d1)
	d2 := New(iv("[10, 20]"), iv("[15, 50]"), "Bob", "CAIS", 2)
	d2.DerivedBy, d2.BaseID = "r2", base.ID
	addOK(t, st, d2)

	if got := st.Derived("r1"); len(got) != 1 || got[0] != d1 {
		t.Errorf("Derived(r1) = %v, want [%v]", got, d1)
	}
	if got := st.Derived(""); got != nil {
		t.Errorf("Derived(\"\") = %v: base authorizations are not rule output", got)
	}
	if n := st.RevokeDerived("r1"); n != 1 {
		t.Errorf("revoked %d, want 1", n)
	}
	if st.Len() != 2 {
		t.Errorf("len = %d, want 2", st.Len())
	}
	if n := st.RevokeDerived("r1"); n != 0 {
		t.Errorf("second revoke removed %d", n)
	}
	if got := st.Derived("r1"); got != nil {
		t.Errorf("Derived(r1) after revoke = %v", got)
	}
	// Base and r2-derived authorizations survive.
	if _, err := st.Get(base.ID); err != nil {
		t.Error("base must survive")
	}
	if got := st.For("Bob", "CAIS"); len(got) != 1 || got[0].DerivedBy != "r2" {
		t.Errorf("survivors = %v", got)
	}
}

func TestStoreSnapshotRestore(t *testing.T) {
	st := NewStore()
	addOK(t, st, New(iv("[10, 20]"), iv("[10, 50]"), "Alice", "CAIS", 2))
	b := addOK(t, st, New(iv("[5, 35]"), iv("[20, 100]"), "Bob", "CHIPES", 1))
	_ = st.Revoke(b.ID)
	auths, next := st.Snapshot()
	if len(auths) != 1 || next != 3 {
		t.Fatalf("snapshot = %v, next = %d", auths, next)
	}
	fresh := NewStore()
	if err := fresh.Restore(auths, next); err != nil {
		t.Fatal(err)
	}
	// IDs never reused after restore.
	c, _ := fresh.Add(New(iv("[1, 2]"), iv("[1, 5]"), "Carol", "Lab1", 1))
	if c.ID != 3 {
		t.Errorf("post-restore id = %d, want 3", c.ID)
	}
	// Restore rejects bad input.
	if err := fresh.Restore([]Authorization{{Subject: "x", Location: "l"}}, 1); err == nil {
		t.Error("restore without ID should fail")
	}
	bad := New(iv("[1, 2]"), iv("[1, 5]"), "x", "l", 1)
	bad.ID = 7
	if err := fresh.Restore([]Authorization{bad, bad}, 1); err == nil {
		t.Error("duplicate IDs should fail")
	}
	inv := New(iv("[5, 40]"), iv("[2, 100]"), "x", "l", 1)
	inv.ID = 9
	if err := fresh.Restore([]Authorization{inv}, 1); err == nil {
		t.Error("invalid auth in restore should fail")
	}
}

// TestSubjectStamp: a subject's stamp moves with every write to its
// authorizations, Restore included, and not with a write to a subject in
// another bucket; a captured View keeps the stamps it captured.
func TestSubjectStamp(t *testing.T) {
	st := NewStore()
	sameBucket := func(x, y profile.SubjectID) bool {
		sx, hx := st.shardFor(x)
		sy, hy := st.shardFor(y)
		return sx == sy && bucketOf(hx) == bucketOf(hy)
	}
	other := profile.SubjectID("b0")
	for i := 1; sameBucket("a", other); i++ {
		other = profile.SubjectID(fmt.Sprintf("b%d", i))
	}
	grant := func(s profile.SubjectID) Authorization {
		return addOK(t, st, New(iv("[1, 20]"), iv("[1, 40]"), s, "CAIS", Unlimited))
	}
	moved := func(step string, s profile.SubjectID, before, after *View, want bool) {
		t.Helper()
		if got := !before.SubjectStamp(s).Same(after.SubjectStamp(s)); got != want {
			t.Errorf("%s: %s's stamp moved = %v, want %v", step, s, got, want)
		}
	}

	grant("a")
	grant(other)
	v0 := st.View()
	ga := grant("a")
	v1 := st.View()
	moved("grant to a", "a", v0, v1, true)
	moved("grant to a", other, v0, v1, false)
	if err := st.Revoke(ga.ID); err != nil {
		t.Fatal(err)
	}
	v2 := st.View()
	moved("revoke of a's grant", "a", v1, v2, true)
	moved("revoke of a's grant", other, v1, v2, false)
	moved("captured view", "a", v0, v0, false)

	// Restoring the very same contents rebuilds every bucket.
	auths, next := st.Snapshot()
	if err := st.Restore(auths, next); err != nil {
		t.Fatal(err)
	}
	v3 := st.View()
	moved("restore", "a", v2, v3, true)
	moved("restore", other, v2, v3, true)
}

func TestFindConflicts(t *testing.T) {
	st := NewStore()
	// The paper's example: Alice may enter CAIS during [5, 10], and
	// another authorization states [10, 11] — these interact.
	addOK(t, st, New(iv("[5, 10]"), iv("[5, 20]"), "Alice", "CAIS", 1))
	addOK(t, st, New(iv("[10, 11]"), iv("[10, 30]"), "Alice", "CAIS", 1))
	// A duplicate pair on another location.
	dup := New(iv("[0, 5]"), iv("[0, 9]"), "Bob", "Lab1", 1)
	addOK(t, st, dup)
	addOK(t, st, dup)
	// Adjacent windows.
	addOK(t, st, New(iv("[0, 4]"), iv("[0, 9]"), "Carol", "Lab2", 1))
	addOK(t, st, New(iv("[5, 8]"), iv("[5, 9]"), "Carol", "Lab2", 1))
	// Unrelated pair: same window, different locations — no conflict.
	addOK(t, st, New(iv("[0, 9]"), iv("[0, 9]"), "Dave", "X", 1))
	addOK(t, st, New(iv("[0, 9]"), iv("[0, 9]"), "Dave", "Y", 1))

	got := st.FindConflicts()
	if len(got) != 3 {
		t.Fatalf("conflicts = %d (%v), want 3", len(got), got)
	}
	kinds := map[string]int{}
	for _, c := range got {
		kinds[c.Kind]++
	}
	if kinds["overlap"] != 1 || kinds["duplicate"] != 1 || kinds["adjacent"] != 1 {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	st := NewStore()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_, _ = st.Add(New(iv("[0, 10]"), iv("[0, 20]"), "Alice", "CAIS", 1))
		}
	}()
	for i := 0; i < 200; i++ {
		st.For("Alice", "CAIS")
		st.All()
		st.Len()
	}
	<-done
	if st.Len() != 200 {
		t.Errorf("len = %d", st.Len())
	}
}
