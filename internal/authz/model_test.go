package authz

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

// model is the reference the store is checked against: a plain map with
// the store's ID watermark.
type model struct {
	auths  map[ID]Authorization
	lastID ID
}

var (
	modelSubjects  = []profile.SubjectID{"ann", "bob", "cat", "dan", "eve", "fay"}
	modelLocations = []graph.ID{"l0", "l1", "l2", "l3", "l4"}
	modelRules     = []string{"", "", "r1", "r2"}
)

// reads is the read surface Store and View share.
type reads interface {
	For(profile.SubjectID, graph.ID) []Authorization
	BySubject(profile.SubjectID) []Authorization
	ByLocation(graph.ID) []Authorization
	Get(ID) (Authorization, error)
	Derived(string) []Authorization
	All() []Authorization
	Subjects() []profile.SubjectID
	Len() int
}

// answer is one read and its result; empty slices are stored as nil so
// a nil and an empty result compare equal.
type answer struct {
	query string
	got   any
}

// answers runs every read over the model's key space; Get probes the
// given IDs.
func answers(r reads, ids []ID) []answer {
	var out []answer
	add := func(query string, got []Authorization) {
		if len(got) == 0 {
			got = nil
		}
		out = append(out, answer{query, got})
	}
	for _, s := range modelSubjects {
		for _, l := range modelLocations {
			add("For("+string(s)+","+string(l)+")", r.For(s, l))
		}
		add("BySubject("+string(s)+")", r.BySubject(s))
	}
	for _, l := range modelLocations {
		add("ByLocation("+string(l)+")", r.ByLocation(l))
	}
	for _, rule := range modelRules {
		if rule != "" {
			add("Derived("+rule+")", r.Derived(rule))
		}
	}
	for _, id := range ids {
		a, err := r.Get(id)
		out = append(out, answer{"Get(" + strconv.FormatUint(uint64(id), 10) + ")", [2]any{a, errors.Is(err, ErrNotFound)}})
	}
	add("All", r.All())
	subjects := r.Subjects()
	if len(subjects) == 0 {
		subjects = nil
	}
	out = append(out, answer{"Subjects", subjects}, answer{"Len", r.Len()})
	return out
}

// probes returns the IDs worth a Get before a step: every live one, 0,
// and every ID the step can assign.
func (m *model) probes() []ID {
	ids := []ID{0}
	for id := range m.auths {
		ids = append(ids, id)
	}
	for id := m.lastID + 1; id <= m.lastID+16; id++ {
		ids = append(ids, id)
	}
	return ids
}

// view is the model as a reads value.
func (m *model) view() modelView { return modelView{m.sorted()} }

func (m *model) sorted() []Authorization {
	out := make([]Authorization, 0, len(m.auths))
	for _, a := range m.auths {
		out = append(out, a)
	}
	sortAuths(out)
	return out
}

type modelView struct{ all []Authorization }

func (v modelView) filter(keep func(Authorization) bool) []Authorization {
	var out []Authorization
	for _, a := range v.all {
		if keep(a) {
			out = append(out, a)
		}
	}
	return out
}

func (v modelView) For(s profile.SubjectID, l graph.ID) []Authorization {
	return v.filter(func(a Authorization) bool { return a.Subject == s && a.Location == l })
}

func (v modelView) BySubject(s profile.SubjectID) []Authorization {
	return v.filter(func(a Authorization) bool { return a.Subject == s })
}

func (v modelView) ByLocation(l graph.ID) []Authorization {
	return v.filter(func(a Authorization) bool { return a.Location == l })
}

func (v modelView) Derived(rule string) []Authorization {
	return v.filter(func(a Authorization) bool { return a.DerivedBy == rule })
}

func (v modelView) Get(id ID) (Authorization, error) {
	for _, a := range v.all {
		if a.ID == id {
			return a, nil
		}
	}
	return Authorization{}, ErrNotFound
}

func (v modelView) All() []Authorization { return v.all }

func (v modelView) Subjects() []profile.SubjectID {
	seen := map[profile.SubjectID]bool{}
	var out []profile.SubjectID
	for _, a := range v.all {
		if !seen[a.Subject] {
			seen[a.Subject] = true
			out = append(out, a.Subject)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (v modelView) Len() int { return len(v.all) }

func randAuth(rng *rand.Rand) Authorization {
	lo := interval.Time(1 + rng.IntN(50))
	a := New(interval.New(lo, lo+interval.Time(rng.IntN(10))), interval.New(lo, lo+20),
		modelSubjects[rng.IntN(len(modelSubjects))], modelLocations[rng.IntN(len(modelLocations))], int64(rng.IntN(3)))
	a.DerivedBy = modelRules[rng.IntN(len(modelRules))]
	return a
}

// step applies one random operation to both the store and the model and
// returns its description.
func (m *model) step(t *testing.T, rng *rand.Rand, st *Store) string {
	t.Helper()
	switch op := rng.IntN(10); {
	case op < 4:
		a, err := st.Add(randAuth(rng))
		if err != nil {
			t.Fatal(err)
		}
		if a.ID != m.lastID+1 {
			t.Fatalf("Add assigned ID %d, want %d", a.ID, m.lastID+1)
		}
		m.auths[a.ID], m.lastID = a, a.ID
		return fmt.Sprintf("Add %v", a)
	case op < 6:
		batch := make([]Authorization, 1+rng.IntN(8))
		for i := range batch {
			batch[i] = randAuth(rng)
		}
		invalid := rng.IntN(5) == 0
		if invalid {
			batch[rng.IntN(len(batch))].Subject = ""
		}
		stored, err := st.AddAll(batch)
		if invalid {
			if err == nil {
				t.Fatal("AddAll accepted an invalid batch")
			}
			return "AddAll (invalid, rejected)"
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range stored {
			m.auths[a.ID], m.lastID = a, a.ID
		}
		return fmt.Sprintf("AddAll %d", len(stored))
	case op < 8:
		id := ID(rng.IntN(int(m.lastID) + 2))
		err := st.Revoke(id)
		if _, ok := m.auths[id]; ok != (err == nil) {
			t.Fatalf("Revoke(%d) = %v, model has it: %v", id, err, ok)
		}
		delete(m.auths, id)
		return fmt.Sprintf("Revoke %d", id)
	case op < 9:
		rule := modelRules[2+rng.IntN(2)]
		want := 0
		for id, a := range m.auths {
			if a.DerivedBy == rule {
				delete(m.auths, id)
				want++
			}
		}
		if got := st.RevokeDerived(rule); got != want {
			t.Fatalf("RevokeDerived(%s) = %d, want %d", rule, got, want)
		}
		return fmt.Sprintf("RevokeDerived %s", rule)
	default:
		auths := m.sorted()
		rng.Shuffle(len(auths), func(i, j int) { auths[i], auths[j] = auths[j], auths[i] })
		if len(auths) > 0 && rng.IntN(4) == 0 {
			auths = append(auths, auths[0])
			if err := st.Restore(auths, 0); err == nil {
				t.Fatal("Restore accepted a duplicate ID")
			}
			clear(m.auths)
			return "Restore (duplicate, cleared)"
		}
		next := m.lastID + 1 + ID(rng.IntN(3))
		if err := st.Restore(auths, next); err != nil {
			t.Fatal(err)
		}
		m.lastID = next - 1
		return fmt.Sprintf("Restore %d next %d", len(auths), next)
	}
}

// ruleIndexErr checks every shard's rule index against its byID table:
// each listed ID resolves, in ID order, to an authorization of the
// listing rule, and each derived authorization is listed. Derived and
// RevokeDerived skip IDs that no longer resolve, so a stale entry shows
// only here.
func ruleIndexErr(st *Store) error {
	for i := range st.shards {
		d := st.shards[i].data.Load()
		listed, derived := 0, 0
		for b := range d.byRule.buckets {
			for rule, ids := range b {
				if len(ids) == 0 || !slices.IsSorted(ids) {
					return fmt.Errorf("shard %d: rule %q lists %v", i, rule, ids)
				}
				for _, id := range ids {
					if a, ok := d.get(id); !ok || a.DerivedBy != rule {
						return fmt.Errorf("shard %d: rule %q lists %d, which is %v (present %v)", i, rule, id, a, ok)
					}
				}
				listed += len(ids)
			}
		}
		for b := range d.byID.buckets {
			for _, a := range b {
				if a.IsDerived() {
					derived++
				}
			}
		}
		if listed != derived {
			return fmt.Errorf("shard %d: rule index lists %d IDs for %d derived authorizations", i, listed, derived)
		}
	}
	return nil
}

// TestStoreMatchesModel drives a 4-shard store with random writes and
// checks every read against a plain-map model after each step. A View
// captured before a step must answer exactly as before it: writers share
// untouched buckets with published state, so a writer editing a shared
// bucket in place would show up here.
func TestStoreMatchesModel(t *testing.T) {
	steps := 400
	if testing.Short() {
		steps = 150
	}
	for seed := uint64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed))
		st := NewStoreWithShards(4)
		m := &model{auths: map[ID]Authorization{}}
		for i := 0; i < steps; i++ {
			v, probe := st.View(), m.probes()
			before := answers(v, probe)
			what := m.step(t, rng, st)
			fail := func(kind string, got, want []answer) {
				for j := range want {
					if !reflect.DeepEqual(got[j], want[j]) {
						t.Fatalf("seed %d step %d (%s): %s:\n got  %s = %v\n want %s = %v",
							seed, i, what, kind, got[j].query, got[j].got, want[j].query, want[j].got)
					}
				}
			}
			fail("view captured before the step moved", answers(v, probe), before)
			probe = append(probe, m.probes()...)
			fail("store disagrees with model", answers(st, probe), answers(m.view(), probe))
			if err := ruleIndexErr(st); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, i, what, err)
			}
			if got := st.Stats().Auths; got != len(m.auths) {
				t.Fatalf("seed %d step %d (%s): Stats().Auths = %d, want %d", seed, i, what, got, len(m.auths))
			}
		}
	}
}
