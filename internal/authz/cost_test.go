package authz

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

// costPerKey is the length of every index list in the cost fixtures:
// each subject holds costPerKey grants and each location has costPerKey
// holders, so the fixtures grow the store, not the lists. A write still
// rebuilds the lists it touches, at O(list) by design.
const costPerKey = 32

// costFixture returns a 2-shard store holding n authorizations:
// n/costPerKey subjects and as many locations, subject s holding
// locations s .. s+costPerKey-1 (mod the location count).
func costFixture(tb testing.TB, n int) *Store {
	tb.Helper()
	st := NewStoreWithShards(2)
	subjects := n / costPerKey
	batch := make([]Authorization, 0, n)
	for s := 0; s < subjects; s++ {
		for j := 0; j < costPerKey; j++ {
			batch = append(batch, costAuth(s, (s+j)%subjects))
		}
	}
	if _, err := st.AddAll(batch); err != nil {
		tb.Fatal(err)
	}
	return st
}

func costAuth(s, l int) Authorization {
	return New(interval.New(1, 5), interval.New(1, 9),
		profile.SubjectID("u"+strconv.Itoa(s)), graph.ID("l"+strconv.Itoa(l)), 1)
}

// costGrants returns k grants on distinct (subject, location) pairs the
// fixture of size n already holds, round-robin over its subjects.
func costGrants(n, k int) []Authorization {
	subjects := n / costPerKey
	out := make([]Authorization, k)
	for i := range out {
		s, j := i%subjects, i/subjects%costPerKey
		out[i] = costAuth(s, (s+j)%subjects)
	}
	return out
}

// TestAddRevokeAllocBound: a grant and its revocation into a
// 16k-authorization store copy the top level and one bucket per index,
// not the shard. Copying the shard allocated about 4.5 MB per pair.
func TestAddRevokeAllocBound(t *testing.T) {
	st := costFixture(t, 16<<10)
	grants := costGrants(16<<10, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, a := range grants {
		got, err := st.Add(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Revoke(got.ID); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(grants)); per > 64<<10 {
		t.Errorf("Add+Revoke allocates %d B, want <= %d", per, 64<<10)
	}
}

var sinkAuths []Authorization

// TestForZeroAlloc: the Def.-7 lookup, which Algorithm 1's gather also
// lends from, and the memo's subject stamp allocate nothing, on the live
// store and on a View.
func TestForZeroAlloc(t *testing.T) {
	st := costFixture(t, 1<<10)
	v := st.View()
	var stamp Stamp
	for name, f := range map[string]func(){
		"Store.For":         func() { sinkAuths = st.For("u7", "l1") },
		"View.For":          func() { sinkAuths = v.For("u7", "l1") },
		"View.SubjectStamp": func() { stamp = v.SubjectStamp("u7") },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
	if len(sinkAuths) != 1 || !stamp.Same(v.SubjectStamp("u7")) {
		t.Fatalf("fixture lookup found %d authorizations, want 1 (stamp stable: %v)", len(sinkAuths), stamp.Same(v.SubjectStamp("u7")))
	}
}

// BenchmarkStoreAdd times one grant into a store held at about its
// initial size: every 256 grants are revoked with the timer stopped.
func BenchmarkStoreAdd(b *testing.B) {
	for _, n := range []int{1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("auths=%dk", n>>10), func(b *testing.B) {
			st := costFixture(b, n)
			grants := costGrants(n, 256)
			added := make([]ID, 0, len(grants))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := st.Add(grants[len(added)])
				if err != nil {
					b.Fatal(err)
				}
				if added = append(added, a.ID); len(added) == len(grants) {
					b.StopTimer()
					for _, id := range added {
						if err := st.Revoke(id); err != nil {
							b.Fatal(err)
						}
					}
					added = added[:0]
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkStoreRevoke times one revocation from a 16k-authorization
// store: grants are added 256 at a time with the timer stopped.
func BenchmarkStoreRevoke(b *testing.B) {
	st := costFixture(b, 16<<10)
	grants := costGrants(16<<10, 256)
	var added []ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(added) == 0 {
			b.StopTimer()
			stored, err := st.AddAll(grants)
			if err != nil {
				b.Fatal(err)
			}
			for _, a := range stored {
				added = append(added, a.ID)
			}
			b.StartTimer()
		}
		if err := st.Revoke(added[0]); err != nil {
			b.Fatal(err)
		}
		added = added[1:]
	}
}

// BenchmarkStoreFor times the Def.-7 lookup on a 16k-authorization store.
func BenchmarkStoreFor(b *testing.B) {
	st := costFixture(b, 16<<10)
	keys := costGrants(16<<10, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := &keys[i%len(keys)]
		sinkAuths = st.For(k.Subject, k.Location)
	}
}
