package movement

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

// fill records n closed stints, one chronon each, cycling through the
// subjects and locations so that every (subject, location) pair recurs.
func fill(tb testing.TB, db *DB, n int, subjects []profile.SubjectID, locations []graph.ID) {
	tb.Helper()
	for i := range n {
		s, l := subjects[i%len(subjects)], locations[(i/len(subjects)+i)%len(locations)]
		t := interval.Time(2 * i)
		if _, err := db.RecordEnter(t, s, l, 1); err != nil {
			tb.Fatal(err)
		}
		if _, _, err := db.RecordExit(t+1, s); err != nil {
			tb.Fatal(err)
		}
	}
}

func names[T ~string](prefix string, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = T(fmt.Sprintf("%s%d", prefix, i))
	}
	return out
}

// TestRetainedBytesPerStint bounds the heap the history keeps per stint
// once the garbage collector has run: one pointer-free row and one entry
// in its location's list. A per-stint cost that grows (a string header,
// an event copy, another index) fails it.
func TestRetainedBytesPerStint(t *testing.T) {
	const stints, bound = 100_000, 48
	subjects, locations := names[profile.SubjectID]("s", 64), names[graph.ID]("l", 16)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := NewDB()
	fill(t, db, stints, subjects, locations)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(db)
	perStint := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / stints
	t.Logf("retained %.1f B per stint", perStint)
	if perStint > bound {
		t.Fatalf("retained %.1f B per stint, bound %d", perStint, bound)
	}
}

// TestRecordAllocs: once a subject and a location are known, an
// enter+exit cycle allocates only when a row chunk or a location's list
// grows — less than once per cycle on average.
func TestRecordAllocs(t *testing.T) {
	db := NewDB()
	fill(t, db, 10, []profile.SubjectID{"u"}, []graph.ID{"room"})
	tm := interval.Time(100)
	allocs := testing.AllocsPerRun(4096, func() {
		tm += 2
		if _, err := db.RecordEnter(tm, "u", "room", 1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := db.RecordExit(tm+1, "u"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1 {
		t.Fatalf("%.0f allocations per enter+exit", allocs)
	}
}

// BenchmarkEntryCount counts one subject's entries into one room over a
// window holding its last few entries (the Definition 7 check an entry
// request makes) as the subject's history grows. The subject cycles
// through four rooms, so a quarter of its stints are in the counted one.
func BenchmarkEntryCount(b *testing.B) {
	for _, n := range []int{100, 10_000, 100_000} {
		b.Run(fmt.Sprintf("stints=%d", n), func(b *testing.B) {
			db := NewDB()
			fill(b, db, n, []profile.SubjectID{"u"}, names[graph.ID]("l", 4))
			window := interval.From(db.LastTime() - 40)
			b.ResetTimer()
			for range b.N {
				if db.EntryCount("u", "l0", window) == 0 {
					b.Fatal("no entries in the window")
				}
			}
		})
	}
}
