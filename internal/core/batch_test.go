package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/authz"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/storage"
)

// gridSite builds a side×side grid graph with one unit-square boundary
// per room (room (r,c) covers [c,c+1]×[r,r+1]); centers[i] is a point
// strictly inside rooms[i]. The corner room is the entry.
func gridSite(t testing.TB, side int) (*graph.Graph, []graph.ID, []geometry.Boundary, []geometry.Point) {
	t.Helper()
	g := graph.New("grid")
	id := func(r, c int) graph.ID { return graph.ID(fmt.Sprintf("r%02d_%02d", r, c)) }
	bounds, centers := geometry.UnitGrid(side, func(r, c int) string { return string(id(r, c)) })
	var rooms []graph.ID
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			rid := id(r, c)
			rooms = append(rooms, rid)
			if err := g.AddLocation(rid); err != nil {
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
	if err := g.SetEntry(id(0, 0)); err != nil {
		t.Fatal(err)
	}
	return g, rooms, bounds, centers
}

// outsidePoint lies outside every boundary.
var outsidePoint = geometry.Point{X: -50, Y: -50}

// fullGrant authorizes sub for every room over a huge horizon.
func fullGrant(t testing.TB, sys *System, sub profile.SubjectID, rooms []graph.ID) {
	t.Helper()
	for _, room := range rooms {
		if _, err := sys.AddAuthorization(authz.New(
			interval.New(1, 1<<40), interval.New(1, 1<<41), sub, room, authz.Unlimited)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestObserveBatchSemantics checks the four per-reading cases (enter,
// same-room no-op, leave, outside no-op) plus a per-reading error that
// must not abort the batch.
func TestObserveBatchSemantics(t *testing.T) {
	g, rooms, bounds, centers := gridSite(t, 2)
	sys, err := Open(Config{Graph: g, Boundaries: bounds})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	fullGrant(t, sys, "alice", rooms)

	out, err := sys.ObserveBatch([]Reading{
		{Time: 2, Subject: "alice", At: centers[0]},     // outside -> r00_00: enter
		{Time: 3, Subject: "alice", At: centers[0]},     // same room: no-op
		{Time: 4, Subject: "alice", At: centers[1]},     // r00_00 -> r00_01: enter
		{Time: 5, Subject: "alice", At: outsidePoint},   // leave
		{Time: 6, Subject: "alice", At: outsidePoint},   // outside -> outside: no-op
		{Time: 1, Subject: "alice", At: centers[0]},     // time regression: per-reading error
		{Time: 7, Subject: "alice", At: centers[0]},     // batch continues after the error
		{Time: 8, Subject: "tailgater", At: centers[0]}, // ungranted entry still records
	})
	if err != nil {
		t.Fatal(err)
	}
	wantMoved := []bool{true, false, true, true, false, false, true, true}
	for i, want := range wantMoved {
		if out[i].Moved != want {
			t.Errorf("reading %d: moved = %v, want %v (err=%v)", i, out[i].Moved, want, out[i].Err)
		}
	}
	if out[5].Err == nil {
		t.Error("time regression must surface as a per-reading error")
	}
	if !out[0].Decision.Granted || !out[2].Decision.Granted {
		t.Error("granted entries expected for alice")
	}
	if out[7].Decision.Granted {
		t.Error("tailgater must be denied")
	}
	if loc, inside := sys.WhereIs("alice"); !inside || loc != rooms[0] {
		t.Errorf("alice at %v/%v, want %v", loc, inside, rooms[0])
	}
	if loc, inside := sys.WhereIs("tailgater"); !inside || loc != rooms[0] {
		t.Errorf("tailgater at %v/%v, want %v", loc, inside, rooms[0])
	}
}

func TestObserveBatchWithoutBoundaries(t *testing.T) {
	s := openMem(t)
	defer s.Close()
	if _, err := s.ObserveBatch([]Reading{{Time: 1, Subject: "x"}}); err == nil {
		t.Error("no boundaries configured: must error")
	}
}

// TestObserveBatchEquivalentToSequential: a batch must leave the system
// in exactly the state N sequential ObserveReading calls produce.
func TestObserveBatchEquivalentToSequential(t *testing.T) {
	g, rooms, bounds, centers := gridSite(t, 3)
	readings := []Reading{
		{Time: 2, Subject: "a", At: centers[0]},
		{Time: 2, Subject: "b", At: centers[0]},
		{Time: 3, Subject: "a", At: centers[1]},
		{Time: 3, Subject: "b", At: centers[3]},
		{Time: 4, Subject: "a", At: outsidePoint},
		{Time: 4, Subject: "b", At: centers[4]},
		{Time: 5, Subject: "a", At: centers[0]},
	}

	build := func() *System {
		sys, err := Open(Config{Graph: g, Boundaries: bounds})
		if err != nil {
			t.Fatal(err)
		}
		fullGrant(t, sys, "a", rooms)
		fullGrant(t, sys, "b", rooms)
		return sys
	}

	batched := build()
	defer batched.Close()
	if _, err := batched.ObserveBatch(readings); err != nil {
		t.Fatal(err)
	}

	sequential := build()
	defer sequential.Close()
	for _, r := range readings {
		if _, _, err := sequential.ObserveReading(r.Time, r.Subject, r.At); err != nil {
			t.Fatal(err)
		}
	}

	for _, sub := range []profile.SubjectID{"a", "b"} {
		bl, bi := batched.WhereIs(sub)
		sl, si := sequential.WhereIs(sub)
		if bl != sl || bi != si {
			t.Errorf("%s: batched at %v/%v, sequential at %v/%v", sub, bl, bi, sl, si)
		}
		if bh, sh := fmt.Sprint(batched.History(sub)), fmt.Sprint(sequential.History(sub)); bh != sh {
			t.Errorf("%s history diverged:\n batched    %s\n sequential %s", sub, bh, sh)
		}
	}
	if b, s := fmt.Sprint(batched.Alerts().Counts()), fmt.Sprint(sequential.Alerts().Counts()); b != s {
		t.Errorf("alert counts diverged: %s vs %s", b, s)
	}
}

// copyWAL stages a (possibly truncated) copy of src's wal.log into a
// fresh data dir and returns that dir.
func copyWAL(t *testing.T, srcDir string, size int64) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(srcDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if size > int64(len(data)) {
		size = int64(len(data))
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), data[:size], 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestGroupCommitCrashRecovery is the torn-batch property test: an
// ObserveBatch is acknowledged only after its WAL group is fsynced, and
// a crash that tears the group mid-write recovers an atomic prefix of
// the batch — the state after replay equals applying the first k
// readings for some k, with no divergence, at every possible tear point.
func TestGroupCommitCrashRecovery(t *testing.T) {
	g, rooms, bounds, centers := gridSite(t, 2)
	subjects := []profile.SubjectID{"s0", "s1", "s2", "s3", "s4", "s5"}

	dir := t.TempDir()
	sys, err := Open(Config{Graph: g, Boundaries: bounds, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subjects {
		fullGrant(t, sys, sub, rooms)
	}
	if err := sys.Close(); err != nil { // flush setup records; batch gets its own region
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	preBatch := fi.Size()
	setupRecords, err := storage.Replay(filepath.Join(dir, "wal.log"), func(storage.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}

	sys, err = Open(Config{Graph: g, Boundaries: bounds, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	readings := make([]Reading, len(subjects))
	for i, sub := range subjects {
		readings[i] = Reading{Time: 2, Subject: sub, At: centers[0]}
	}
	out, err := sys.ObserveBatch(readings)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i].Err != nil || !out[i].Moved {
			t.Fatalf("reading %d did not apply: %+v", i, out[i])
		}
	}

	// Acked => durable: WITHOUT closing (the "crash" happens now), a
	// byte-for-byte copy of the log must already contain the whole batch.
	full := copyWAL(t, dir, 1<<40)
	rec, err := Open(Config{Graph: g, Boundaries: bounds, DataDir: full})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subjects {
		if loc, inside := rec.WhereIs(sub); !inside || loc != rooms[0] {
			t.Fatalf("acked record lost: %s at %v/%v after crash copy", sub, loc, inside)
		}
	}
	_ = rec.Close()
	fi, err = os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	postBatch := fi.Size()
	_ = sys.Close()

	// Tear the group at every byte boundary inside the batch region.
	for cut := preBatch; cut <= postBatch; cut++ {
		cutDir := copyWAL(t, dir, cut)
		n, err := storage.Replay(filepath.Join(cutDir, "wal.log"), func(storage.Record) error { return nil })
		if err != nil {
			t.Fatalf("cut=%d: replay: %v", cut, err)
		}
		k := int(n - setupRecords) // whole movement records surviving the tear
		crashed, err := Open(Config{Graph: g, Boundaries: bounds, DataDir: cutDir})
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		// Expected state: the first k readings applied, nothing else —
		// an atomic prefix of the batch.
		for i, sub := range subjects {
			loc, inside := crashed.WhereIs(sub)
			if i < k && (!inside || loc != rooms[0]) {
				t.Fatalf("cut=%d: prefix record %d lost (%s at %v/%v)", cut, i, sub, loc, inside)
			}
			if i >= k && inside {
				t.Fatalf("cut=%d: phantom record %d (%s inside %v)", cut, i, sub, loc)
			}
		}
		if got := crashed.Movements().Len(); got != k {
			t.Fatalf("cut=%d: %d movement events, want %d", cut, got, k)
		}
		_ = crashed.Close()
	}
}

// TestObserveBatchSyncFallback: a batch committed through the group
// committer is recovered by a reopen.
func TestObserveBatchSyncFallback(t *testing.T) {
	g, rooms, bounds, centers := gridSite(t, 2)
	dir := t.TempDir()
	sys, err := Open(Config{Graph: g, Boundaries: bounds, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fullGrant(t, sys, "a", rooms)
	if _, err := sys.ObserveBatch([]Reading{
		{Time: 2, Subject: "a", At: centers[0]},
		{Time: 3, Subject: "a", At: centers[1]},
	}); err != nil {
		t.Fatal(err)
	}
	_ = sys.Close()

	rec, err := Open(Config{Graph: g, Boundaries: bounds, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if loc, inside := rec.WhereIs("a"); !inside || loc != rooms[1] {
		t.Errorf("a at %v/%v, want %v", loc, inside, rooms[1])
	}
}

// TestSnapshotDrainsCommitter: a snapshot taken right after mutations
// must not lose queued group-commit records nor replay them twice.
func TestSnapshotDrainsCommitter(t *testing.T) {
	g, rooms, bounds, centers := gridSite(t, 2)
	dir := t.TempDir()
	sys, err := Open(Config{Graph: g, Boundaries: bounds, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fullGrant(t, sys, "a", rooms)
	if _, err := sys.ObserveBatch([]Reading{{Time: 2, Subject: "a", At: centers[0]}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ObserveBatch([]Reading{{Time: 3, Subject: "a", At: centers[1]}}); err != nil {
		t.Fatal(err)
	}
	_ = sys.Close()

	rec, err := Open(Config{Graph: g, Boundaries: bounds, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if loc, inside := rec.WhereIs("a"); !inside || loc != rooms[1] {
		t.Errorf("a at %v/%v, want %v", loc, inside, rooms[1])
	}
	// enter + (implicit exit + enter) = 3 events; more would mean the
	// suffix was replayed on top of a snapshot that already contained it.
	if got := rec.Movements().Len(); got != 3 {
		t.Errorf("movement events = %d, want 3 (snapshot + suffix, no double replay)", got)
	}
}

// TestObserveBatchConcurrentQueries is the -race stress test: batched
// movement ingest runs against concurrent cached queries, and because
// movements never change an Algorithm-1 answer, every cached answer must
// equal a fresh recomputation THROUGHOUT the storm — including bounded
// windows served via interval subsumption.
func TestObserveBatchConcurrentQueries(t *testing.T) {
	g, rooms, bounds, centers := gridSite(t, 4)
	dir := t.TempDir()
	sys, err := Open(Config{Graph: g, Boundaries: bounds, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	subjects := []profile.SubjectID{"u0", "u1", "u2", "u3"}
	for _, sub := range subjects {
		// Half the grid, so answers are non-trivial in both directions.
		for _, room := range rooms[:len(rooms)/2] {
			if _, err := sys.AddAuthorization(authz.New(
				interval.New(1, 1<<30), interval.New(1, 1<<31), sub, room, authz.Unlimited)); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := make(map[profile.SubjectID]string, len(subjects))
	for _, sub := range subjects {
		want[sub] = fmt.Sprint(freshInaccessible(sys, sub))
	}

	iters := 30
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	// Ingest: each subject's feed batches a bounce between two rooms.
	wg.Add(1)
	go func() {
		defer wg.Done()
		clock := interval.Time(2)
		for i := 0; i < iters; i++ {
			// Movement events must be globally time-ordered: all the
			// entries at clock, then all the exits at clock+1.
			batch := make([]Reading, 0, 2*len(subjects))
			for j, sub := range subjects {
				batch = append(batch, Reading{Time: clock, Subject: sub, At: centers[j%2]})
			}
			for _, sub := range subjects {
				batch = append(batch, Reading{Time: clock + 1, Subject: sub, At: outsidePoint})
			}
			out, err := sys.ObserveBatch(batch)
			if err != nil {
				t.Error(err)
				return
			}
			for k := range out {
				if out[k].Err != nil {
					t.Errorf("reading %d: %v", k, out[k].Err)
					return
				}
			}
			clock += 2
		}
	}()
	// Queries: cached == fresh, live, for both window shapes.
	for _, sub := range subjects {
		wg.Add(1)
		go func(sub profile.SubjectID) {
			defer wg.Done()
			wide := interval.New(0, 1<<35) // subsumes every auth window
			for i := 0; i < iters*4; i++ {
				if got := fmt.Sprint(sys.Inaccessible(sub)); got != want[sub] {
					t.Errorf("%s: cached %s != fresh %s", sub, got, want[sub])
					return
				}
				if got := fmt.Sprint(sys.InaccessibleDuring(sub, wide)); got != want[sub] {
					t.Errorf("%s windowed: cached %s != fresh %s", sub, got, want[sub])
					return
				}
				_, _ = sys.EarliestAccess(sub, rooms[0])
			}
		}(sub)
	}
	wg.Wait()

	for _, sub := range subjects {
		if got := fmt.Sprint(sys.Inaccessible(sub)); got != want[sub] {
			t.Errorf("after storm, %s: cached %s != fresh %s", sub, got, want[sub])
		}
	}
	if st := sys.QueryCacheStats(); st.Subsumed == 0 {
		t.Errorf("expected subsumed hits during the storm: %+v", st)
	}
	if st := sys.CommitStats(); st.Records == 0 {
		t.Errorf("expected group-committed records: %+v", st)
	}
}
