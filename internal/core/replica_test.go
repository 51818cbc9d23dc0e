package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/query"
)

// stressReplicaSite is stressGrid plus durability and boundaries — the
// follower stress fixture.
func stressReplicaSite(t *testing.T, side int) (*System, []profile.SubjectID, []graph.ID, []geometry.Point) {
	t.Helper()
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
	sys, err := Open(Config{Graph: g, Boundaries: bounds, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rooms := sys.Flat().Nodes
	subs := []profile.SubjectID{"u00", "u01", "u02"}
	for _, sub := range subs {
		if err := sys.PutSubject(profile.Subject{ID: sub}); err != nil {
			t.Fatal(err)
		}
		for _, room := range rooms[:len(rooms)/2] {
			if _, err := sys.AddAuthorization(authz.New(
				interval.New(1, 1<<30), interval.New(1, 1<<31), sub, room, authz.Unlimited)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sys, subs, rooms, centers
}

// TestReplicaViewMatchesFreshAtEveryEpoch mirrors
// TestSnapshotViewMatchesFreshAtEveryEpoch on the FOLLOWER: while the
// asynchronous apply loop ingests authorization churn and ObserveBatch
// movement churn shipped from the primary, concurrent replica readers
// must see, at every view they load, a memoized Algorithm-1 answer equal
// to a fresh fixpoint over the very same immutable snapshot — and
// concurrent public mutators must keep bouncing off ErrReadOnly. Run
// with -race this proves the follower's apply/publish pipeline is
// properly synchronized with its lock-free query paths.
func TestReplicaViewMatchesFreshAtEveryEpoch(t *testing.T) {
	sys, subs, rooms, centers := stressReplicaSite(t, 4)
	defer sys.Close()

	rep, err := NewReplica(&LogSource{Node: sys})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() {
		runDone <- rep.Run(ctx, RunConfig{RetryMin: time.Millisecond, RetryMax: 5 * time.Millisecond})
	}()

	const iters = 150
	var wg sync.WaitGroup

	// Replica readers: cached == fresh over the same loaded view.
	repSys := rep.System()
	for _, sub := range subs {
		wg.Add(1)
		go func(sub profile.SubjectID) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				v := repSys.currentView()
				got := v.result(sub, query.Options{}).Inaccessible
				fresh := query.FindInaccessible(v.flat, v.auths, sub, query.Options{}).Inaccessible
				if fmt.Sprint(got) != fmt.Sprint(fresh) {
					t.Errorf("%s epoch %d: view-cached %v != view-fresh %v", sub, v.epoch, got, fresh)
					return
				}
				if i%16 == 0 {
					_ = repSys.WhoCanAccess(rooms[2])
					_ = repSys.Request(interval.Time(2), sub, rooms[0])
				}
			}
		}(sub)
	}

	// Replica writer (must fail): the read-only gate under concurrency.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := repSys.AddAuthorization(authz.New(
				interval.New(1, 2), interval.New(1, 2), "x", rooms[0], authz.Unlimited)); err != ErrReadOnly {
				t.Errorf("replica AddAuthorization: %v", err)
				return
			}
			if err := repSys.PutSubject(profile.Subject{ID: "x"}); err != ErrReadOnly {
				t.Errorf("replica PutSubject: %v", err)
				return
			}
		}
	}()

	// Primary writer 1: authorization churn.
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

	// Primary writer 2: ObserveBatch churn (movement records on the
	// stream; must not disturb follower epochs beyond publication).
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

	// Quiesced: the follower catches all the way up and agrees with a
	// fresh primary-side recomputation.
	target := sys.ReplicationInfo().TotalSeq
	deadline := time.Now().Add(10 * time.Second)
	for rep.AppliedSeq() < target {
		if time.Now().After(deadline) {
			t.Fatalf("apply loop stalled at %d of %d", rep.AppliedSeq(), target)
		}
		time.Sleep(time.Millisecond)
	}
	for _, sub := range subs {
		got := repSys.Inaccessible(sub)
		want := query.FindInaccessible(sys.Flat(), sys.AuthStore(), sub, query.Options{}).Inaccessible
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: replica %v != primary fresh %v", sub, got, want)
		}
	}
	if st := rep.Status(context.Background()); st.Lag != 0 {
		t.Errorf("settled lag = %+v", st)
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run returned %v", err)
	}
}

// TestSnapshotSeqMonotonicAcrossCompactions is the regression test for
// the snapshot numbering fix: snapshots used to be numbered by the
// CURRENT WAL length, which resets on every compaction, so a second
// snapshot could get a smaller number than the first — Latest() would
// then recover from the stale one and silently lose the mutations in
// between. Cumulative sequence numbering keeps recovery exact and gives
// the replication stream its coordinate system.
func TestSnapshotSeqMonotonicAcrossCompactions(t *testing.T) {
	dir := t.TempDir()
	sys, err := Open(Config{Graph: graph.NTUCampus(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.PutSubject(profile.Subject{ID: "Alice"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := sys.AddAuthorization(authz.New(
			interval.New(1, 40), interval.New(2, 60), "Alice", graph.CAIS, authz.Unlimited)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Snapshot(); err != nil { // base 5
		t.Fatal(err)
	}
	// Fewer records than the first snapshot covered: the second
	// snapshot's naive number (2) would sort BELOW the first (5).
	for i := 0; i < 2; i++ {
		if _, err := sys.AddAuthorization(authz.New(
			interval.New(1, 40), interval.New(2, 60), "Alice", graph.SCESectionA, authz.Unlimited)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Snapshot(); err != nil { // base 7
		t.Fatal(err)
	}
	info := sys.ReplicationInfo()
	if info.BaseSeq != 7 || info.TotalSeq != 7 {
		t.Fatalf("replication info after compactions = %+v, want base=total=7", info)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := len(r.AuthorizationsFor("Alice", graph.SCESectionA)); got != 2 {
		t.Fatalf("recovered %d SectionA authorizations, want 2 (stale snapshot recovered?)", got)
	}
	if got := len(r.AuthorizationsFor("Alice", graph.CAIS)); got != 4 {
		t.Fatalf("recovered %d CAIS authorizations, want 4", got)
	}
	if info := r.ReplicationInfo(); info.BaseSeq != 7 {
		t.Fatalf("recovered base = %+v, want 7", info)
	}
}
