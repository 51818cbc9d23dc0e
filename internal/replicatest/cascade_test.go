package replicatest

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/stream"
)

// TestCascadeLeafEquivalenceEverySeq drives randomized mutations on the
// primary and ships them through TWO synchronous hops — primary WAL →
// mid-tier follower (relay armed) → leaf follower — asserting at every
// shared sequence that the leaf's served answers byte-match a fresh
// primary-side recomputation. The leaf never touches the primary: its
// bootstrap and every frame come from the mid-tier's relay log, so a
// pass proves the extra hop is lossless over the full query battery.
func TestCascadeLeafEquivalenceEverySeq(t *testing.T) {
	sd := seed(t)
	t.Logf("seed %d (override with REPLICA_SEED)", sd)
	rng := rand.New(rand.NewSource(sd))

	g, bounds, centers := GridSite(t, 3)
	h := New(t, g, bounds)
	casc := h.EnableCascade()

	subs := []profile.SubjectID{"u00", "u01", "u02"}
	for _, sub := range subs {
		if err := h.Primary.PutSubject(profile.Subject{ID: sub}); err != nil {
			t.Fatal(err)
		}
	}
	rooms := h.Primary.Flat().Nodes

	iters := 60
	if testing.Short() {
		iters = 20
	}
	now := interval.Time(2)
	for i := 0; i < iters; i++ {
		now += interval.Time(rng.Intn(2))
		switch op := rng.Intn(6); {
		case op < 3:
			entry := interval.New(interval.Time(1+rng.Intn(20)), interval.Time(30+rng.Intn(60)))
			exit := interval.New(entry.Start, entry.End+interval.Time(1+rng.Intn(30)))
			if _, err := h.Primary.AddAuthorization(authz.New(
				entry, exit, subs[rng.Intn(len(subs))], rooms[rng.Intn(len(rooms))], authz.Unlimited)); err != nil {
				t.Fatalf("seed %d op %d: add: %v", sd, i, err)
			}
		case op < 4:
			if _, _, err := h.Primary.ObserveReading(
				now, subs[rng.Intn(len(subs))], centers[rng.Intn(len(centers))]); err != nil {
				t.Fatalf("seed %d op %d: observe: %v", sd, i, err)
			}
		case op < 5:
			if _, err := h.Primary.Tick(now); err != nil {
				t.Fatalf("seed %d op %d: tick: %v", sd, i, err)
			}
		default:
			if err := h.Primary.PutSubject(profile.Subject{
				ID: subs[rng.Intn(len(subs))], Supervisor: subs[rng.Intn(len(subs))],
			}); err != nil {
				t.Fatalf("seed %d op %d: put: %v", sd, i, err)
			}
		}

		// Ship both hops record by record. After each leaf apply, the
		// leaf's cached answers must equal a fresh recomputation over its
		// own state (the upper tiers have already moved on).
		target := h.Primary.ReplicationInfo().TotalSeq
		for h.Replica.AppliedSeq() < target {
			if h.Pump(1) != 1 {
				t.Fatalf("seed %d op %d: primary stream dry at %d of %d", sd, i, h.Replica.AppliedSeq(), target)
			}
			if casc.Pump(1) != 1 {
				t.Fatalf("seed %d op %d: relay dry at leaf seq %d (follower at %d)",
					sd, i, casc.Leaf.AppliedSeq(), h.Replica.AppliedSeq())
			}
			leafSys := casc.Leaf.System()
			got := CachedAnswers(leafSys, subs, rooms, now)
			fresh := FreshAnswers(leafSys, subs, rooms, now)
			if !bytes.Equal(got, fresh) {
				t.Fatalf("seed %d op %d seq %d: leaf cached != leaf fresh:\ncached: %s\nfresh: %s",
					sd, i, casc.Leaf.AppliedSeq(), got, fresh)
			}
		}
		// All three histories coincide: the leaf must byte-match a fresh
		// primary recomputation across the full battery.
		casc.AssertEquivalent(h.Primary, subs, rooms, now)
	}
	if casc.Leaf.AppliedSeq() != h.Primary.ReplicationInfo().TotalSeq {
		t.Fatalf("seed %d: leaf at %d, primary at %d",
			sd, casc.Leaf.AppliedSeq(), h.Primary.ReplicationInfo().TotalSeq)
	}
}

// TestCascadeLeafCrashResume kills the leaf tailer at every relay frame
// boundary and re-attaches from nothing but the leaf's AppliedSeq — the
// restarted-leaf-process fence, one tier down from the primary case.
func TestCascadeLeafCrashResume(t *testing.T) {
	g, bounds, centers := GridSite(t, 3)
	h := New(t, g, bounds)
	casc := h.EnableCascade()

	subs := []profile.SubjectID{"a", "b"}
	for _, sub := range subs {
		if err := h.Primary.PutSubject(profile.Subject{ID: sub}); err != nil {
			t.Fatal(err)
		}
	}
	rooms := h.Primary.Flat().Nodes
	for i := 0; i < 12; i++ {
		if _, _, err := h.Primary.ObserveReading(
			interval.Time(2+i), subs[i%len(subs)], centers[i%len(centers)]); err != nil {
			t.Fatal(err)
		}
	}
	h.CatchUp()

	for casc.Leaf.AppliedSeq() < casc.Up.AppliedSeq() {
		if casc.Pump(1) != 1 {
			t.Fatalf("relay dry at leaf seq %d", casc.Leaf.AppliedSeq())
		}
		casc.RestartReader() // crash the leaf at every frame boundary
	}
	casc.AssertEquivalent(h.Primary, subs, rooms, interval.Time(20))
}

// TestCascadeEventFeedFromLeafTier subscribes a from-seq-0 event feed to
// the relay-backed bus — the feed a cascading follower serves its leaf
// tier — and checks it delivers exactly total_seq record events, in
// order, with zero gaps or duplicates, then splices into live delivery
// as later records arrive over the cascade.
func TestCascadeEventFeedFromLeafTier(t *testing.T) {
	g, bounds, centers := GridSite(t, 3)
	h := New(t, g, bounds)
	casc := h.EnableCascade()

	if err := h.Primary.PutSubject(profile.Subject{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := h.Primary.ObserveReading(
			interval.Time(2+i), "a", centers[i%len(centers)]); err != nil {
			t.Fatal(err)
		}
	}
	h.CatchUp()
	casc.CatchUp()
	total := casc.Up.AppliedSeq()
	if want := h.Primary.ReplicationInfo().TotalSeq; total != want {
		t.Fatalf("follower applied %d, primary at %d", total, want)
	}

	// The bus a cascading follower serves /v1/stream/events from: fed by
	// the relay log, not a WAL.
	lg, err := casc.Up.ServedLog()
	if err != nil {
		t.Fatal(err)
	}
	bus := stream.NewBus(lg)
	defer bus.Close()
	sub, err := bus.Subscribe(stream.SubscribeOptions{From: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	done := make(chan struct{})
	timer := time.AfterFunc(10*time.Second, func() { close(done) })
	defer timer.Stop()
	next := uint64(0)
	for next < total {
		ev, err := sub.Next(done)
		if err != nil {
			t.Fatalf("feed failed at seq %d of %d: %v", next, total, err)
		}
		if ev.Kind == stream.KindError {
			t.Fatalf("in-band error at seq %d: %s", next, ev.Error)
		}
		if ev.Kind == stream.KindAlert {
			continue
		}
		if ev.Seq != next {
			t.Fatalf("event seq %d, want %d (gap or duplicate)", ev.Seq, next)
		}
		next++
	}

	// Live splice: ship one more record down the cascade; it must arrive
	// on the already-open relay-backed feed.
	if _, _, err := h.Primary.ObserveReading(interval.Time(30), "a", centers[0]); err != nil {
		t.Fatal(err)
	}
	h.CatchUp()
	casc.CatchUp()
	for {
		ev, err := sub.Next(done)
		if err != nil {
			t.Fatalf("live event after cascade: %v", err)
		}
		if ev.Kind == stream.KindAlert {
			continue
		}
		if ev.Seq != total {
			t.Fatalf("live event seq %d, want %d", ev.Seq, total)
		}
		break
	}
}

// TestCascadeRelaySelfHealAfterRebootstrap forces the mid-tier follower
// through an in-place re-bootstrap (the primary compacted past it) and
// checks the relay restarts empty at the new position: a leaf that
// resumes against the reset relay sees the truncation as a gap,
// re-bootstraps FROM THE FOLLOWER, and converges — the tier-by-tier
// self-heal.
func TestCascadeRelaySelfHealAfterRebootstrap(t *testing.T) {
	g, bounds, centers := GridSite(t, 3)
	h := New(t, g, bounds)
	casc := h.EnableCascade()

	if err := h.Primary.PutSubject(profile.Subject{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, _, err := h.Primary.ObserveReading(
			interval.Time(2+i), "a", centers[i%len(centers)]); err != nil {
			t.Fatal(err)
		}
	}
	h.CatchUp()
	casc.CatchUp()

	// More primary history, then compact it into a snapshot while the
	// follower is held back — the follower's next resume is a gap.
	for i := 0; i < 4; i++ {
		if _, _, err := h.Primary.ObserveReading(
			interval.Time(10+i), "a", centers[i%len(centers)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Primary.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := h.Replica.Rebootstrap(); err != nil {
		t.Fatal(err)
	}
	lg, err := casc.Up.ServedLog()
	if err != nil {
		t.Fatal(err)
	}
	base, totalRelay, err := lg.Window()
	if err != nil || base != h.Replica.AppliedSeq() || totalRelay != base {
		t.Fatalf("relay after re-bootstrap: base %d total %d (%v), want empty at %d",
			base, totalRelay, err, h.Replica.AppliedSeq())
	}

	// The leaf (behind the reset relay) cannot resume — its position is
	// below the relay's new base. Re-bootstrap it from the follower via
	// the same source a real leaf uses, then verify equivalence.
	if casc.Leaf.AppliedSeq() >= base {
		t.Fatalf("leaf at %d should be behind the reset relay base %d", casc.Leaf.AppliedSeq(), base)
	}
	if err := casc.Leaf.Rebootstrap(); err != nil {
		t.Fatal(err)
	}
	casc.RestartReader()
	casc.CatchUp()
	casc.AssertEquivalent(h.Primary, []profile.SubjectID{"a"}, h.Primary.Flat().Nodes, interval.Time(20))
}

// TestRelaySourceRunLoop runs the leaf through the REAL background Run
// loop over a LogSource on the mid-tier follower's relay (not the
// synchronous pump): records applied on the mid-tier follower must flow
// to the leaf without the leaf ever contacting the primary.
func TestRelaySourceRunLoop(t *testing.T) {
	g, bounds, centers := GridSite(t, 3)
	h := New(t, g, bounds)
	casc := h.EnableCascade()

	if err := h.Primary.PutSubject(profile.Subject{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	leaf, err := core.NewReplica(&core.LogSource{Node: h.Replica})
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() {
		runDone <- leaf.Run(ctx, core.RunConfig{RetryMin: time.Millisecond, RetryMax: 5 * time.Millisecond})
	}()

	for i := 0; i < 10; i++ {
		if _, _, err := h.Primary.ObserveReading(
			interval.Time(2+i), "a", centers[i%len(centers)]); err != nil {
			t.Fatal(err)
		}
	}
	h.CatchUp()
	target := h.Replica.AppliedSeq()
	deadline := time.Now().Add(10 * time.Second)
	for leaf.AppliedSeq() < target {
		if time.Now().After(deadline) {
			t.Fatalf("leaf run loop stuck at %d of %d", leaf.AppliedSeq(), target)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("leaf run loop: %v", err)
	}
	_ = casc // the synchronous cascade leaf stays idle; this test drives its own
}
