package stream

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/replicatest"
)

// TestSubscriberReplayReconstructsPrimary is the feed's equivalence
// bar: an unfiltered subscriber that replays every event's Record from
// sequence 0 through core.Replica.ApplyRecord reconstructs a System
// whose query answers byte-match a fresh primary-side recomputation.
// Seeded and randomized: grants, revocations, batched movements, ticks
// and profile churn all ride the feed.
func TestSubscriberReplayReconstructsPrimary(t *testing.T) {
	const seed = 443
	rng := rand.New(rand.NewSource(seed))

	g, bounds, centers := replicatest.GridSite(t, 3)
	sys, err := core.Open(core.Config{Graph: g, Boundaries: bounds, DataDir: t.TempDir(), AutoDerive: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	rooms := sys.Flat().Nodes

	// The follower bootstraps at sequence 0, BEFORE any history exists:
	// its entire state will come off the event feed.
	rep, err := core.NewReplica(&core.LogSource{Node: sys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	if rep.AppliedSeq() != 0 {
		t.Fatalf("follower bootstrapped at seq %d, want 0", rep.AppliedSeq())
	}

	// Randomized history on the primary.
	subs := make([]profile.SubjectID, 6)
	for i := range subs {
		subs[i] = profile.SubjectID(fmt.Sprintf("u%d", i))
		if err := sys.PutSubject(profile.Subject{ID: subs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	var granted []authz.ID
	clock := interval.Time(2)
	for i := 0; i < 200; i++ {
		switch op := rng.Intn(10); {
		case op < 4: // grant
			sub := subs[rng.Intn(len(subs))]
			room := rooms[rng.Intn(len(rooms))]
			start := interval.Time(1 + rng.Intn(5))
			entryLen := interval.Time(20 + rng.Intn(200))
			a, err := sys.AddAuthorization(authz.New(
				interval.New(start, start+entryLen),
				interval.New(start, start+entryLen+interval.Time(rng.Intn(100))),
				sub, room, int64(1+rng.Intn(8))))
			if err != nil {
				t.Fatal(err)
			}
			granted = append(granted, a.ID)
		case op < 5 && len(granted) > 0: // revoke
			j := rng.Intn(len(granted))
			if _, err := sys.RevokeAuthorization(granted[j]); err != nil {
				t.Fatal(err)
			}
			granted = append(granted[:j], granted[j+1:]...)
		case op < 8: // batched movements
			n := 1 + rng.Intn(4)
			readings := make([]core.Reading, 0, n)
			for j := 0; j < n; j++ {
				readings = append(readings, core.Reading{
					Time:    clock,
					Subject: subs[rng.Intn(len(subs))],
					At:      centers[rng.Intn(len(centers))],
				})
			}
			clock++
			outcomes, err := sys.ObserveBatch(readings)
			if err != nil {
				t.Fatal(err)
			}
			_ = outcomes // per-reading errors (regressions) are part of the history
		case op < 9: // tick
			clock += interval.Time(rng.Intn(3))
			if _, err := sys.Tick(clock); err != nil {
				t.Fatal(err)
			}
			clock++
		default: // profile churn
			id := profile.SubjectID(fmt.Sprintf("guest%d", i))
			if err := sys.PutSubject(profile.Subject{ID: id}); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := sys.ReplicationInfo().TotalSeq

	// Subscribe from 0 and replay every record event into the follower.
	b := newTestBus(t, sys)
	sub, err := b.Subscribe(SubscribeOptions{From: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	done := make(chan struct{})
	go func() { time.Sleep(30 * time.Second); close(done) }()
	for rep.AppliedSeq() < total {
		ev, err := sub.Next(done)
		if err != nil {
			t.Fatalf("feed: %v at applied seq %d of %d", err, rep.AppliedSeq(), total)
		}
		if ev.Kind == KindAlert {
			continue // observations, not state transitions
		}
		if ev.Record == nil {
			t.Fatalf("record event without payload: %+v", ev)
		}
		if ev.Seq != rep.AppliedSeq() {
			t.Fatalf("event seq %d, follower expects %d", ev.Seq, rep.AppliedSeq())
		}
		if err := rep.ApplyRecord(*ev.Record); err != nil {
			t.Fatalf("apply seq %d (%s): %v", ev.Seq, ev.Record.Type, err)
		}
	}

	// The reconstruction serves byte-identical answers to a fresh
	// primary-side recomputation, over the full query battery.
	probe := append([]profile.SubjectID{}, subs...)
	probe = append(probe, "guest3", "nobody")
	want := replicatest.FreshAnswers(sys, probe, rooms, clock)
	got := replicatest.CachedAnswers(rep.System(), probe, rooms, clock)
	if string(got) != string(want) {
		t.Fatalf("replayed follower diverged at seq %d:\nfollower: %s\nprimary:  %s", total, got, want)
	}
}
