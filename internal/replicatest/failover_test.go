package replicatest

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/profile"
)

// TestPromoteAtEveryRecordBoundary kills the primary at EVERY record
// boundary of a scripted history — modeled as a follower that has
// applied exactly the first k records when the failover fires — and
// promotes that follower. At each fence the new primary must hold
// exactly the applied prefix (base = total = k), answer byte-for-byte
// like an independent follower positioned at the same prefix, accept
// new writes under term 2, and survive a restart from its new lineage.
func TestPromoteAtEveryRecordBoundary(t *testing.T) {
	g, bounds, centers := GridSite(t, 3)
	h := New(t, g, bounds)

	// Genesis BEFORE the history, so every promoted follower replays the
	// scripted records from sequence 0.
	seq0, state := CaptureState(t, h.Primary)
	genesis := &genesisSource{seq: seq0, state: state}

	subs := []profile.SubjectID{"a", "b"}
	rooms := h.Primary.Flat().Nodes
	for _, sub := range subs {
		if err := h.Primary.PutSubject(profile.Subject{ID: sub}); err != nil {
			t.Fatal(err)
		}
	}
	for i, room := range rooms {
		if _, err := h.Primary.AddAuthorization(authz.New(
			interval.New(1, 100), interval.New(1, 200), subs[i%2], room, authz.Unlimited)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := h.Primary.ObserveReading(2, "a", centers[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Primary.ObserveBatch([]core.Reading{
		{Time: 3, Subject: "b", At: centers[0]},
		{Time: 4, Subject: "b", At: centers[2]},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Primary.Tick(5); err != nil {
		t.Fatal(err)
	}

	info := h.Primary.ReplicationInfo()
	total := info.TotalSeq - seq0
	if total < 8 {
		t.Fatalf("script produced only %d records", total)
	}

	// followerAt builds a follower whose applied prefix is exactly the
	// first `fence` records — the survivor of a primary that died at
	// that boundary. (Queries advance the enforcement clock, so the
	// reference and the candidate are each built fresh per fence rather
	// than advanced incrementally and queried along the way.)
	followerAt := func(fence uint64) *core.Replica {
		t.Helper()
		rep, err := core.NewReplica(genesis)
		if err != nil {
			t.Fatal(err)
		}
		applyFrom(t, h.Primary, rep, seq0+fence)
		return rep
	}

	for fence := uint64(0); fence <= total; fence++ {
		// Ground truth: an independent follower positioned at the same
		// prefix, never promoted.
		ref := followerAt(fence)
		want := CachedAnswers(ref.System(), subs, rooms, 6)
		ref.Close()

		rep := followerAt(fence)

		dir := t.TempDir()
		term, err := rep.Promote(dir)
		if err != nil {
			t.Fatalf("fence %d: promote: %v", fence, err)
		}
		if term != 2 {
			t.Fatalf("fence %d: term = %d, want 2", fence, term)
		}
		pinfo := rep.System().ReplicationInfo()
		if !pinfo.Durable || pinfo.Term != 2 || pinfo.BaseSeq != seq0+fence || pinfo.TotalSeq != seq0+fence {
			t.Fatalf("fence %d: promoted info = %+v, want durable term 2 base=total=%d",
				fence, pinfo, seq0+fence)
		}
		// The acked prefix — and ONLY it — survived the failover.
		got := CachedAnswers(rep.System(), subs, rooms, 6)
		if !bytes.Equal(got, want) {
			t.Fatalf("fence %d: promoted primary diverged from the applied prefix:\npromoted: %s\nwant:     %s",
				fence, got, want)
		}
		// The new primary extends the history (the read-only gate is
		// gone), and the extension is durable in the new lineage.
		if err := rep.System().PutSubject(profile.Subject{ID: "post-failover"}); err != nil {
			t.Fatalf("fence %d: write on new primary: %v", fence, err)
		}
		after := CachedAnswers(rep.System(), subs, rooms, 6)
		if err := rep.Close(); err != nil {
			t.Fatalf("fence %d: close: %v", fence, err)
		}
		re, err := core.Open(core.Config{DataDir: dir, AutoDerive: true})
		if err != nil {
			t.Fatalf("fence %d: reopen lineage: %v", fence, err)
		}
		if re.Term() != 2 {
			t.Fatalf("fence %d: reopened term = %d, want 2", fence, re.Term())
		}
		if got := CachedAnswers(re, subs, rooms, 6); !bytes.Equal(got, after) {
			t.Fatalf("fence %d: restart of the new lineage diverged:\nreopened: %s\nwant:     %s",
				fence, got, after)
		}
		re.Close()
	}
}

// TestPromotedPrimaryServesFollowers: after a failover the promoted
// node is a first-class primary — a fresh follower bootstraps from it,
// tails its new WAL under term 2, and byte-matches a fresh
// recomputation over the promoted node's own state.
func TestPromotedPrimaryServesFollowers(t *testing.T) {
	g, bounds, centers := GridSite(t, 3)
	h := New(t, g, bounds)
	subs := []profile.SubjectID{"a", "b"}
	rooms := h.Primary.Flat().Nodes
	for _, sub := range subs {
		if err := h.Primary.PutSubject(profile.Subject{ID: sub}); err != nil {
			t.Fatal(err)
		}
	}
	for i, room := range rooms {
		if _, err := h.Primary.AddAuthorization(authz.New(
			interval.New(1, 80), interval.New(1, 120), subs[i%2], room, authz.Unlimited)); err != nil {
			t.Fatal(err)
		}
	}
	h.CatchUp()

	term, err := h.Replica.Promote(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if term != 2 {
		t.Fatalf("term = %d, want 2", term)
	}
	promoted := h.Replica.System()

	// The old primary learns it was superseded and fences itself: the
	// split brain is structurally impossible from here on.
	if !h.Primary.Fence(term) {
		t.Fatal("old primary did not fence")
	}
	if err := h.Primary.PutSubject(profile.Subject{ID: "zombie"}); err == nil {
		t.Fatal("fenced old primary still accepts writes")
	}

	// New traffic lands on the new primary only — including RAW readings:
	// the geometry front-end rode the bootstrap state across promotion.
	if _, _, err := promoted.ObserveReading(2, "a", centers[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := promoted.Enter(3, "b", rooms[1]); err != nil {
		t.Fatal(err)
	}

	// A fresh follower of the NEW primary follows its new lineage live.
	rep2, err := core.NewReplica(&core.LogSource{Node: promoted})
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() {
		runDone <- rep2.Run(ctx, core.RunConfig{RetryMin: time.Millisecond, RetryMax: 5 * time.Millisecond})
	}()
	if _, err := promoted.Enter(4, "a", rooms[2]); err != nil {
		t.Fatal(err)
	}
	target := promoted.ReplicationInfo().TotalSeq
	deadline := time.Now().Add(10 * time.Second)
	for rep2.AppliedSeq() < target {
		if time.Now().After(deadline) {
			t.Fatalf("follower of promoted primary stalled at %d of %d", rep2.AppliedSeq(), target)
		}
		time.Sleep(time.Millisecond)
	}
	if rep2.Term() != 2 {
		t.Fatalf("follower term = %d, want 2", rep2.Term())
	}

	// The full battery: cached answers on the promoted primary match a
	// fresh recomputation, and the second-generation follower matches
	// both byte for byte.
	want := FreshAnswers(promoted, subs, rooms, 5)
	if got := CachedAnswers(promoted, subs, rooms, 5); !bytes.Equal(got, want) {
		t.Fatalf("promoted primary's cached answers diverged from fresh:\ncached: %s\nfresh:  %s", got, want)
	}
	if got := CachedAnswers(rep2.System(), subs, rooms, 5); !bytes.Equal(got, want) {
		t.Fatalf("second-generation follower diverged:\nfollower: %s\nprimary:  %s", got, want)
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run returned %v", err)
	}
}
