package replicatest

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/rules"
)

// seed returns the reproduction seed: REPLICA_SEED overrides the fixed
// default, and every failure message names it.
func seed(t *testing.T) int64 {
	if v := os.Getenv("REPLICA_SEED"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("bad REPLICA_SEED %q: %v", v, err)
		}
		return s
	}
	return 20260730
}

// TestReplicaEquivalenceRandomized drives N randomized mutations
// (AddAuthorization / RevokeAuthorization / ObserveReading /
// ObserveBatch / PutSubject / Tick / ResolveConflicts) on the primary
// and checks, at EVERY applied sequence number:
//
//   - the replica's served answers equal a fresh recomputation over the
//     replica's own state (cached == fresh on the follower), and
//   - whenever the replica has applied exactly the primary's history,
//     its Request / InaccessibleDuring / Accessible / WhoCanAccess /
//     EarliestAccess / presence answers byte-match a fresh primary-side
//     recomputation.
//
// Run with -race this doubles as a publication check for the follower's
// view pipeline. Seeded and reproducible: set REPLICA_SEED to replay.
func TestReplicaEquivalenceRandomized(t *testing.T) {
	sd := seed(t)
	t.Logf("seed %d (override with REPLICA_SEED)", sd)
	rng := rand.New(rand.NewSource(sd))

	const side = 4
	g, bounds, centers := GridSite(t, side)
	h := New(t, g, bounds)

	subs := []profile.SubjectID{"u00", "u01", "u02", "u03"}
	for _, sub := range subs {
		if err := h.Primary.PutSubject(profile.Subject{ID: sub}); err != nil {
			t.Fatal(err)
		}
	}
	rooms := h.Primary.Flat().Nodes

	iters := 120
	if testing.Short() {
		iters = 40
	}
	now := interval.Time(2)
	var live []authz.ID
	randWindow := func() (interval.Interval, interval.Interval) {
		a := interval.Time(1 + rng.Intn(40))
		b := a + interval.Time(1+rng.Intn(80))
		return interval.New(a, b), interval.New(a, b+interval.Time(1+rng.Intn(40)))
	}

	for i := 0; i < iters; i++ {
		now += interval.Time(rng.Intn(2))
		switch op := rng.Intn(10); {
		case op < 4: // grant
			entry, exit := randWindow()
			max := int64(authz.Unlimited)
			if rng.Intn(4) == 0 {
				max = int64(1 + rng.Intn(3)) // exercise entry-count limits
			}
			a, err := h.Primary.AddAuthorization(authz.New(
				entry, exit, subs[rng.Intn(len(subs))], rooms[rng.Intn(len(rooms))], max))
			if err != nil {
				t.Fatalf("seed %d op %d: add: %v", sd, i, err)
			}
			live = append(live, a.ID)
		case op < 6 && len(live) > 0: // revoke
			k := rng.Intn(len(live))
			id := live[k]
			live = append(live[:k], live[k+1:]...)
			if _, err := h.Primary.RevokeAuthorization(id); err != nil {
				t.Fatalf("seed %d op %d: revoke %d: %v", sd, i, id, err)
			}
		case op < 7: // single positioning sample
			if _, _, err := h.Primary.ObserveReading(
				now, subs[rng.Intn(len(subs))], centers[rng.Intn(len(centers))]); err != nil {
				t.Fatalf("seed %d op %d: observe: %v", sd, i, err)
			}
		case op < 8: // positioning batch
			n := 1 + rng.Intn(4)
			readings := make([]core.Reading, n)
			for j := range readings {
				readings[j] = core.Reading{
					Time:    now,
					Subject: subs[rng.Intn(len(subs))],
					At:      centers[rng.Intn(len(centers))],
				}
			}
			if _, err := h.Primary.ObserveBatch(readings); err != nil {
				t.Fatalf("seed %d op %d: batch: %v", sd, i, err)
			}
		case op < 9: // profile churn (epoch bump + possible re-derivation)
			sub := subs[rng.Intn(len(subs))]
			if err := h.Primary.PutSubject(profile.Subject{
				ID: sub, Name: fmt.Sprintf("n%d", i), Supervisor: subs[rng.Intn(len(subs))],
			}); err != nil {
				t.Fatalf("seed %d op %d: put: %v", sd, i, err)
			}
		default: // clock tick (overstay monitor) or conflict resolution
			if rng.Intn(2) == 0 {
				if _, err := h.Primary.Tick(now); err != nil {
					t.Fatalf("seed %d op %d: tick: %v", sd, i, err)
				}
			} else {
				if _, err := h.Primary.ResolveConflicts(authz.Combine); err != nil {
					t.Fatalf("seed %d op %d: resolve: %v", sd, i, err)
				}
				// Combining rewrites authorization rows; refresh the live set.
				live = live[:0]
				for _, a := range h.Primary.Authorizations() {
					live = append(live, a.ID)
				}
			}
		}

		// Ship record by record: at every intermediate sequence the
		// follower's cached answers must equal a fresh recomputation over
		// its OWN state (the primary has already moved past these seqs).
		target := h.Primary.ReplicationInfo().TotalSeq
		for h.Replica.AppliedSeq() < target {
			if h.Pump(1) != 1 {
				t.Fatalf("seed %d op %d: stream dry at seq %d of %d", sd, i, h.Replica.AppliedSeq(), target)
			}
			repSys := h.Replica.System()
			got := CachedAnswers(repSys, subs, rooms, now)
			fresh := FreshAnswers(repSys, subs, rooms, now)
			if !bytes.Equal(got, fresh) {
				t.Fatalf("seed %d op %d seq %d: replica cached != replica fresh:\ncached: %s\nfresh: %s",
					sd, i, h.Replica.AppliedSeq(), got, fresh)
			}
		}
		// Histories now coincide: the follower must byte-match a fresh
		// primary-side recomputation.
		h.AssertEquivalent(subs, rooms, now)
	}

	if h.Replica.AppliedSeq() != h.Primary.ReplicationInfo().TotalSeq {
		t.Fatalf("seed %d: replica at %d, primary at %d", sd, h.Replica.AppliedSeq(), h.Primary.ReplicationInfo().TotalSeq)
	}
}

// TestReplicaRuleRederivationIDs: under AutoDerive, profile edits
// re-derive every rule on the primary and on each follower, and a rule
// whose output did not change is left in the store. Both sides decide
// from their store alone, so a follower streamed from genesis and one
// bootstrapped from a mid-run snapshot hold the primary's
// authorizations with the primary's IDs after every record, and pass
// the equivalence battery.
func TestReplicaRuleRederivationIDs(t *testing.T) {
	sd := seed(t)
	rng := rand.New(rand.NewSource(sd))
	g, bounds, _ := GridSite(t, 3)
	h := New(t, g, bounds)
	rooms := h.Primary.Flat().Nodes
	subs := []profile.SubjectID{"u00", "u01", "u02", "u03", "u04"}
	for _, sub := range subs {
		if err := h.Primary.PutSubject(profile.Subject{ID: sub, Supervisor: "u01", Groups: []string{"g"}}); err != nil {
			t.Fatal(err)
		}
	}
	var bases []authz.ID
	for _, room := range rooms[:2] {
		a, err := h.Primary.AddAuthorization(authz.New(interval.New(1, 1<<20), interval.New(1, 1<<21), "u00", room, authz.Unlimited))
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, a.ID)
	}
	for i, spec := range []rules.Spec{
		{Name: "sup", ValidFrom: 1, Base: bases[0], Subject: "Supervisor_Of"},
		{Name: "grp", ValidFrom: 1, Base: bases[1], Subject: "Members_Of(g)", Location: "all_in(grid)"},
	} {
		if _, err := h.Primary.AddRule(spec); err != nil {
			t.Fatalf("rule %d: %v", i, err)
		}
	}

	lg, err := h.Primary.ServedLog()
	if err != nil {
		t.Fatal(err)
	}
	followers := []*core.Replica{h.Replica}
	var late *logPump
	sameAuths := func(op int) {
		t.Helper()
		h.CatchUp()
		if late != nil {
			for late.apply(1<<20) > 0 {
			}
		}
		want := h.Primary.Authorizations()
		for i, f := range followers {
			if got := f.System().Authorizations(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d: follower %d authorizations\n%v\nprimary\n%v", sd, op, i, got, want)
			}
			if !bytes.Equal(CachedAnswers(f.System(), subs, rooms, 3), FreshAnswers(h.Primary, subs, rooms, 3)) {
				t.Fatalf("seed %d op %d: follower %d diverged from the primary", sd, op, i)
			}
		}
	}
	sameAuths(-1)
	before := h.Primary.AuthStore().Version()
	kept := 0
	for op := 0; op < 60; op++ {
		if op == 30 {
			f := h.NewFollower()
			followers = append(followers, f)
			late = newLogPump(t, "late", lg, f)
			late.restart()
		}
		sub := subs[rng.Intn(len(subs))]
		p := profile.Subject{ID: sub, Name: fmt.Sprintf("n%d", op), Supervisor: "u01", Groups: []string{"g"}}
		switch rng.Intn(4) {
		case 0: // move the supervisor
			p.Supervisor = subs[rng.Intn(len(subs))]
		case 1: // leave the group
			p.Groups = nil
		}
		if err := h.Primary.PutSubject(p); err != nil {
			t.Fatalf("seed %d op %d: %v", sd, op, err)
		}
		if v := h.Primary.AuthStore().Version(); v == before {
			kept++
		} else {
			before = v
		}
		sameAuths(op)
	}
	if kept == 0 {
		t.Errorf("seed %d: every one of 60 profile edits rewrote the store", sd)
	}
	t.Logf("seed %d: %d of 60 profile edits left the store as it was", sd, kept)
}

// TestReplicaMidStreamBootstrap starts a follower AFTER the primary has
// real history (the -replica-of mid-stream boot): the bootstrap state
// plus the tail must land it on exactly the primary's answers.
func TestReplicaMidStreamBootstrap(t *testing.T) {
	g, bounds, centers := GridSite(t, 3)
	h := New(t, g, bounds)
	subs := []profile.SubjectID{"a", "b"}
	rooms := h.Primary.Flat().Nodes
	for _, sub := range subs {
		if err := h.Primary.PutSubject(profile.Subject{ID: sub}); err != nil {
			t.Fatal(err)
		}
		for _, room := range rooms[:len(rooms)/2] {
			if _, err := h.Primary.AddAuthorization(authz.New(
				interval.New(1, 1<<20), interval.New(1, 1<<21), sub, room, authz.Unlimited)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := h.Primary.ObserveReading(2, "a", centers[0]); err != nil {
		t.Fatal(err)
	}

	// Boot a second follower mid-stream; it starts at the CURRENT seq.
	late := h.NewFollower()
	info := h.Primary.ReplicationInfo()
	if late.AppliedSeq() != info.TotalSeq {
		t.Fatalf("late follower bootstrapped at %d, primary at %d", late.AppliedSeq(), info.TotalSeq)
	}
	want := FreshAnswers(h.Primary, subs, rooms, 3)
	got := CachedAnswers(late.System(), subs, rooms, 3)
	if !bytes.Equal(got, want) {
		t.Fatalf("late follower diverged:\nreplica: %s\nprimary: %s", got, want)
	}

	// And more traffic still ships to the original follower.
	if _, err := h.Primary.AddAuthorization(authz.New(
		interval.New(1, 9), interval.New(1, 9), "b", rooms[len(rooms)-1], authz.Unlimited)); err != nil {
		t.Fatal(err)
	}
	h.CatchUp()
	h.AssertEquivalent(subs, rooms, 3)
}

// TestReplicaMutatorsReadOnly: every public mutation path on a follower
// System reports ErrReadOnly — the stream is the only way in.
func TestReplicaMutatorsReadOnly(t *testing.T) {
	g, bounds, centers := GridSite(t, 2)
	h := New(t, g, bounds)
	sys := h.Replica.System()

	if err := sys.PutSubject(profile.Subject{ID: "x"}); err != core.ErrReadOnly {
		t.Errorf("PutSubject: %v", err)
	}
	if err := sys.RemoveSubject("x"); err != core.ErrReadOnly {
		t.Errorf("RemoveSubject: %v", err)
	}
	if _, err := sys.AddAuthorization(authz.New(interval.New(1, 2), interval.New(1, 2), "x", h.Primary.Flat().Nodes[0], authz.Unlimited)); err != core.ErrReadOnly {
		t.Errorf("AddAuthorization: %v", err)
	}
	if _, err := sys.RevokeAuthorization(1); err != core.ErrReadOnly {
		t.Errorf("RevokeAuthorization: %v", err)
	}
	if _, err := sys.ResolveConflicts(authz.Combine); err != core.ErrReadOnly {
		t.Errorf("ResolveConflicts: %v", err)
	}
	if _, err := sys.AddRule(rules.Spec{Name: "r"}); err != core.ErrReadOnly {
		t.Errorf("AddRule: %v", err)
	}
	if err := sys.RemoveRule("nope"); err != core.ErrReadOnly {
		t.Errorf("RemoveRule: %v", err)
	}
	if _, err := sys.Enter(2, "x", h.Primary.Flat().Nodes[0]); err != core.ErrReadOnly {
		t.Errorf("Enter: %v", err)
	}
	if err := sys.Leave(2, "x"); err != core.ErrReadOnly {
		t.Errorf("Leave: %v", err)
	}
	if _, err := sys.Tick(2); err != core.ErrReadOnly {
		t.Errorf("Tick: %v", err)
	}
	if _, _, err := sys.ObserveReading(2, "x", centers[0]); err != core.ErrReadOnly {
		t.Errorf("ObserveReading: %v", err)
	}
	if _, err := sys.ObserveBatch([]core.Reading{{Time: 2, Subject: "x", At: centers[0]}}); err != core.ErrReadOnly {
		t.Errorf("ObserveBatch: %v", err)
	}
	if err := sys.Snapshot(); err != core.ErrReadOnly {
		t.Errorf("Snapshot: %v", err)
	}
}
