package core

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/storage"
)

// healSite boots a durable primary with boundaries and one authorized
// subject, and a follower bootstrapped from it.
func healSite(t *testing.T) (*System, *Replica, *LogSource) {
	t.Helper()
	sys, _, rooms, _ := stressReplicaSite(t, 2)
	_ = rooms
	src := &LogSource{Node: sys}
	rep, err := NewReplica(src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	return sys, rep, src
}

// compactPast moves the primary's compaction base beyond the follower's
// applied position: mutate, snapshot, mutate again.
func compactPast(t *testing.T, sys *System, rep *Replica, round int) {
	t.Helper()
	id := profile.SubjectID(string(rune('A' + round)))
	if err := sys.PutSubject(profile.Subject{ID: "healer-" + id}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := sys.PutSubject(profile.Subject{ID: "post-heal-" + id}); err != nil {
		t.Fatal(err)
	}
	if base := sys.ReplicationInfo().BaseSeq; rep.AppliedSeq() >= base {
		t.Fatalf("setup: follower at %d not behind base %d", rep.AppliedSeq(), base)
	}
}

// TestReplicaRebootstrapInPlace: the deterministic core of self-heal —
// a follower behind the compaction horizon reloads the primary's state
// wholesale into the SAME System, jumps its applied sequence, and
// serves the primary's answers again.
func TestReplicaRebootstrapInPlace(t *testing.T) {
	sys, rep, _ := healSite(t)
	followerSys := rep.System()
	compactPast(t, sys, rep, 0)

	if err := rep.Rebootstrap(); err != nil {
		t.Fatalf("rebootstrap: %v", err)
	}
	if rep.System() != followerSys {
		t.Fatal("rebootstrap replaced the System instead of healing in place")
	}
	if got, want := rep.AppliedSeq(), sys.ReplicationInfo().TotalSeq; got != want {
		t.Fatalf("applied seq %d after heal, primary at %d", got, want)
	}
	if got := rep.Status(nil).Bootstraps; got != 2 {
		t.Fatalf("bootstraps = %d, want 2", got)
	}
	// The healed follower serves the primary's post-compaction state.
	if _, err := rep.System().GetSubject("post-heal-A"); err != nil {
		t.Fatalf("healed follower missing post-compaction subject: %v", err)
	}
	gotSubs, wantSubs := rep.System().Subjects(), sys.Subjects()
	if len(gotSubs) != len(wantSubs) {
		t.Fatalf("subjects after heal: %v vs primary %v", gotSubs, wantSubs)
	}
	// And it keeps following: new primary records apply on top.
	a, err := sys.AddAuthorization(authz.New(interval.New(1, 50), interval.New(1, 60), "healer-A", sys.Flat().Nodes[0], authz.Unlimited))
	if err != nil {
		t.Fatal(err)
	}
	tailFollower(t, sys, rep)
	if got := rep.System().AuthorizationsFor("healer-A", a.Location); len(got) != 1 {
		t.Fatalf("post-heal record did not apply: %v", got)
	}
	// Mutators stay fenced throughout.
	if _, err := rep.System().AddAuthorization(a); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("mutator after heal: %v, want ErrReadOnly", err)
	}
}

// tailFollower pumps the primary's WAL into the follower from its
// applied position until it is caught up (synchronous, like the
// replicatest harness).
func tailFollower(t *testing.T, sys *System, rep *Replica) {
	t.Helper()
	src := &LogSource{Node: sys}
	target := sys.ReplicationInfo().TotalSeq
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := src.Tail(ctx, rep.AppliedSeq(), func(rec storage.Record) error {
		if aerr := rep.ApplyRecord(rec); aerr != nil {
			return aerr
		}
		if rep.AppliedSeq() >= target {
			cancel()
		}
		return nil
	})
	if err != nil && !errors.Is(err, context.Canceled) && rep.AppliedSeq() < target {
		t.Fatalf("tail: %v (applied %d of %d)", err, rep.AppliedSeq(), target)
	}
}

// gateSource simulates a network partition: while the gate is closed,
// new Tail calls park (the follower cannot pull); Bootstrap and
// PrimarySeq keep working, like a control plane that outlives the
// stream.
type gateSource struct {
	inner *LogSource
	mu    sync.Mutex
	gate  chan struct{} // non-nil while partitioned; closed to reopen
}

func (g *gateSource) Bootstrap() (io.ReadCloser, error)              { return g.inner.Bootstrap() }
func (g *gateSource) PrimarySeq(ctx context.Context) (uint64, error) { return g.inner.PrimarySeq(ctx) }
func (g *gateSource) SourceTerm() uint64                             { return g.inner.SourceTerm() }
func (g *gateSource) Tail(ctx context.Context, from uint64, apply func(storage.Record) error) error {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return g.inner.Tail(ctx, from, apply)
}

func (g *gateSource) partition() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gate == nil {
		g.gate = make(chan struct{})
	}
}

func (g *gateSource) reconnect() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
}

// TestReplicaRunSelfHeals: the full loop — the follower is partitioned
// while the primary compacts past its position; on reconnect, Run
// re-bootstraps in place and keeps following instead of exiting. Twice
// in a row.
func TestReplicaRunSelfHeals(t *testing.T) {
	sys, _, _, _ := stressReplicaSite(t, 2)
	src := &gateSource{inner: &LogSource{Node: sys}}
	rep, err := NewReplica(src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() {
		runErr <- rep.Run(ctx, RunConfig{RetryMin: time.Millisecond, RetryMax: 5 * time.Millisecond, Refresh: 5 * time.Millisecond})
	}()

	await := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				st := rep.Status(nil)
				t.Fatalf("timed out waiting for %s (status %+v)", what, st)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	for round := 0; round < 2; round++ {
		id := profile.SubjectID(string(rune('A' + round)))
		// Partition, then compact: any live stream dies at the first
		// snapshot, reconnects park at the gate, and the second mutation +
		// compaction move the base past everything the follower has. A
		// stream that slipped through right at the partition instant just
		// means another attempt (the gate keeps later ones out).
		src.partition()
		for attempt := 0; ; attempt++ {
			if err := sys.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := sys.PutSubject(profile.Subject{ID: "healer-" + id}); err != nil {
				t.Fatal(err)
			}
			if err := sys.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := sys.PutSubject(profile.Subject{ID: "post-heal-" + id}); err != nil {
				t.Fatal(err)
			}
			if rep.AppliedSeq() < sys.ReplicationInfo().BaseSeq {
				break
			}
			if attempt > 5 {
				t.Fatalf("round %d: could not put the follower behind the base (applied %d, base %d)",
					round, rep.AppliedSeq(), sys.ReplicationInfo().BaseSeq)
			}
		}
		src.reconnect()

		wantBoots := uint64(2 + round)
		await(func() bool { return rep.Status(nil).Bootstraps >= wantBoots }, "self-heal re-bootstrap")
		await(func() bool { return rep.AppliedSeq() >= sys.ReplicationInfo().TotalSeq }, "post-heal catch-up")
	}
	if _, err := rep.System().GetSubject("post-heal-B"); err != nil {
		t.Fatalf("healed follower missing second round's subject: %v", err)
	}

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("Run after heals: %v", err)
	}

	// With self-heal disabled the same situation is terminal again.
	rep2, err := NewReplica(&LogSource{Node: sys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep2.Close() })
	compactPast(t, sys, rep2, 2)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := rep2.Run(ctx2, RunConfig{RetryMin: time.Millisecond, DisableSelfHeal: true}); !errors.Is(err, ErrBootstrapRequired) {
		t.Fatalf("Run with DisableSelfHeal = %v, want ErrBootstrapRequired", err)
	}
}

// swapSource lets a test point an existing follower at a different
// primary mid-flight.
type swapSource struct{ ReplicaSource }

// TestRebootstrapMismatchedSite: a re-bootstrap that comes from a
// different site graph must be refused — applying it in place would
// splice two unrelated histories.
func TestRebootstrapMismatchedSite(t *testing.T) {
	sysA, _, _, _ := stressReplicaSite(t, 2)
	sysB, _, _, _ := stressReplicaSite(t, 3) // different grid
	src := &swapSource{&LogSource{Node: sysA}}
	rep, err := NewReplica(src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })

	src.ReplicaSource = &LogSource{Node: sysB}
	if err := rep.Rebootstrap(); !errors.Is(err, ErrBootstrapMismatch) {
		t.Fatalf("rebootstrap from a different site = %v, want ErrBootstrapMismatch", err)
	}
	// The follower still serves its original site.
	if got, want := len(rep.System().Flat().Nodes), len(sysA.Flat().Nodes); got != want {
		t.Fatalf("follower site changed: %d nodes, want %d", got, want)
	}
}
