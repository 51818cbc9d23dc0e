package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/storage"
)

// tailRecords reads the next n records of the primary's WAL starting at
// the replica's applied position — the raw frames a stale or current
// stream would deliver.
func tailRecords(t *testing.T, sys *System, from uint64, n int) []storage.Record {
	t.Helper()
	lg, err := sys.ServedLog()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := lg.Open(from)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	recs := make([]storage.Record, 0, n)
	for len(recs) < n {
		batch, err := rd.Read(nil, from+uint64(n))
		if err != nil || len(batch) == 0 {
			t.Fatalf("tail record %d: %d bytes, %v", len(recs), len(batch), err)
		}
		for len(batch) > 0 {
			var body []byte
			body, batch = storage.NextFrame(batch)
			rec, err := storage.DecodeRecord(body)
			if err != nil {
				t.Fatalf("tail record %d: %v", len(recs), err)
			}
			recs = append(recs, rec)
		}
	}
	return recs
}

// TestFenceRejectsMutationsKeepsQueries: once a primary learns of a
// higher promotion term it must refuse every mutation with ErrFenced
// while its read surface keeps serving — fenced, not dead.
func TestFenceRejectsMutationsKeepsQueries(t *testing.T) {
	sys, subs, _, _ := stressReplicaSite(t, 2)
	defer sys.Close()

	if sys.Term() != 1 {
		t.Fatalf("fresh primary term = %d, want 1", sys.Term())
	}
	// Gossip at or below the current term is not a fence.
	if sys.Fence(1) || sys.Fenced() {
		t.Fatal("Fence(current term) latched")
	}
	if err := sys.PutSubject(profile.Subject{ID: "pre"}); err != nil {
		t.Fatalf("mutation before fencing: %v", err)
	}

	if !sys.Fence(2) || !sys.Fenced() || sys.FencedBy() != 2 {
		t.Fatalf("Fence(2) did not latch: fenced=%v by=%d", sys.Fenced(), sys.FencedBy())
	}
	err := sys.PutSubject(profile.Subject{ID: "post"})
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("mutation on fenced primary: %v, want ErrFenced", err)
	}
	// The fence does not rewrite this node's own term — it records who
	// outranked it.
	if sys.Term() != 1 {
		t.Fatalf("fenced primary term = %d, want 1", sys.Term())
	}
	// Queries still serve.
	if got := sys.Inaccessible(subs[0]); got == nil {
		t.Fatal("fenced primary stopped answering queries")
	}
}

// TestApplyTermRecordFencesStaleStream: a follower that has seen term N
// must reject frames from any stream at a lower term (a resurrected
// stale primary) WITHOUT latching a terminal error — the stream is
// refused, the follower stays healthy and keeps accepting the current
// primary's frames.
func TestApplyTermRecordFencesStaleStream(t *testing.T) {
	sys, _, _, _ := stressReplicaSite(t, 2)
	defer sys.Close()
	rep, err := NewReplica(&LogSource{Node: sys})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	for _, id := range []profile.SubjectID{"x1", "x2", "x3"} {
		if err := sys.PutSubject(profile.Subject{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	recs := tailRecords(t, sys, rep.AppliedSeq(), 3)

	if err := rep.ApplyTermRecord(2, recs[0]); err != nil {
		t.Fatalf("apply at term 2: %v", err)
	}
	if rep.Term() != 2 {
		t.Fatalf("replica term = %d, want 2", rep.Term())
	}
	applied := rep.AppliedSeq()
	if err := rep.ApplyTermRecord(1, recs[1]); !errors.Is(err, ErrStaleTerm) {
		t.Fatalf("apply from stale term: %v, want ErrStaleTerm", err)
	}
	if rep.AppliedSeq() != applied {
		t.Fatal("stale-term frame was applied")
	}
	if rep.Err() != nil {
		t.Fatalf("stale stream latched a terminal error: %v", rep.Err())
	}
	// Term 0 = a pre-term source (trusted), current and higher terms
	// keep flowing.
	if err := rep.ApplyTermRecord(0, recs[1]); err != nil {
		t.Fatalf("apply from pre-term source: %v", err)
	}
	if err := rep.ApplyTermRecord(3, recs[2]); err != nil {
		t.Fatalf("apply at term 3: %v", err)
	}
	if rep.Term() != 3 || rep.System().Term() != 3 {
		t.Fatalf("terms = replica %d, system %d, want 3", rep.Term(), rep.System().Term())
	}
}

// TestRebootstrapRefusesStaleTerm: self-heal must never load state from
// a primary whose term is below the highest the follower has seen —
// that would silently adopt a stale primary's history.
func TestRebootstrapRefusesStaleTerm(t *testing.T) {
	sys, _, _, _ := stressReplicaSite(t, 2)
	defer sys.Close()
	rep, err := NewReplica(&LogSource{Node: sys})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := sys.PutSubject(profile.Subject{ID: "x"}); err != nil {
		t.Fatal(err)
	}
	recs := tailRecords(t, sys, rep.AppliedSeq(), 1)
	if err := rep.ApplyTermRecord(3, recs[0]); err != nil {
		t.Fatal(err)
	}
	// The primary still captures its state under term 1 (< 3).
	if err := rep.Rebootstrap(); !errors.Is(err, ErrStaleTerm) {
		t.Fatalf("Rebootstrap from stale primary: %v, want ErrStaleTerm", err)
	}
}

// TestPromoteConvertsFollowerInPlace: Promote must stop the tail loop,
// establish term 2 with the applied prefix as the new base, lift the
// read-only gate, persist the lineage so a restart recovers it, and be
// idempotent.
func TestPromoteConvertsFollowerInPlace(t *testing.T) {
	sys, _, _, _ := stressReplicaSite(t, 2)
	defer sys.Close()
	rep, err := NewReplica(&LogSource{Node: sys})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() {
		runDone <- rep.Run(context.Background(), RunConfig{RetryMin: time.Millisecond, RetryMax: 5 * time.Millisecond})
	}()

	for _, id := range []profile.SubjectID{"m1", "m2"} {
		if err := sys.PutSubject(profile.Subject{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	target := sys.ReplicationInfo().TotalSeq
	deadline := time.Now().Add(10 * time.Second)
	for rep.AppliedSeq() < target {
		if time.Now().After(deadline) {
			t.Fatalf("follower stalled at %d of %d", rep.AppliedSeq(), target)
		}
		time.Sleep(time.Millisecond)
	}

	dir := t.TempDir()
	term, err := rep.Promote(dir)
	if err != nil {
		t.Fatal(err)
	}
	if term != 2 {
		t.Fatalf("promotion term = %d, want 2", term)
	}
	// The tail loop must have exited cleanly (promotion, not an error).
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run after promote: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not exit after promotion")
	}
	// Idempotent.
	if again, err := rep.Promote(dir); err != nil || again != 2 {
		t.Fatalf("second Promote = (%d, %v), want (2, nil)", again, err)
	}

	info := rep.System().ReplicationInfo()
	if !info.Durable || info.Term != 2 || info.BaseSeq != target || info.TotalSeq != target {
		t.Fatalf("promoted info = %+v, want durable term 2 base=total=%d", info, target)
	}
	// The gate is lifted: the promoted node extends the history.
	if err := rep.System().PutSubject(profile.Subject{ID: "after"}); err != nil {
		t.Fatalf("mutation on promoted node: %v", err)
	}
	if got := rep.System().ReplicationInfo().TotalSeq; got != target+1 {
		t.Fatalf("post-promotion total = %d, want %d", got, target+1)
	}

	// A second follower must refuse to reuse the same lineage directory.
	rep2, err := NewReplica(&LogSource{Node: sys})
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	if _, err := rep2.Promote(dir); err == nil {
		t.Fatal("Promote into an occupied data directory succeeded")
	}

	// Restart the promoted lineage from disk: same term, same history.
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("reopen promoted lineage: %v", err)
	}
	defer re.Close()
	if re.Term() != 2 {
		t.Fatalf("reopened term = %d, want 2", re.Term())
	}
	if got := re.ReplicationInfo().TotalSeq; got != target+1 {
		t.Fatalf("reopened total = %d, want %d", got, target+1)
	}
	if _, err := re.GetSubject("after"); err != nil {
		t.Fatalf("post-promotion record lost across restart: %v", err)
	}
}
