package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/authz"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/profile"
	"repro/internal/storage"
)

// TestPoisonGateAfterSyncFault injects an fsync failure under a durable
// System and checks the degraded-primary contract end to end: the first
// mutation whose barrier covered the failed sync reports the underlying
// fault, every LATER mutation is refused with ErrWALPoisoned before
// touching the engines, reads keep serving the pre-fault state, and a
// reopen on a healthy disk recovers exactly the acked prefix.
func TestPoisonGateAfterSyncFault(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{
		Graph:   graph.NTUCampus(),
		DataDir: dir,
		WALWrap: func(f storage.File) storage.File {
			return fault.NewFile(f, fault.Rule{Op: fault.OpSync, Nth: 3, Err: fault.ErrIO})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sub := func(i int) profile.SubjectID { return profile.SubjectID(fmt.Sprintf("u%02d", i)) }
	var acked int
	var firstErr error
	for i := 0; i < 20; i++ {
		if err := s.PutSubject(profile.Subject{ID: sub(i)}); err != nil {
			firstErr = err
			break
		}
		acked++
	}
	if firstErr == nil {
		t.Fatal("sync fault never surfaced through a mutation")
	}
	if !errors.Is(firstErr, fault.ErrIO) && !errors.Is(firstErr, storage.ErrWALPoisoned) {
		t.Fatalf("first failure = %v, want the injected EIO (or the poison latch)", firstErr)
	}

	if !s.Poisoned() {
		t.Fatal("System.Poisoned() = false after a failed fsync")
	}
	if s.CommitErr() == nil {
		t.Fatal("System.CommitErr() = nil after a failed fsync")
	}
	// Every mutator is gated from here on — and refused up front, with
	// the sentinel the server layer maps to 503.
	if err := s.PutSubject(profile.Subject{ID: "late"}); !errors.Is(err, storage.ErrWALPoisoned) {
		t.Fatalf("PutSubject on poisoned system = %v, want ErrWALPoisoned", err)
	}
	if _, err := s.AddAuthorization(authz.New(iv("[1, 10]"), iv("[1, 20]"), "x", graph.CAIS, 1)); !errors.Is(err, storage.ErrWALPoisoned) {
		t.Fatalf("AddAuthorization on poisoned system = %v, want ErrWALPoisoned", err)
	}
	if _, err := s.Tick(100); !errors.Is(err, storage.ErrWALPoisoned) {
		t.Fatalf("Tick on poisoned system = %v, want ErrWALPoisoned", err)
	}
	// Reads still serve: the in-memory state is intact, only durability
	// is gone.
	if got := len(s.Subjects()); got < acked {
		t.Fatalf("reads degraded too: %d subjects visible, want >= %d", got, acked)
	}
	for i := 0; i < acked; i++ {
		if _, err := s.GetSubject(sub(i)); err != nil {
			t.Fatalf("read of acked subject %s failed: %v", sub(i), err)
		}
	}

	// Crash-and-recover on a healthy disk: the acked prefix survives.
	_ = s.Close()
	s2, err := Open(Config{Graph: graph.NTUCampus(), DataDir: dir})
	if err != nil {
		t.Fatalf("reopen after poison: %v", err)
	}
	defer s2.Close()
	for i := 0; i < acked; i++ {
		if _, err := s2.GetSubject(sub(i)); err != nil {
			t.Fatalf("acked subject %s lost across recovery: %v", sub(i), err)
		}
	}
	if s2.Poisoned() {
		t.Fatal("recovered system still poisoned: the latch must not persist")
	}
	if err := s2.PutSubject(profile.Subject{ID: "post-recovery"}); err != nil {
		t.Fatalf("mutation after recovery: %v", err)
	}
}

// TestOversizedMutationRefused: a mutation whose WAL record would not
// fit a frame is refused before it applies. The JSON encoder escapes each
// '<' to six bytes, so 3 MiB of them make an 18 MiB record. The refusal
// is storage.ErrTooLarge; no reader sees the change, no log holds it,
// the committer is not poisoned, and the next mutation commits.
func TestOversizedMutationRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Graph: graph.NTUCampus(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	huge := strings.Repeat("<", 3<<20)
	if err := s.PutSubject(profile.Subject{ID: "u", Groups: []string{huge}}); !errors.Is(err, storage.ErrTooLarge) {
		t.Fatalf("PutSubject of an oversized profile = %v, want ErrTooLarge", err)
	}
	if _, err := s.GetSubject("u"); err == nil {
		t.Fatal("the refused profile is visible")
	}
	if _, err := s.AddAuthorization(authz.New(iv("[1, 10]"), iv("[1, 20]"), profile.SubjectID(huge), graph.CAIS, 1)); !errors.Is(err, storage.ErrTooLarge) {
		t.Fatalf("AddAuthorization of an oversized grant = %v, want ErrTooLarge", err)
	}
	if n := len(s.Authorizations()); n != 0 {
		t.Fatalf("%d authorizations visible after the refused grant", n)
	}
	if s.Poisoned() {
		t.Fatalf("refusing a record poisoned the committer: %v", s.CommitErr())
	}
	if err := s.PutSubject(profile.Subject{ID: "v"}); err != nil {
		t.Fatalf("the next mutation: %v", err)
	}
	if got := s.ReplicationInfo().TotalSeq; got != 1 {
		t.Fatalf("the log holds %d records, want the one accepted mutation", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Graph: graph.NTUCampus(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.GetSubject("u"); err == nil {
		t.Fatal("the refused profile was recovered")
	}
	if _, err := s2.GetSubject("v"); err != nil {
		t.Fatalf("the accepted profile was not recovered: %v", err)
	}
}
