package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/profile"
	"repro/internal/storage"
)

// TestReplicaCloseClosesRelay: closing a cascading follower closes its
// relay log, so the file descriptor does not outlive the follower.
func TestReplicaCloseClosesRelay(t *testing.T) {
	sys, _, _, _ := stressReplicaSite(t, 2)
	defer sys.Close()
	rep, err := NewReplica(&LogSource{Node: sys})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.EnableRelay(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	relay := rep.relay
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := relay.Append(storage.Record{Type: "profile.put", Data: []byte("{}")}); err == nil {
		t.Fatal("append to the relay after Close succeeded")
	}
}

// TestRelayWriteFailureStopsServing: a cascading follower's relay fails
// its third write through the file seam the WAL's fault matrix uses. The
// failure latches: the served window reports it, so the node stops
// serving downstream, while the follower keeps applying from upstream.
func TestRelayWriteFailureStopsServing(t *testing.T) {
	sys, _, _, _ := stressReplicaSite(t, 2)
	defer sys.Close()
	rep, err := NewReplica(&LogSource{Node: sys})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	dir := t.TempDir()
	if err := rep.EnableRelay(dir); err != nil {
		t.Fatal(err)
	}
	// Reopen the relay through the seam, failing its third write.
	rl, err := storage.OpenCache(filepath.Join(dir, "relay.log"), rep.AppliedSeq(), func(f storage.File) storage.File {
		return fault.NewFile(f, fault.Rule{Op: fault.OpWrite, Nth: 3, Err: fault.ErrIO, Short: 3})
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.applyMu.Lock()
	old := rep.relay
	rep.relay = rl
	rep.applyMu.Unlock()
	old.Close()
	lg, err := rep.ServedLog()
	if err != nil {
		t.Fatal(err)
	}
	base := rep.AppliedSeq()

	// The primary logs six profiles; the follower applies them from the
	// primary's served log.
	for i := 0; i < 6; i++ {
		if err := sys.PutSubject(profile.Subject{ID: profile.SubjectID(fmt.Sprint("late", i))}); err != nil {
			t.Fatal(err)
		}
	}
	up, err := sys.ServedLog()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := up.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	batch, err := rd.Read(nil, base+6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; len(batch) > 0; i++ {
		var body []byte
		body, batch = storage.NextFrame(batch)
		rec, err := storage.DecodeRecord(body)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.ApplyRecord(rec); err != nil {
			t.Fatalf("apply %d over a failed relay: %v", i, err)
		}
		if i == 1 {
			// Before the failure the relay serves the frames it holds.
			if b, total, err := lg.Window(); b != base || total != base+2 || err != nil {
				t.Fatalf("relay window = (%d, %d, %v), want (%d, %d, nil)", b, total, err, base, base+2)
			}
		}
	}

	if got := rep.AppliedSeq(); got != base+6 {
		t.Fatalf("applied seq %d, want %d", got, base+6)
	}
	if _, err := rep.System().GetSubject("late5"); err != nil {
		t.Fatalf("the follower stopped applying: %v", err)
	}
	if _, _, err := lg.Window(); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("relay window after the failure: %v, want the injected EIO", err)
	}
	if _, err := lg.Open(base); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("a downstream reader opened over a failed relay: %v", err)
	}
}
