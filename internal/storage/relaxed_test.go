package storage

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRelaxedAcksBeforeFsync: with AckOnEnqueue every Commit barrier is
// released without waiting for the committer goroutine's fsync, and a
// Flush afterwards makes everything durable (the sentinel stays a real
// barrier).
func TestRelaxedAcksBeforeFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c := NewCommitter(w, CommitterConfig{AckOnEnqueue: true})
	defer c.Close()

	const records = 100
	for i := 0; i < records; i++ {
		if err := <-c.Commit(rec(t, "r", i)); err != nil {
			t.Fatalf("record %d: relaxed ack returned %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	n, err := Replay(path, func(Record) error { return nil })
	if err != nil || n != records {
		t.Fatalf("after flush: replayed %d records, err %v; want %d", n, err, records)
	}
	st := c.Stats()
	if !st.Relaxed || st.Records != records || st.SyncFailures != 0 {
		t.Errorf("stats = %+v", st)
	}
	if c.Err() != nil {
		t.Errorf("background error: %v", c.Err())
	}
}

// TestRelaxedCrashKeepsPrefix is the bounded-data-loss contract: records
// acknowledged at enqueue reach the WAL in enqueue order, so however much
// of the log survives a crash — simulated by truncating the file at every
// possible byte — recovery always yields a contiguous prefix of the
// acknowledged sequence. The loss window is a suffix, never a hole.
func TestRelaxedCrashKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full")
	w, err := OpenWAL(full)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(w, CommitterConfig{AckOnEnqueue: true})
	const records = 24
	for i := 0; i < records; i++ {
		if err := <-c.Commit(rec(t, "r", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, "cut")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got []int
		_, err := Replay(path, func(r Record) error {
			var v int
			if err := json.Unmarshal(r.Data, &v); err != nil {
				return err
			}
			got = append(got, v)
			return nil
		})
		if err != nil {
			t.Fatalf("cut=%d: replay error: %v", cut, err)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("cut=%d: record %d = %d — survivors are not a prefix", cut, i, v)
			}
		}
	}
}

// TestRelaxedSurfacesBackgroundFailure: when a background write fails,
// the already-released acks can't report it — but the first failure is
// latched, later (acked) batches are dropped rather than written after
// the hole, and Flush, Close, Err and SyncFailures all surface it.
func TestRelaxedSurfacesBackgroundFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(w, CommitterConfig{AckOnEnqueue: true})
	// Sabotage: close the WAL out from under the committer so every
	// subsequent Append fails.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-c.Commit(rec(t, "r", 1)); err != nil {
		t.Fatalf("relaxed ack must succeed even when the write will fail: %v", err)
	}
	if err := c.Flush(); err == nil {
		t.Error("flush must surface the background write failure")
	}
	if err := <-c.Commit(rec(t, "r", 2)); err != nil {
		t.Fatalf("ack after poisoning: %v", err)
	}
	if err := c.Close(); err == nil {
		t.Error("close must surface the latched failure")
	}
	if c.Err() == nil {
		t.Error("Err must report the latched failure")
	}
	if st := c.Stats(); st.SyncFailures == 0 || st.Batches != 0 {
		t.Errorf("stats = %+v: want sync failures and no successful batches", st)
	}
}

// TestRelaxedCloseSurfacesClosed: commits after Close still deliver
// ErrCommitterClosed through the immediately-released barrier.
func TestRelaxedCloseSurfacesClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c := NewCommitter(w, CommitterConfig{AckOnEnqueue: true})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-c.Commit(rec(t, "r", 1)); err != ErrCommitterClosed {
		t.Fatalf("commit after close = %v, want ErrCommitterClosed", err)
	}
}
