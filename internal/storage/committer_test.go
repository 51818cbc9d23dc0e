package storage

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// replayInts reads the log at path and returns the integer payloads in
// order.
func replayInts(t *testing.T, path string) []int {
	t.Helper()
	var got []int
	if _, err := Replay(path, func(r Record) error {
		var v int
		if err := json.Unmarshal(r.Data, &v); err != nil {
			return err
		}
		got = append(got, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestCommitterBarrier: every acked Commit is on disk, across many
// concurrent producers, and the committer genuinely batches (fewer
// fsync batches than records).
func TestCommitterBarrier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(w, nil)

	const producers, perProducer = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := <-c.Commit(rec(t, "r", p*perProducer+i)); err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got := replayInts(t, path)
	if len(got) != producers*perProducer {
		t.Fatalf("replayed %d records, want %d", len(got), producers*perProducer)
	}
	seen := make(map[int]bool, len(got))
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate record %d", v)
		}
		seen[v] = true
	}
	st := c.Stats()
	if st.Records != producers*perProducer {
		t.Errorf("stats.Records = %d, want %d", st.Records, producers*perProducer)
	}
	if st.Batches == 0 || st.Batches > st.Records {
		t.Errorf("implausible batch count %d for %d records", st.Batches, st.Records)
	}
	t.Logf("batches=%d records=%d (mean batch %.1f)", st.Batches, st.Records,
		float64(st.Records)/float64(st.Batches))
}

// TestCommitterOrder: a single serialised producer's records replay in
// enqueue order — the WAL-order-equals-apply-order invariant the System
// relies on — across several DefaultMaxBatch-bounded batches.
func TestCommitterOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCommitter(w, nil)

	const n = 3*DefaultMaxBatch + 100
	waits := make([]<-chan error, 0, n)
	for i := 0; i < n; i++ {
		waits = append(waits, c.Commit(rec(t, "r", i)))
	}
	for i, ch := range waits {
		if err := <-ch; err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	_ = c.Close()
	_ = w.Close()

	got := replayInts(t, path)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("record %d = %d: order not preserved", i, v)
		}
	}
	if st := c.Stats(); st.Batches < n/DefaultMaxBatch+1 {
		t.Errorf("%d records in %d batches: DefaultMaxBatch not enforced", st.Records, st.Batches)
	}
}

// TestCommitterMultiRecordGroups: one Commit call with N records is
// written contiguously and acked once.
func TestCommitterMultiRecordGroups(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _ := OpenWAL(path, 0, nil)
	c := NewCommitter(w, nil)

	var recs []Record
	for i := 0; i < 64; i++ {
		recs = append(recs, rec(t, "r", i))
	}
	if err := <-c.Commit(recs...); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	_ = w.Close()
	got := replayInts(t, path)
	for i, v := range got {
		if v != i {
			t.Fatalf("record %d = %d", i, v)
		}
	}
	if len(got) != 64 {
		t.Fatalf("replayed %d, want 64", len(got))
	}
}

// TestCommitterCloseDrainsAndRejects: Close commits everything already
// enqueued; Commit after Close fails fast with ErrCommitterClosed.
func TestCommitterCloseDrainsAndRejects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _ := OpenWAL(path, 0, nil)
	c := NewCommitter(w, nil)

	waits := make([]<-chan error, 0, 20)
	for i := 0; i < 20; i++ {
		waits = append(waits, c.Commit(rec(t, "r", i)))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range waits {
		if err := <-ch; err != nil {
			t.Fatalf("pre-close commit %d lost: %v", i, err)
		}
	}
	if err := <-c.Commit(rec(t, "r", 999)); err != ErrCommitterClosed {
		t.Fatalf("commit after close = %v, want ErrCommitterClosed", err)
	}
	_ = c.Close() // idempotent
	_ = w.Close()
	if got := replayInts(t, path); len(got) != 20 {
		t.Fatalf("replayed %d, want 20", len(got))
	}
}

// TestCommitterEmptyCommitAndFlush: zero-record commits and flushes
// resolve immediately and write nothing.
func TestCommitterEmptyCommitAndFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _ := OpenWAL(path, 0, nil)
	c := NewCommitter(w, nil)
	if err := <-c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	_ = w.Close()
	if got := replayInts(t, path); len(got) != 0 {
		t.Fatalf("replayed %d, want 0", len(got))
	}
	if st := c.Stats(); st.Batches != 0 || st.Records != 0 {
		t.Errorf("stats = %+v, want zero", st)
	}
}

// TestGroupCommitTornTail: a crash that tears a group-commit batch must
// recover the longest whole-record prefix of the batch — never an error,
// never a phantom, never a record from beyond the tear. This is the
// atomically-prefixed replay guarantee: recovery state equals applying
// the first k records of the batch for some k, with no divergence.
func TestGroupCommitTornTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full")
	w, err := OpenWAL(full, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A synced prefix (records 0,1) followed by one group of 6.
	for i := 0; i < 2; i++ {
		if err := w.Append(rec(t, "r", i)); err != nil {
			t.Fatal(err)
		}
	}
	var batch []Record
	for i := 2; i < 8; i++ {
		batch = append(batch, rec(t, "r", i))
	}
	if err := w.Append(batch...); err != nil {
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
		got := replayInts(t, path)
		for i, v := range got {
			if v != i {
				t.Fatalf("cut=%d: record %d = %d — not an atomic prefix", cut, i, v)
			}
		}
		// Reopen for appending: the torn tail must be truncated and the
		// log healthy.
		w2, err := OpenWAL(path, 0, nil)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if w2.Len() != uint64(len(got)) {
			t.Fatalf("cut=%d: len %d != replayed %d", cut, w2.Len(), len(got))
		}
		if err := w2.Append(rec(t, "r", 100), rec(t, "r", 101)); err != nil {
			t.Fatalf("cut=%d: append group after recovery: %v", cut, err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		if after := replayInts(t, path); len(after) != len(got)+2 {
			t.Fatalf("cut=%d: after recovery append, %d records, want %d", cut, len(after), len(got)+2)
		}
	}
}
