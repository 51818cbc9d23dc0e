package storage

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestPropCrashAtEveryByte simulates a crash after every possible byte of
// a small log: for each truncation point, recovery must succeed and yield
// exactly the longest prefix of whole records — never an error, never a
// phantom record, and the reopened log must accept new appends.
func TestPropCrashAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full")
	w, err := OpenWAL(full, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const records = 6
	var offsets []int64 // byte size after each record
	for i := 0; i < records; i++ {
		if err := w.Append(rec(t, "r", i)); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(full)
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, fi.Size())
	}
	_ = w.Close()
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	wholeRecordsAt := func(size int64) uint64 {
		var n uint64
		for _, off := range offsets {
			if off <= size {
				n++
			}
		}
		return n
	}

	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, "cut")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := wholeRecordsAt(int64(cut))

		var got []int
		n, err := Replay(path, func(r Record) error {
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
		if n != want {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, n, want)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("cut=%d: record %d = %d (not a prefix)", cut, i, v)
			}
		}

		// Reopen, append, and verify the log is healthy.
		w2, err := OpenWAL(path, 0, nil)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if w2.Len() != want {
			t.Fatalf("cut=%d: reopened len %d, want %d", cut, w2.Len(), want)
		}
		if err := w2.Append(rec(t, "r", 999)); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		n2, err := Replay(path, func(Record) error { return nil })
		if err != nil || n2 != want+1 {
			t.Fatalf("cut=%d: after append replay = %d, %v", cut, n2, err)
		}
	}
}

// TestPropRandomCorruption flips random bytes mid-log: recovery must stop
// at or before the corruption, never panic, and never return an error for
// framing damage.
func TestPropRandomCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dir := t.TempDir()
	base := filepath.Join(dir, "base")
	w, _ := OpenWAL(base, 0, nil)
	for i := 0; i < 20; i++ {
		_ = w.Append(rec(t, "r", i))
	}
	_ = w.Close()
	data, _ := os.ReadFile(base)

	for trial := 0; trial < 300; trial++ {
		corrupted := append([]byte(nil), data...)
		pos := rng.Intn(len(corrupted))
		corrupted[pos] ^= byte(1 + rng.Intn(255))
		path := filepath.Join(dir, "c")
		if err := os.WriteFile(path, corrupted, 0o644); err != nil {
			t.Fatal(err)
		}
		var prev = -1
		n, err := Replay(path, func(r Record) error {
			var v int
			if err := json.Unmarshal(r.Data, &v); err != nil {
				return err
			}
			if v != prev+1 {
				t.Fatalf("trial %d: out-of-order record %d after %d", trial, v, prev)
			}
			prev = v
			return nil
		})
		// A flipped byte inside JSON that still checksums is impossible
		// (CRC covers the body), so the only acceptable outcome is a
		// clean stop.
		if err != nil {
			t.Fatalf("trial %d: replay error %v", trial, err)
		}
		if n > 20 {
			t.Fatalf("trial %d: phantom records: %d", trial, n)
		}
	}
}
