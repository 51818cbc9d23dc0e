package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

func rec(t *testing.T, typ string, v any) Record {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return Record{Type: typ, Data: data}
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(rec(t, "test", i)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Len() != 10 {
		t.Errorf("len = %d", w.Len())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []int
	n, err := Replay(path, func(r Record) error {
		if r.Type != "test" {
			t.Errorf("type = %q", r.Type)
		}
		var v int
		if err := json.Unmarshal(r.Data, &v); err != nil {
			return err
		}
		got = append(got, v)
		return nil
	})
	if err != nil || n != 10 {
		t.Fatalf("replayed %d, %v", n, err)
	}
	for i, v := range got {
		if v != i {
			t.Errorf("got[%d] = %d", i, v)
		}
	}
}

func TestWALReopenContinues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _ := OpenWAL(path, 0, nil)
	_ = w.Append(rec(t, "a", 1))
	_ = w.Close()
	w, err := OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1 {
		t.Errorf("recovered len = %d", w.Len())
	}
	_ = w.Append(rec(t, "a", 2))
	_ = w.Close()
	n, _ := Replay(path, func(Record) error { return nil })
	if n != 2 {
		t.Errorf("total = %d", n)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _ := OpenWAL(path, 0, nil)
	_ = w.Append(rec(t, "a", 1))
	_ = w.Append(rec(t, "a", 2))
	_ = w.Close()
	// Simulate a crash mid-append: chop the last 3 bytes.
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	// Replay sees only the intact record.
	n, err := Replay(path, func(Record) error { return nil })
	if err != nil || n != 1 {
		t.Fatalf("replay after tear: %d, %v", n, err)
	}
	// Reopen truncates the tear and appends cleanly after it.
	w, err = OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1 {
		t.Errorf("len after tear = %d", w.Len())
	}
	_ = w.Append(rec(t, "a", 3))
	_ = w.Close()
	var vals []int
	_, _ = Replay(path, func(r Record) error {
		var v int
		_ = json.Unmarshal(r.Data, &v)
		vals = append(vals, v)
		return nil
	})
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 3 {
		t.Errorf("vals = %v", vals)
	}
}

func TestWALGarbageTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _ := OpenWAL(path, 0, nil)
	_ = w.Append(rec(t, "a", 1))
	_ = w.Close()
	// Append garbage bytes (e.g. a corrupt header with a huge length).
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	_, _ = f.Write([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 9, 9})
	_ = f.Close()
	n, err := Replay(path, func(Record) error { return nil })
	if err != nil || n != 1 {
		t.Fatalf("replay = %d, %v", n, err)
	}
	w, err = OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Len() != 1 {
		t.Errorf("len = %d", w.Len())
	}
}

func TestWALCorruptChecksumStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _ := OpenWAL(path, 0, nil)
	_ = w.Append(rec(t, "a", 1))
	_ = w.Append(rec(t, "a", 2))
	_ = w.Close()
	// Flip a byte inside the FIRST record's body.
	data, _ := os.ReadFile(path)
	data[10] ^= 0xff
	_ = os.WriteFile(path, data, 0o644)
	n, err := Replay(path, func(Record) error { return nil })
	if err != nil {
		t.Fatalf("replay err = %v", err)
	}
	if n != 0 {
		t.Errorf("replayed %d records past corruption", n)
	}
}

func TestWALTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	w, _ := OpenWAL(path, 0, nil)
	_ = w.Append(rec(t, "a", 1))
	if err := w.Reset(1); err != nil {
		t.Fatal(err)
	}
	if base, total, err := w.Window(); w.Len() != 0 || base != 1 || total != 1 || err != nil {
		t.Errorf("len = %d, window = (%d, %d, %v), want 0 and (1, 1, nil)", w.Len(), base, total, err)
	}
	_ = w.Append(rec(t, "a", 2))
	_ = w.Close()
	var vals []int
	_, _ = Replay(path, func(r Record) error {
		var v int
		_ = json.Unmarshal(r.Data, &v)
		vals = append(vals, v)
		return nil
	})
	if len(vals) != 1 || vals[0] != 2 {
		t.Errorf("vals = %v", vals)
	}
}

func TestReplayMissingFile(t *testing.T) {
	n, err := Replay(filepath.Join(t.TempDir(), "nope"), func(Record) error { return nil })
	if err != nil || n != 0 {
		t.Errorf("missing file: %d, %v", n, err)
	}
}

func TestSnapshotSaveLatest(t *testing.T) {
	dir := t.TempDir()
	ss, err := NewSnapshotStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, _ := ss.Latest(); ok {
		t.Error("empty store should have no snapshot")
	}
	if err := ss.Save(5, []byte("X=42"), 3); err != nil {
		t.Fatal(err)
	}
	if err := ss.Save(9, []byte("X=99"), 3); err != nil {
		t.Fatal(err)
	}
	seq, got, ok, err := ss.Latest()
	if err != nil || !ok || seq != 9 || string(got) != "X=99" {
		t.Errorf("latest = %d %v %v %q", seq, ok, err, got)
	}
}

func TestSnapshotPruning(t *testing.T) {
	dir := t.TempDir()
	ss, _ := NewSnapshotStore(dir)
	for i := 1; i <= 5; i++ {
		_ = ss.Save(uint64(i), []byte{byte(i)}, 2)
	}
	ents, _ := os.ReadDir(dir)
	count := 0
	for _, e := range ents {
		if e.Name() != "snap.tmp" {
			count++
		}
	}
	if count != 2 {
		t.Errorf("kept %d snapshots, want 2", count)
	}
	seq, got, ok, _ := ss.Latest()
	if !ok || seq != 5 || !bytes.Equal(got, []byte{5}) {
		t.Errorf("latest after prune = %d %v", seq, got)
	}
}

// TestSnapshotLegacyJSONSequence: JSON snapshots written before the
// binary format and binary ones number one sequence — Latest reads the
// newest of either, a binary file wins a tie, and pruning counts both.
func TestSnapshotLegacyJSONSequence(t *testing.T) {
	dir := t.TempDir()
	ss, _ := NewSnapshotStore(dir)
	legacy := filepath.Join(dir, "snap-0000000000000004.json")
	if err := os.WriteFile(legacy, []byte(`{"seq":4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if seq, got, ok, err := ss.Latest(); err != nil || !ok || seq != 4 || string(got) != `{"seq":4}` {
		t.Fatalf("latest = %d %q %v %v, want the JSON file", seq, got, ok, err)
	}
	if err := ss.Save(4, []byte("bin"), 3); err != nil {
		t.Fatal(err)
	}
	if seq, got, _, _ := ss.Latest(); seq != 4 || string(got) != "bin" {
		t.Fatalf("latest = %d %q, want the binary file at the same seq", seq, got)
	}
	if err := ss.Save(7, []byte("newer"), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("prune kept the oldest (JSON) snapshot: %v", err)
	}
	if seq, got, _, _ := ss.Latest(); seq != 7 || string(got) != "newer" {
		t.Fatalf("latest = %d %q", seq, got)
	}
}

// TestSnapshotSaveSyncFailure: a snapshot whose fsync fails is an error
// and never reaches its final name, so the previous snapshot stays the
// latest and a caller keeps the log it would have compacted.
func TestSnapshotSaveSyncFailure(t *testing.T) {
	dir := t.TempDir()
	var syncs int
	ss, _ := NewSnapshotStore(dir)
	ss.Wrap = func(f File) File {
		syncs++
		if syncs == 2 {
			return fault.NewFile(f, fault.Rule{Op: fault.OpSync, Nth: 1, Err: fault.ErrIO})
		}
		return f
	}
	if err := ss.Save(1, []byte("one"), 2); err != nil {
		t.Fatal(err)
	}
	if err := ss.Save(2, []byte("two"), 2); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("Save with a failing fsync = %v, want the injected EIO", err)
	}
	if seq, got, _, err := ss.Latest(); err != nil || seq != 1 || string(got) != "one" {
		t.Fatalf("latest = %d %q %v, want snapshot 1", seq, got, err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("directory holds %d files after the failed save, want 1", len(ents))
	}
}

func TestSnapshotIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	ss, _ := NewSnapshotStore(dir)
	_ = os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o644)
	_ = os.WriteFile(filepath.Join(dir, "snap-zzz.json"), []byte("{}"), 0o644)
	_ = os.WriteFile(filepath.Join(dir, "snap-zzz.bin"), []byte("{}"), 0o644)
	_ = ss.Save(3, []byte("X=7"), 2)
	seq, got, ok, err := ss.Latest()
	if err != nil || !ok || seq != 3 || string(got) != "X=7" {
		t.Errorf("latest = %d %v %v", seq, ok, err)
	}
}

func TestSnapshotCorruptLatest(t *testing.T) {
	dir := t.TempDir()
	ss, _ := NewSnapshotStore(dir)
	_ = os.WriteFile(filepath.Join(dir, "snap-0000000000000001.json"), []byte("{corrupt"), 0o644)
	if _, _, _, err := ss.Latest(); err == nil {
		t.Error("corrupt snapshot should error")
	}
	// A binary snapshot with one flipped payload byte fails its checksum.
	if err := ss.Save(2, []byte("payload"), 3); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snap-0000000000000002.bin")
	data, _ := os.ReadFile(path)
	data[0] ^= 1
	_ = os.WriteFile(path, data, 0o644)
	if _, _, _, err := ss.Latest(); err == nil {
		t.Error("binary snapshot with a bad checksum should error")
	}
}
