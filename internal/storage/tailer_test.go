package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// mkRecords builds n distinct records.
func mkRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		data, _ := json.Marshal(map[string]int{"i": i})
		recs[i] = Record{Type: fmt.Sprintf("t%d", i), Data: data}
	}
	return recs
}

// mkMoves builds n distinct movement records in the binary body.
func mkMoves(t *testing.T, n int) []Record {
	t.Helper()
	recs := make([]Record, n)
	for i := range recs {
		typ := TypeMoveEnter
		if i%2 == 1 {
			typ = TypeMoveLeave
		}
		rec, err := MoveRecord(typ, Move{T: int64(i), S: fmt.Sprintf("s%d", i), L: "room"})
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	return recs
}

// walBytes appends recs to a fresh WAL and returns the file's raw bytes
// plus each frame's end offset.
func walBytes(t *testing.T, recs []Record) ([]byte, []int64) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, fi.Size())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, ends
}

// TestTailerFollowsLiveLog: records appended after the tailer attached
// are observed in order, and a drained tailer reports ErrNoRecord with a
// clean (non-partial) state.
func TestTailerFollowsLiveLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tl, err := OpenTailer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	if _, err := tl.Next(); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("empty log: err = %v, want ErrNoRecord", err)
	}
	recs := mkRecords(20)
	for i, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		got, err := tl.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Type != rec.Type {
			t.Fatalf("record %d: type %q, want %q", i, got.Type, rec.Type)
		}
		if tl.Seq() != uint64(i+1) {
			t.Fatalf("record %d: seq %d", i, tl.Seq())
		}
	}
	if _, err := tl.Next(); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("drained log: err = %v, want ErrNoRecord", err)
	}
	if st := tl.State(); st.Partial || st.NextSeq != 20 {
		t.Fatalf("drained state = %+v", st)
	}
}

// TestTailerTornTailEveryByte cuts a finished log at every byte offset:
// the tailer must yield exactly the complete frames before the cut,
// report the partial frame's start offset, and — once the remaining
// bytes are appended — resume at that offset and deliver every remaining
// record exactly once. This is the frame-level crash-resume guarantee
// the replica apply loop builds on.
func TestTailerTornTailEveryByte(t *testing.T) {
	for name, recs := range map[string][]Record{"json": mkRecords(8), "move": mkMoves(t, 8)} {
		t.Run(name, func(t *testing.T) { tornTailEveryByte(t, recs) })
	}
}

func tornTailEveryByte(t *testing.T, recs []Record) {
	data, ends := walBytes(t, recs)

	frameAt := func(off int64) int {
		// number of complete frames within [0, off)
		n := 0
		for _, e := range ends {
			if e <= off {
				n++
			}
		}
		return n
	}
	frameStart := func(i int) int64 {
		if i == 0 {
			return 0
		}
		return ends[i-1]
	}

	for cut := int64(0); cut <= int64(len(data)); cut++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tl, err := OpenTailer(path)
		if err != nil {
			t.Fatal(err)
		}
		wantComplete := frameAt(cut)
		for i := 0; i < wantComplete; i++ {
			got, err := tl.Next()
			if err != nil {
				t.Fatalf("cut %d: record %d: %v", cut, i, err)
			}
			if got.Type != recs[i].Type || string(got.Data) != string(recs[i].Data) {
				t.Fatalf("cut %d: record %d = %s, want %s", cut, i, got.Data, recs[i].Data)
			}
		}
		if _, err := tl.Next(); !errors.Is(err, ErrNoRecord) {
			t.Fatalf("cut %d: err = %v, want ErrNoRecord", cut, err)
		}
		st := tl.State()
		if st.Offset != frameStart(wantComplete) {
			t.Fatalf("cut %d: offset %d, want %d", cut, st.Offset, frameStart(wantComplete))
		}
		wantPartial := cut > frameStart(wantComplete)
		if st.Partial != wantPartial || st.PartialBytes != cut-frameStart(wantComplete) {
			t.Fatalf("cut %d: state %+v, want partial=%v bytes=%d",
				cut, st, wantPartial, cut-frameStart(wantComplete))
		}
		// A bulk read of the same cut stops at the same frame boundary.
		bulk, err := OpenTailer(path)
		if err != nil {
			t.Fatal(err)
		}
		frames, err := bulk.appendFrames(nil, uint64(len(recs)), batchBytes)
		if err != nil || int64(len(frames)) != frameStart(wantComplete) || bulk.State() != st {
			t.Fatalf("cut %d: bulk read %d bytes, state %+v, %v; want %d bytes, state %+v",
				cut, len(frames), bulk.State(), err, frameStart(wantComplete), st)
		}
		bulk.Close()

		// The writer finishes: the same tailer re-reads the once-torn
		// offset and sees the rest exactly once.
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data[cut:]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		for i := wantComplete; i < len(recs); i++ {
			got, err := tl.Next()
			if err != nil {
				t.Fatalf("cut %d: resumed record %d: %v", cut, i, err)
			}
			if got.Type != recs[i].Type || string(got.Data) != string(recs[i].Data) {
				t.Fatalf("cut %d: resumed record %d = %s, want %s", cut, i, got.Data, recs[i].Data)
			}
		}
		if _, err := tl.Next(); !errors.Is(err, ErrNoRecord) {
			t.Fatalf("cut %d: after resume err = %v, want ErrNoRecord", cut, err)
		}
		tl.Close()
	}
}

// TestTailerSkipResumesAtSeq: Skip seeks a fresh tailer to an arbitrary
// resume sequence, stopping early (without error) at the tail.
func TestTailerSkipResumesAtSeq(t *testing.T) {
	recs := mkRecords(10)
	data, _ := walBytes(t, recs)
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for resume := uint64(0); resume <= 10; resume++ {
		tl, err := OpenTailer(path)
		if err != nil {
			t.Fatal(err)
		}
		n, err := tl.Skip(resume)
		if err != nil || n != resume {
			t.Fatalf("skip(%d) = %d, %v", resume, n, err)
		}
		for i := int(resume); i < len(recs); i++ {
			got, err := tl.Next()
			if err != nil || got.Type != recs[i].Type {
				t.Fatalf("resume %d: record %d = %v, %v", resume, i, got.Type, err)
			}
		}
		// Skipping past the end stops early with a nil error.
		if n, err := tl.Skip(5); err != nil || n != 0 {
			t.Fatalf("skip past end = %d, %v", n, err)
		}
		tl.Close()
	}
}

// TestTailerDetectsReset: truncating the file below the tailer's
// position (snapshot compaction) surfaces ErrWALReset, not a silent
// re-read of unrelated frames.
func TestTailerDetectsReset(t *testing.T) {
	recs := mkRecords(4)
	data, _ := walBytes(t, recs)
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tl, err := OpenTailer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	for i := 0; i < len(recs); i++ {
		if _, err := tl.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.Next(); !errors.Is(err, ErrWALReset) {
		t.Fatalf("after truncate: err = %v, want ErrWALReset", err)
	}
}

// TestReplayTailReportsPartialFrame is the regression test for the
// latent gap: Replay used to swallow a trailing partial frame without
// reporting where it starts, so a tailer could not re-read it once the
// writer finished. ReplayTail must report the exact byte offset and
// size of the torn tail (and none when the log ends cleanly).
func TestReplayTailReportsPartialFrame(t *testing.T) {
	recs := mkRecords(3)
	data, ends := walBytes(t, recs)

	// Clean end: no partial tail.
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.log")
	if err := os.WriteFile(clean, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := ReplayTail(clean, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Partial || st.NextSeq != 3 || st.Offset != int64(len(data)) {
		t.Fatalf("clean log state = %+v", st)
	}

	// Torn mid-last-frame: partial reported with the frame's offset.
	cut := ends[1] + (ends[2]-ends[1])/2
	torn := filepath.Join(dir, "torn.log")
	if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	var n int
	st, err = ReplayTail(torn, func(Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || st.NextSeq != 2 {
		t.Fatalf("replayed %d records (state %+v), want 2", n, st)
	}
	if !st.Partial || st.Offset != ends[1] || st.PartialBytes != cut-ends[1] {
		t.Fatalf("torn log state = %+v, want partial at %d (%d bytes)", st, ends[1], cut-ends[1])
	}

	// The legacy Replay signature still reports the same record count.
	if got, err := Replay(torn, func(Record) error { return nil }); err != nil || got != 2 {
		t.Fatalf("Replay = %d, %v", got, err)
	}
}

// TestFrameRoundTrips: the exported Frame helper produces exactly the
// on-disk layout the tailer consumes.
func TestFrameRoundTrips(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	rec := Record{Type: "x", Data: json.RawMessage(`{"a":1}`)}
	body, err := AppendRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, Frame(body), 0o644); err != nil {
		t.Fatal(err)
	}
	tl, err := OpenTailer(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	got, err := tl.Next()
	if err != nil || got.Type != "x" {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
}

// TestDurableLenTracksFsyncBoundary: DurableLen (the replication
// stream's upper bound) counts only fsynced records. Every successful
// Append fsyncs, so the two lengths agree — until a failed fsync leaves
// frames written but not synced, which must stay out of the shipped
// history.
func TestDurableLenTracksFsyncBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWALWith(path, func(f File) File {
		return fault.NewFile(f, fault.Rule{Op: fault.OpSync, Nth: 2, Err: fault.ErrIO})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := mkRecords(5)
	if err := w.Append(recs[:3]...); err != nil {
		t.Fatal(err)
	}
	if got, n := w.DurableLen(), w.Len(); got != 3 || n != 3 {
		t.Fatalf("DurableLen = %d (Len %d) after a synced append, want 3 (3)", got, n)
	}
	if err := w.Append(recs[3:]...); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("append over a failing fsync = %v, want the injected EIO", err)
	}
	if got, n := w.DurableLen(), w.Len(); got != 3 || n != 5 {
		t.Fatalf("DurableLen = %d (Len %d) after a failed fsync, want 3 (5)", got, n)
	}
}
