package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
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
	w, err := OpenWAL(path, 0, nil)
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

// openWhole positions a reader of the file at path at sequence from,
// under a window that never moves and admits every frame on disk: what
// the reader returns is decided by the file alone.
func openWhole(t *testing.T, path string, from uint64) *LogReader {
	t.Helper()
	rd, err := OpenLogReader(path, from, func() (uint64, uint64, error) { return 0, math.MaxUint64, nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	return rd
}

// readNext reads one frame and decodes it; ok is false when no whole
// frame follows the reader's position yet.
func readNext(t *testing.T, rd *LogReader) (rec Record, ok bool, err error) {
	t.Helper()
	batch, err := rd.Read(nil, rd.Seq()+1)
	if err != nil || len(batch) == 0 {
		return Record{}, false, err
	}
	body, rest := NextFrame(batch)
	if len(rest) != 0 {
		t.Fatalf("a one-frame read returned %d more bytes", len(rest))
	}
	rec, err = DecodeRecord(body)
	return rec, err == nil, err
}

// wantRecords reads recs, in order, one frame at a time.
func wantRecords(t *testing.T, rd *LogReader, recs []Record, what string) {
	t.Helper()
	for i, want := range recs {
		got, ok, err := readNext(t, rd)
		if err != nil || !ok {
			t.Fatalf("%s: record %d: ok=%v, %v", what, i, ok, err)
		}
		if got.Type != want.Type || string(got.Data) != string(want.Data) {
			t.Fatalf("%s: record %d = %s %s, want %s %s", what, i, got.Type, got.Data, want.Type, want.Data)
		}
	}
}

// wantCaughtUp asserts that no whole frame follows the reader's position.
func wantCaughtUp(t *testing.T, rd *LogReader, what string) {
	t.Helper()
	if _, ok, err := readNext(t, rd); ok || err != nil {
		t.Fatalf("%s: read past the last whole frame: ok=%v, %v", what, ok, err)
	}
}

// readBodies returns the bodies of a batch Read returned.
func readBodies(batch []byte) []string {
	var out []string
	for len(batch) > 0 {
		var body []byte
		body, batch = NextFrame(batch)
		out = append(out, string(body))
	}
	return out
}

// epochRec is a record whose frame has a fixed size, naming its epoch
// and index; epochBody is its frame body.
func epochRec(epoch, i int) Record {
	return Record{Type: "e", Data: json.RawMessage(fmt.Sprintf(`{"epoch":%d,"i":"%02d"}`, epoch, i))}
}

func epochBody(epoch, i int) string {
	body, _ := AppendRecord(nil, epochRec(epoch, i))
	return string(body)
}

// TestTailerFollowsLiveLog: records appended after the reader attached
// are observed in order, and a drained reader returns an empty batch.
func TestTailerFollowsLiveLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rd, err := OpenLogReader(path, 0, w.Window)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	wantCaughtUp(t, rd, "empty log")
	recs := mkRecords(20)
	for i, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		wantRecords(t, rd, recs[i:i+1], fmt.Sprint("live record ", i))
		if rd.Seq() != uint64(i+1) {
			t.Fatalf("record %d: seq %d", i, rd.Seq())
		}
	}
	wantCaughtUp(t, rd, "drained log")
}

// TestTailerTornTailEveryByte cuts a finished log at every byte offset:
// a reader must yield exactly the complete frames before the cut — one
// at a time, and in one bulk read byte for byte — and, once the
// remaining bytes are appended, resume at the torn frame and deliver
// every remaining record exactly once. This is the frame-level
// crash-resume guarantee the replica apply loop builds on.
func TestTailerTornTailEveryByte(t *testing.T) {
	for name, recs := range map[string][]Record{"json": mkRecords(8), "move": mkMoves(t, 8)} {
		t.Run(name, func(t *testing.T) { tornTailEveryByte(t, recs) })
	}
}

func tornTailEveryByte(t *testing.T, recs []Record) {
	data, ends := walBytes(t, recs)

	complete := func(off int64) int {
		// number of complete frames within [0, off)
		n := 0
		for _, e := range ends {
			if e <= off {
				n++
			}
		}
		return n
	}

	for cut := int64(0); cut <= int64(len(data)); cut++ {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		n := complete(cut)
		what := fmt.Sprint("cut ", cut)
		rd := openWhole(t, path, 0)
		wantRecords(t, rd, recs[:n], what)
		wantCaughtUp(t, rd, what)
		if rd.Seq() != uint64(n) {
			t.Fatalf("%s: seq %d, want %d", what, rd.Seq(), n)
		}
		// A bulk read of the same cut stops at the same frame boundary.
		end := int64(0)
		if n > 0 {
			end = ends[n-1]
		}
		frames, err := openWhole(t, path, 0).Read(nil, math.MaxUint64)
		if err != nil || !bytes.Equal(frames, data[:end]) {
			t.Fatalf("%s: bulk read %d bytes, %v; want the %d frames before it", what, len(frames), err, n)
		}

		// The writer finishes: the same reader re-reads the once-torn
		// offset and sees the rest exactly once.
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data[cut:]); err != nil {
			t.Fatal(err)
		}
		f.Close()
		wantRecords(t, rd, recs[n:], what+" resumed")
		wantCaughtUp(t, rd, what+" resumed")
	}
}

// TestTailerSkipResumesAtSeq: a reader opened at any resume sequence
// skips to it; one opened past the frames on disk waits there without
// error, and skips the rest once they are written.
func TestTailerSkipResumesAtSeq(t *testing.T) {
	recs := mkRecords(16)
	data, ends := walBytes(t, recs)
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, data[:ends[9]], 0o644); err != nil {
		t.Fatal(err)
	}
	for resume := uint64(0); resume <= 10; resume++ {
		rd := openWhole(t, path, resume)
		wantRecords(t, rd, recs[resume:10], fmt.Sprint("resume ", resume))
		wantCaughtUp(t, rd, fmt.Sprint("resume ", resume))
	}
	rd := openWhole(t, path, 13)
	wantCaughtUp(t, rd, "resume past the end")
	if rd.Seq() != 13 {
		t.Fatalf("seq %d after waiting past the end, want 13", rd.Seq())
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data[ends[9]:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	wantRecords(t, rd, recs[13:], "resume past the end, grown")
}

// TestTailerDetectsReset: truncating the file below the reader's
// position (snapshot compaction) surfaces ErrWALReset, not a silent
// re-read of unrelated frames — even under a window that never moves.
func TestTailerDetectsReset(t *testing.T) {
	recs := mkRecords(4)
	data, _ := walBytes(t, recs)
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rd := openWhole(t, path, 0)
	wantRecords(t, rd, recs, "before the reset")
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readNext(t, rd); !errors.Is(err, ErrWALReset) {
		t.Fatalf("after truncate: err = %v, want ErrWALReset", err)
	}
}

// TestReplayTailReportsPartialFrame: Replay counts the whole frames
// before a torn tail, and a reader positioned at that count picks up the
// torn frame exactly once when the writer finishes it.
func TestReplayTailReportsPartialFrame(t *testing.T) {
	recs := mkRecords(3)
	data, ends := walBytes(t, recs)
	path := filepath.Join(t.TempDir(), "torn.log")
	cut := ends[1] + (ends[2]-ends[1])/2
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	var n int
	got, err := Replay(path, func(Record) error { n++; return nil })
	if err != nil || got != 2 || n != 2 {
		t.Fatalf("Replay = %d (%d calls), %v; want 2", got, n, err)
	}
	rd := openWhole(t, path, got)
	wantCaughtUp(t, rd, "torn tail")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data[cut:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	wantRecords(t, rd, recs[2:], "finished frame")
	wantCaughtUp(t, rd, "finished frame")
}

// TestFrameRoundTrips: a frame is the record's body behind its length and
// checksum, and a reader returns it verbatim.
func TestFrameRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	rec := Record{Type: "x", Data: json.RawMessage(`{"a":1}`)}
	body, err := AppendRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := appendFrame(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if got, rest := NextFrame(fr); !bytes.Equal(got, body) || len(rest) != 0 || !intact(fr) {
		t.Fatalf("frame %q splits to %q + %d bytes, want the body %q", fr, got, len(rest), body)
	}
	if err := os.WriteFile(path, fr, 0o644); err != nil {
		t.Fatal(err)
	}
	if batch, err := openWhole(t, path, 0).Read(nil, math.MaxUint64); err != nil || !bytes.Equal(batch, fr) {
		t.Fatalf("read back %q, %v", batch, err)
	}
}

// TestDurableLenTracksFsyncBoundary: a WAL's window total (the
// replication stream's upper bound) counts only fsynced records. Every
// successful Append fsyncs, so total reaches the written frontier —
// until a failed fsync leaves frames written but not synced, which must
// stay out of the shipped history.
func TestDurableLenTracksFsyncBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path, 7, func(f File) File {
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
	if _, total, err := w.Window(); total != 10 || w.Len() != 3 || err != nil {
		t.Fatalf("total = %d (Len %d, %v) after a synced append, want 10 (3)", total, w.Len(), err)
	}
	if err := w.Append(recs[3:]...); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("append over a failing fsync = %v, want the injected EIO", err)
	}
	if _, total, err := w.Window(); total != 10 || w.Len() != 5 || err != nil {
		t.Fatalf("total = %d (Len %d, %v) after a failed fsync, want 10 (5)", total, w.Len(), err)
	}
}

// TestLogReaderWindow: the reader positions by global sequence, refuses
// positions outside the window, reads only frames below total (and the
// caller's end), and latches a window error.
func TestLogReaderWindow(t *testing.T) {
	rl, err := OpenCache(filepath.Join(t.TempDir(), "relay.log"), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	for i := 0; i < 6; i++ {
		if err := rl.Append(epochRec(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	// The window publishes only the first four frames of the six on disk.
	var werr error
	window := func() (uint64, uint64, error) { return 10, 14, werr }

	for _, from := range []uint64{9, 15} {
		if _, err := OpenLogReader(rl.Path(), from, window); !errors.Is(err, ErrSeqGap) {
			t.Fatalf("open at %d: %v, want ErrSeqGap", from, err)
		}
	}
	rd, err := OpenLogReader(rl.Path(), 11, window)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	batch, err := rd.Read(nil, 13)
	if err != nil {
		t.Fatal(err)
	}
	if got := readBodies(batch); len(got) != 2 || got[0] != epochBody(1, 1) || got[1] != epochBody(1, 2) {
		t.Fatalf("first batch = %q, want frames 1 and 2", got)
	}
	if rd.Seq() != 13 {
		t.Fatalf("Seq = %d, want 13", rd.Seq())
	}
	if batch, err = rd.Read(batch[:0], math.MaxUint64); err != nil || len(readBodies(batch)) != 1 {
		t.Fatalf("second batch = %q, %v: want the one frame left below total", readBodies(batch), err)
	}
	if batch, err = rd.Read(batch[:0], math.MaxUint64); err != nil || len(batch) != 0 {
		t.Fatalf("caught-up read = %d bytes, %v: want empty", len(batch), err)
	}
	werr = errors.New("relay broken")
	if _, err := rd.Read(nil, math.MaxUint64); err != werr {
		t.Fatalf("window failure: %v", err)
	}
	werr = nil
	if _, err := rd.Read(nil, math.MaxUint64); err == nil {
		t.Fatal("a failed reader read again")
	}
}

// TestLogReaderBatchCap: a batch stops at the first frame that reaches
// batchBytes; the rest comes in the next batch.
func TestLogReaderBatchCap(t *testing.T) {
	rl, err := OpenCache(filepath.Join(t.TempDir(), "relay.log"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	// A movement body of a quarter batch, less its framing overhead.
	rec, err := MoveRecord(TypeMoveEnter, Move{S: string(make([]byte, batchBytes/4-16)), L: "room"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := rl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := OpenLogReader(rl.Path(), 0, rl.Window)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	for _, want := range []int{4, 2} {
		batch, err := rd.Read(nil, math.MaxUint64)
		if err != nil || len(readBodies(batch)) != want {
			t.Fatalf("batch of %d frames, %v: want %d", len(readBodies(batch)), err, want)
		}
	}
}

// TestLogReaderRegrownBetweenWindowReads: a compaction lands between
// the window read that bounds a batch and the reads themselves, and the
// log regrows past the reader's byte offset with same-size frames. The
// bytes at the old offsets are now new-epoch frames; the batch must be
// discarded (ErrWALReset), never returned under old coordinates.
func TestLogReaderRegrownBetweenWindowReads(t *testing.T) {
	rl, err := OpenCache(filepath.Join(t.TempDir(), "relay.log"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	for i := 0; i < 4; i++ {
		if err := rl.Append(epochRec(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	var race func()
	window := func() (uint64, uint64, error) {
		base, total, err := rl.Window()
		if race != nil {
			r := race
			race = nil
			r()
		}
		return base, total, err
	}
	rd, err := OpenLogReader(rl.Path(), 0, window)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	batch, err := rd.Read(nil, 2)
	if err != nil || len(readBodies(batch)) != 2 {
		t.Fatalf("first batch = %q, %v", readBodies(batch), err)
	}

	// Self-compaction to base 4, then four new-epoch frames: the file
	// is exactly as long as before, and the reader's offset is inside it.
	race = func() {
		if err := rl.Reset(4); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := rl.Append(epochRec(2, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	batch, err = rd.Read(batch[:0], math.MaxUint64)
	if !errors.Is(err, ErrWALReset) || len(batch) != 0 {
		t.Fatalf("read racing a compaction = %q, %v: want nothing and ErrWALReset", readBodies(batch), err)
	}
	// The hazard was real: a reader whose window did not move reads a
	// new-epoch frame at the old offset.
	if got, ok, err := readNext(t, openWhole(t, rl.Path(), 2)); !ok || err != nil || string(got.Data) != string(epochRec(2, 2).Data) {
		t.Fatalf("fixed-window reader at the old offset = %s, %v, %v", got.Data, ok, err)
	}

	// Re-resolving: the old position is compacted, the new base reads
	// the new epoch under its own coordinates.
	if _, err := OpenLogReader(rl.Path(), 2, window); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("reopen behind the new base: %v, want ErrSeqGap", err)
	}
	rd2, err := OpenLogReader(rl.Path(), 4, window)
	if err != nil {
		t.Fatal(err)
	}
	defer rd2.Close()
	batch, err = rd2.Read(nil, math.MaxUint64)
	if err != nil {
		t.Fatal(err)
	}
	got := readBodies(batch)
	if len(got) != 4 || got[0] != epochBody(2, 0) {
		t.Fatalf("new epoch from base = %q", got)
	}
}

// BenchmarkLogReaderRead measures a follower's read of a served log: one
// LogReader pass, batch by batch, over a log of frames with the 25-byte
// body of a binary movement record. ns/frame is the per-frame cost of
// reading, splitting and checksumming.
func BenchmarkLogReaderRead(b *testing.B) {
	const frames = 1 << 14
	rl, err := OpenCache(filepath.Join(b.TempDir(), "relay.log"), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer rl.Close()
	rec, err := MoveRecord(TypeMoveEnter, Move{S: "subject-0000", L: "room-0000"})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if err := rl.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	var batch []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := OpenLogReader(rl.Path(), 0, rl.Window)
		if err != nil {
			b.Fatal(err)
		}
		for rd.Seq() < frames {
			if batch, err = rd.Read(batch[:0], math.MaxUint64); err != nil || len(batch) == 0 {
				b.Fatalf("read at seq %d: %d bytes, %v", rd.Seq(), len(batch), err)
			}
		}
		rd.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
}
