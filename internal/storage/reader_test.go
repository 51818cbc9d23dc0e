package storage

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"
)

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

// epochBody is a fixed-size frame body naming its epoch and index.
func epochBody(epoch, i int) []byte { return []byte(fmt.Sprintf(`{"epoch":%d,"i":%02d}`, epoch, i)) }

// TestLogReaderWindow: the reader positions by global sequence, refuses
// positions outside the window, reads only frames below total (and the
// caller's end), and latches a window error.
func TestLogReaderWindow(t *testing.T) {
	rl, err := OpenRelay(filepath.Join(t.TempDir(), "relay.log"), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	for i := 0; i < 6; i++ {
		if err := rl.Append(epochBody(1, i)); err != nil {
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
	if got := readBodies(batch); len(got) != 2 || got[0] != string(epochBody(1, 1)) || got[1] != string(epochBody(1, 2)) {
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
	rl, err := OpenRelay(filepath.Join(t.TempDir(), "relay.log"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	body := make([]byte, batchBytes/4)
	for i := 0; i < 6; i++ {
		if err := rl.Append(body); err != nil {
			t.Fatal(err)
		}
	}
	window := func() (uint64, uint64, error) {
		base, total := rl.Info()
		return base, total, nil
	}
	rd, err := OpenLogReader(rl.Path(), 0, window)
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
	rl, err := OpenRelay(filepath.Join(t.TempDir(), "relay.log"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	for i := 0; i < 4; i++ {
		if err := rl.Append(epochBody(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	var race func()
	window := func() (uint64, uint64, error) {
		base, total := rl.Info()
		if race != nil {
			r := race
			race = nil
			r()
		}
		return base, total, nil
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
			if err := rl.Append(epochBody(2, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	batch, err = rd.Read(batch[:0], math.MaxUint64)
	if !errors.Is(err, ErrWALReset) || len(batch) != 0 {
		t.Fatalf("read racing a compaction = %q, %v: want nothing and ErrWALReset", readBodies(batch), err)
	}
	// The hazard was real: a plain tailer at the same offset reads a
	// new-epoch frame.
	tl, err := OpenTailer(rl.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	if _, err := tl.Skip(2); err != nil {
		t.Fatal(err)
	}
	if body, err := tl.NextBody(); err != nil || string(body) != string(epochBody(2, 2)) {
		t.Fatalf("raw tailer at the old offset = %q, %v", body, err)
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
	if len(got) != 4 || got[0] != string(epochBody(2, 0)) {
		t.Fatalf("new epoch from base = %q", got)
	}
}

// BenchmarkLogReaderRead measures a follower's read of a served log: one
// LogReader pass, batch by batch, over a log of frames the size of a
// binary movement record. ns/frame is the per-frame cost of reading,
// splitting and checksumming.
func BenchmarkLogReaderRead(b *testing.B) {
	const frames = 1 << 14
	rl, err := OpenRelay(filepath.Join(b.TempDir(), "relay.log"), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer rl.Close()
	body := make([]byte, 25)
	for i := 0; i < frames; i++ {
		if err := rl.Append(body); err != nil {
			b.Fatal(err)
		}
	}
	window := func() (uint64, uint64, error) {
		base, total := rl.Info()
		return base, total, nil
	}
	var batch []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := OpenLogReader(rl.Path(), 0, window)
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
