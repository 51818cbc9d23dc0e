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

// TestRelayAppendTailRoundTrip: a cache-policy log positioned at base 10
// holds, byte for byte, the frames a WAL holds for the same records —
// JSON envelopes and binary movement bodies alike — and a reader returns
// them under the cache's window.
func TestRelayAppendTailRoundTrip(t *testing.T) {
	recs := append(mkRecords(3), mkMoves(t, 3)...)
	upstream, _ := walBytes(t, recs)
	path := filepath.Join(t.TempDir(), "relay.log")
	rl, err := OpenCache(path, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	for _, rec := range recs {
		// A relay appends the record it decoded from the upstream frame.
		body, _ := AppendRecord(nil, rec)
		decoded, err := DecodeRecord(body)
		if err != nil {
			t.Fatal(err)
		}
		if err := rl.Append(decoded); err != nil {
			t.Fatal(err)
		}
	}
	if base, total, err := rl.Window(); base != 10 || total != 16 || err != nil {
		t.Fatalf("Window = (%d, %d, %v), want (10, 16, nil)", base, total, err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, upstream) {
		t.Fatalf("relay file differs from the upstream WAL: %d bytes vs %d, %v", len(got), len(upstream), err)
	}
	rd, err := OpenLogReader(path, 12, rl.Window)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	wantRecords(t, rd, recs[2:], "relay")
	wantCaughtUp(t, rd, "relay")
}

// TestRelayResetReusesInode: Reset truncates in place, so an open
// downstream reader observes ErrWALReset (not a silent re-read of new
// frames under old sequence numbers) even before it re-reads the window.
func TestRelayResetReusesInode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "relay.log")
	rl, err := OpenCache(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	if err := rl.Append(mkRecords(3)...); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	rd := openWhole(t, path, 0)
	wantRecords(t, rd, mkRecords(1), "before the reset")

	if err := rl.Reset(7); err != nil {
		t.Fatal(err)
	}
	if base, total, err := rl.Window(); base != 7 || total != 7 || err != nil {
		t.Fatalf("Window after reset = (%d, %d, %v), want (7, 7, nil)", base, total, err)
	}
	if after, err := os.Stat(path); err != nil || !os.SameFile(before, after) {
		t.Fatalf("reset replaced the file (%v)", err)
	}
	// A read that observes the shrink reports ErrWALReset. (If the file
	// regrows past the old offset before the next read the shrink itself
	// is invisible — that is why every consumer re-reads the window's
	// base after its reads, per the read-then-recheck contract.)
	if _, _, err := readNext(t, rd); !errors.Is(err, ErrWALReset) {
		t.Fatalf("reader across reset: %v, want ErrWALReset", err)
	}
}

// TestRelaySelfCompacts: an append that would grow the file past its
// bound first truncates it and advances base past everything written —
// the bounded-cache behavior that keeps a long-lived cascading
// follower's disk use flat.
func TestRelaySelfCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "relay.log")
	rl, err := OpenCache(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	if rl.maxBytes != DefaultRelayMaxBytes {
		t.Fatalf("cache bound %d, want DefaultRelayMaxBytes", rl.maxBytes)
	}
	recs := mkRecords(5)
	fr, _ := appendFrame(nil, recs[0])
	rl.maxBytes = 3 * int64(len(fr))

	if err := rl.Append(recs[:3]...); err != nil {
		t.Fatal(err)
	}
	if base, total, _ := rl.Window(); base != 0 || total != 3 {
		t.Fatalf("Window before compaction = (%d, %d), want (0, 3)", base, total)
	}
	// The fourth frame does not fit: the cache compacts to base 3 first.
	if err := rl.Append(recs[3]); err != nil {
		t.Fatal(err)
	}
	if base, total, _ := rl.Window(); base != 3 || total != 4 {
		t.Fatalf("Window after compaction = (%d, %d), want (3, 4)", base, total)
	}
	// The file now holds exactly that frame.
	rd, err := OpenLogReader(path, 3, rl.Window)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	wantRecords(t, rd, recs[3:4], "after compaction")
	wantCaughtUp(t, rd, "after compaction")
}

// TestRelayLatchesWriteFailure: the cache's first failed write latches.
// Its window reports the failure with the coordinates frozen at the last
// whole frame, and every later Append and Reset refuses — a broken relay
// stops serving downstream, it does not limp along with gaps. Close
// latches the same way.
func TestRelayLatchesWriteFailure(t *testing.T) {
	rl, err := OpenCache(filepath.Join(t.TempDir(), "relay.log"), 5, func(f File) File {
		return fault.NewFile(f, fault.Rule{Op: fault.OpWrite, Nth: 2, Err: fault.ErrNoSpace, Short: 3})
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := mkRecords(3)
	if err := rl.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := rl.Append(recs[1]); !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("append over a failing write = %v, want the injected ENOSPC", err)
	}
	if base, total, err := rl.Window(); base != 5 || total != 6 || !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("Window after the failure = (%d, %d, %v), want (5, 6, ENOSPC)", base, total, err)
	}
	if err := rl.Append(recs[2]); !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("append after the failure = %v", err)
	}
	if err := rl.Reset(9); !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("reset after the failure = %v", err)
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}

	closed, err := OpenCache(filepath.Join(t.TempDir(), "relay.log"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := closed.Window(); err == nil {
		t.Fatal("a closed cache reports no error")
	}
	if err := closed.Append(recs[0]); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestFrameFormatUnchanged: testdata/wal-golden.log was written by the
// WAL before the WAL and the relay became one log type, as one append
// and then a group of three. Both policies still write those records to
// exactly those bytes, and Replay reads the file back.
func TestFrameFormatUnchanged(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "wal-golden.log"))
	if err != nil {
		t.Fatal(err)
	}
	enter, err := MoveRecord(TypeMoveEnter, Move{T: 5, S: "alice", L: "SCE.GO"})
	if err != nil {
		t.Fatal(err)
	}
	leave, err := MoveRecord(TypeMoveLeave, Move{T: -9, S: "alice", L: "SCE.GO"})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Type: "profile.put", Data: json.RawMessage(`{"ID":"alice","Groups":["<staff>"]}`)},
		enter,
		leave,
		{Type: "tick", Data: json.RawMessage(`{"T":300}`)},
	}
	for name, open := range map[string]func(string) (*Log, error){
		"wal":   func(p string) (*Log, error) { return OpenWAL(p, 0, nil) },
		"cache": func(p string) (*Log, error) { return OpenCache(p, 0, nil) },
	} {
		path := filepath.Join(t.TempDir(), "log")
		l, err := open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(recs[0]); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(recs[1:]...); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if got, _ := os.ReadFile(path); !bytes.Equal(got, golden) {
			t.Fatalf("%s: wrote\n%q\nwant\n%q", name, got, golden)
		}
	}
	var got []Record
	if n, err := Replay(filepath.Join("testdata", "wal-golden.log"), func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil || n != uint64(len(recs)) {
		t.Fatalf("Replay = %d, %v", n, err)
	}
	for i := range recs {
		want, _ := AppendRecord(nil, recs[i])
		body, err := AppendRecord(nil, got[i])
		if err != nil || !bytes.Equal(body, want) {
			t.Fatalf("record %d replayed as %s %s", i, got[i].Type, got[i].Data)
		}
	}
}
