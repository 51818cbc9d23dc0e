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

// matrixOutcome is one fault-matrix run: how far the acked prefix got,
// the first barrier error, and whether the probe commit issued after the
// failure saw the poison latch.
type matrixOutcome struct {
	acked    int   // leading barriers that acked nil
	firstErr error // first non-nil barrier error
	poisoned bool  // post-failure probe got ErrWALPoisoned
}

// matrixInput is one record shape the crash matrix commits: record i of
// the workload, and the index a recovered record carries.
type matrixInput struct {
	rec   func(t *testing.T, i int) Record
	index func(r Record) (int, error)
}

// jsonInput commits JSON-envelope records of type "m" carrying i.
var jsonInput = matrixInput{
	rec: func(t *testing.T, i int) Record { return rec(t, "m", i) },
	index: func(r Record) (int, error) {
		var got int
		if err := json.Unmarshal(r.Data, &got); err != nil {
			return 0, err
		}
		if r.Type != "m" {
			return 0, fmt.Errorf("type %q", r.Type)
		}
		return got, nil
	},
}

// moveInput commits binary movement records at time i.
var moveInput = matrixInput{
	rec: func(t *testing.T, i int) Record {
		r, err := MoveRecord(TypeMoveEnter, Move{T: int64(i), S: "walker", L: "room"})
		if err != nil {
			t.Fatal(err)
		}
		return r
	},
	index: func(r Record) (int, error) {
		m, err := DecodeMove(r.Data)
		if err == nil && (r.Type != TypeMoveEnter || m.S != "walker" || m.L != "room") {
			err = fmt.Errorf("record %s %+v", r.Type, m)
		}
		return int(m.T), err
	},
}

// matrixWorkload is the canonical crash-matrix workload: a committer
// committing records m0..m{n-1}
// one at a time, waiting out every barrier. Sequential commits mean the
// nil-acked set is by construction a prefix; the run records where it
// ends. After the first failure one probe commit checks the poison
// latch.
func matrixWorkload(t *testing.T, in matrixInput, path string, n int, wrap func(File) File) matrixOutcome {
	t.Helper()
	w, err := OpenWAL(path, 0, wrap)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	c := NewCommitter(w, nil)
	var out matrixOutcome
	for i := 0; i < n; i++ {
		if err := <-c.Commit(in.rec(t, i)); err != nil {
			out.firstErr = err
			break
		}
		out.acked++
	}
	if out.firstErr != nil {
		out.poisoned = errors.Is(<-c.Commit(in.rec(t, n)), ErrWALPoisoned)
		if !c.Poisoned() || !c.Stats().Poisoned {
			t.Errorf("committer not marked poisoned after %v", out.firstErr)
		}
		if c.Close() == nil {
			t.Error("Close() returned nil after a latched failure")
		}
	} else if err := c.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}
	_ = w.Close()
	return out
}

// recoveredPrefix reopens path fresh (no fault wrapper — the "disk" is
// healthy again after the crash) and asserts the surviving records are
// exactly m0..m{k-1} for some k, returning k.
func recoveredPrefix(t *testing.T, in matrixInput, path string) int {
	t.Helper()
	next := 0
	_, err := Replay(path, func(r Record) error {
		got, err := in.index(r)
		if err != nil {
			return fmt.Errorf("record %d: %v", next, err)
		}
		if got != next {
			return fmt.Errorf("record %d: got index %d", next, got)
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatalf("replay after fault: %v", err)
	}
	return next
}

// TestFaultMatrixAckedPrefixDurable runs the crash matrix: a counting
// pass discovers every file-level write and sync the workload performs,
// then the workload is re-run once per (site × fault kind) with that
// exact operation failing — EIO, ENOSPC, and a torn (short) write at
// each write site; EIO at each sync site. The contract under every
// single fault: the barriers that acked nil are durable (recovery yields
// at least that prefix, contents intact, never a reordering or a
// phantom), and the committer is permanently poisoned from the failure
// on.
//
// It runs over two record shapes: JSON envelopes (subtests named by
// site) and binary movement bodies (the same names prefixed "move-").
func TestFaultMatrixAckedPrefixDurable(t *testing.T) {
	faultMatrix(t, "", jsonInput)
	faultMatrix(t, "move-", moveInput)
}

func faultMatrix(t *testing.T, prefix string, in matrixInput) {
	const n = 6

	// Counting pass: no rules, discover the injection sites.
	var counter *fault.File
	cleanDir := t.TempDir()
	out := matrixWorkload(t, in, filepath.Join(cleanDir, "wal"), n, func(f File) File {
		counter = fault.NewFile(f)
		return counter
	})
	if out.firstErr != nil || out.acked != n {
		t.Fatalf("counting pass failed: acked %d, err %v", out.acked, out.firstErr)
	}
	if got := recoveredPrefix(t, in, filepath.Join(cleanDir, "wal")); got != n {
		t.Fatalf("clean run recovered %d records, want %d", got, n)
	}
	writes, syncs := counter.Counts()
	if writes == 0 || syncs == 0 {
		t.Fatalf("workload exercised no injection sites (writes=%d syncs=%d)", writes, syncs)
	}

	run := func(name string, rule fault.Rule, wantErr error) {
		t.Run(prefix+name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal")
			out := matrixWorkload(t, in, path, n, func(f File) File {
				return fault.NewFile(f, rule)
			})
			if out.firstErr == nil {
				// The armed site fired after the last barrier (the
				// close-path sync): no barrier may have lied, so every
				// record must have been acked and must survive.
				if out.acked != n {
					t.Fatalf("no barrier error yet only %d/%d acked", out.acked, n)
				}
			} else {
				if !errors.Is(out.firstErr, wantErr) {
					t.Fatalf("first barrier error = %v, want %v", out.firstErr, wantErr)
				}
				if !out.poisoned {
					t.Fatalf("commit after failure did not return ErrWALPoisoned")
				}
			}
			if got := recoveredPrefix(t, in, path); got < out.acked {
				t.Fatalf("recovered %d records < acked prefix %d: durability lie", got, out.acked)
			}
		})
	}

	for i := uint64(1); i <= writes; i++ {
		run(fmt.Sprintf("write%d-eio", i), fault.Rule{Op: fault.OpWrite, Nth: i, Err: fault.ErrIO, Short: -1}, fault.ErrIO)
		run(fmt.Sprintf("write%d-enospc", i), fault.Rule{Op: fault.OpWrite, Nth: i, Err: fault.ErrNoSpace, Short: -1}, fault.ErrNoSpace)
		run(fmt.Sprintf("write%d-torn", i), fault.Rule{Op: fault.OpWrite, Nth: i, Err: fault.ErrIO, Short: 3}, fault.ErrIO)
	}
	for i := uint64(1); i <= syncs; i++ {
		run(fmt.Sprintf("sync%d-eio", i), fault.Rule{Op: fault.OpSync, Nth: i, Err: fault.ErrIO}, fault.ErrIO)
	}
}

// TestFaultMatrixSnapshotSave runs the crash matrix over SnapshotStore.
// Save: a counting pass discovers every write and sync of one save, then
// a save is re-run with each of them failing — EIO, ENOSPC and a torn
// write at each write site, EIO at each sync site. Under every fault the
// save reports the error, no temporary file is left behind, and the
// previous snapshot is still the latest.
func TestFaultMatrixSnapshotSave(t *testing.T) {
	save := func(t *testing.T, rule *fault.Rule) (*fault.File, string, error) {
		dir := t.TempDir()
		ss, err := NewSnapshotStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := ss.Save(1, []byte("previous"), 2); err != nil {
			t.Fatal(err)
		}
		var ff *fault.File
		ss.Wrap = func(f File) File {
			if rule == nil {
				ff = fault.NewFile(f)
			} else {
				ff = fault.NewFile(f, *rule)
			}
			return ff
		}
		err = ss.Save(2, []byte("next snapshot"), 2)
		return ff, dir, err
	}
	counter, _, err := save(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	writes, syncs := counter.Counts()
	if writes == 0 || syncs == 0 {
		t.Fatalf("a save exercised no injection sites (writes=%d syncs=%d)", writes, syncs)
	}
	run := func(name string, rule fault.Rule) {
		t.Run(name, func(t *testing.T) {
			_, dir, err := save(t, &rule)
			if !errors.Is(err, rule.Err) {
				t.Fatalf("Save = %v, want %v", err, rule.Err)
			}
			ss, _ := NewSnapshotStore(dir)
			if seq, got, ok, err := ss.Latest(); err != nil || !ok || seq != 1 || string(got) != "previous" {
				t.Fatalf("latest = %d %q %v %v, want the previous snapshot", seq, got, ok, err)
			}
			ents, _ := os.ReadDir(dir)
			if len(ents) != 1 {
				t.Fatalf("directory holds %d files after the failed save, want 1", len(ents))
			}
		})
	}
	for i := uint64(1); i <= writes; i++ {
		run(fmt.Sprintf("write%d-eio", i), fault.Rule{Op: fault.OpWrite, Nth: i, Err: fault.ErrIO, Short: -1})
		run(fmt.Sprintf("write%d-enospc", i), fault.Rule{Op: fault.OpWrite, Nth: i, Err: fault.ErrNoSpace, Short: -1})
		run(fmt.Sprintf("write%d-torn", i), fault.Rule{Op: fault.OpWrite, Nth: i, Err: fault.ErrIO, Short: 3})
	}
	for i := uint64(1); i <= syncs; i++ {
		run(fmt.Sprintf("sync%d-eio", i), fault.Rule{Op: fault.OpSync, Nth: i, Err: fault.ErrIO})
	}
}
