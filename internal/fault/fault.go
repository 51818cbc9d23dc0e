// Package fault is the deterministic fault-injection layer: the failure
// analogue of a test fixture. It provides two seams —
//
//   - File: a wrapper for the WAL's backing file that fails a chosen
//     write or sync (EIO, ENOSPC, short write) at an exact operation
//     index, so the crash matrix can prove acked-prefix durability under
//     a fault injected at EVERY write and sync site, not just the ones a
//     hand-written test thought of; and
//   - Proxy (see proxy.go): a chaos TCP forwarder that kills, delays or
//     blackholes live connections, so streaming clients' resume protocol
//     is exercised against real connection loss.
//
// Determinism is the point: a Plan names the Nth operation to fail, the
// run is replayable, and a failing seed is a bug report. Nothing in this
// package sleeps or rolls dice.
package fault

import (
	"errors"
	"io"
	"sync"
)

// Injected errors. Distinct named values so tests can assert the exact
// fault they planted is the one that surfaced (errors.Is through every
// wrapping layer).
var (
	// ErrIO models EIO: the device rejected the operation.
	ErrIO = errors.New("fault: injected I/O error (EIO)")
	// ErrNoSpace models ENOSPC: the device is full.
	ErrNoSpace = errors.New("fault: injected no-space error (ENOSPC)")
)

// Op selects which file operation a rule arms.
type Op int

const (
	// OpWrite counts Write calls on the wrapped file: one per log
	// Append, whatever the number of records it carries.
	OpWrite Op = iota
	// OpSync counts Sync (fsync) calls.
	OpSync
)

func (o Op) String() string {
	if o == OpSync {
		return "sync"
	}
	return "write"
}

// Rule arms one deterministic fault: the Nth operation of kind Op
// (1-based) fails with Err. For OpWrite, Short >= 0 additionally makes
// the failing call a SHORT write — Short bytes reach the file before the
// error — modelling a torn page. Short < 0 fails before writing
// anything.
type Rule struct {
	Op    Op
	Nth   uint64
	Err   error
	Short int
}

// File wraps a backing file (anything with the WAL's file surface) and
// applies Rules deterministically. It also counts operations, so a
// counting pass with no rules discovers how many injection sites a
// workload has. Safe for concurrent use.
type File struct {
	mu     sync.Mutex
	f      backing
	rules  []Rule
	writes uint64
	syncs  uint64
	// sticky holds the first injected error; once a fault fires, every
	// later write and sync fails with it too. A real disk that returned
	// EIO does not come back healthy for the next append, and the
	// committer must not be able to "write past" the hole.
	sticky error
}

// backing is the file surface File wraps — structurally identical to
// storage.File, declared locally so this package does not import
// storage (the dependency points the other way in tests).
type backing interface {
	io.Reader
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// NewFile wraps f. Rules with Nth=0 never fire.
func NewFile(f backing, rules ...Rule) *File {
	return &File{f: f, rules: rules}
}

// Counts reports how many writes and syncs the file has seen — the size
// of the injection matrix for the workload that just ran.
func (f *File) Counts() (writes, syncs uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes, f.syncs
}

// ruleFor returns the armed rule for the n-th op of kind o, if any.
func (f *File) ruleFor(o Op, n uint64) *Rule {
	for i := range f.rules {
		r := &f.rules[i]
		if r.Op == o && r.Nth == n {
			return r
		}
	}
	return nil
}

func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	if f.sticky != nil {
		return 0, f.sticky
	}
	if r := f.ruleFor(OpWrite, f.writes); r != nil {
		f.sticky = r.Err
		n := 0
		if r.Short > 0 {
			short := r.Short
			if short > len(p) {
				short = len(p)
			}
			n, _ = f.f.Write(p[:short])
		}
		return n, r.Err
	}
	return f.f.Write(p)
}

func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs++
	if f.sticky != nil {
		return f.sticky
	}
	if r := f.ruleFor(OpSync, f.syncs); r != nil {
		f.sticky = r.Err
		return r.Err
	}
	return f.f.Sync()
}

func (f *File) Read(p []byte) (int, error) { return f.f.Read(p) }

func (f *File) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sticky != nil {
		return f.sticky
	}
	return f.f.Truncate(size)
}

// Close closes the backing file. Recovery scans reopen the path fresh,
// so Close itself is not a fault site.
func (f *File) Close() error { return f.f.Close() }
