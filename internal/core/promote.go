// Failover: in-place promotion of a follower to a primary.
//
// Promotion is epoch-fenced: every promotion bumps a monotonic term that
// is persisted in the new primary's first snapshot and stamped on the
// replication control plane. Followers refuse streams from a lower term
// (a resurrected stale primary), and the stale primary fences itself
// (ErrFenced) the moment the term gossip reaches it — so at most one
// primary per term can ever extend the acked history, which is the whole
// split-brain argument (DESIGN.md D15).
package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/storage"
)

// Promote converts the follower into a primary IN PLACE, under a new
// promotion term one higher than any it has seen:
//
//  1. the tail loop (Run) is canceled and drained — no record can be
//     applied concurrently with the conversion;
//  2. the follower's entire applied state is persisted as the first
//     snapshot in dataDir, numbered AppliedSeq and stamped with the new
//     term — the acked prefix it replicated IS the new history's base;
//  3. a fresh WAL is opened at that base and a group committer started;
//  4. the ErrReadOnly gate is lifted and a new read view published.
//
// The same System pointer keeps serving throughout: queries never stop,
// existing HTTP handlers (including /v1/replication/*) start serving the
// primary surface simply because the System now has a WAL. dataDir must
// not already hold a snapshot or a non-empty WAL — promotion begins a
// new durable lineage, it does not splice onto an old one. Promote is
// idempotent: a second call returns the already-established term.
func (r *Replica) Promote(dataDir string) (uint64, error) {
	if dataDir == "" {
		return 0, errors.New("core: promote requires a data directory")
	}
	if !r.promoted.CompareAndSwap(false, true) {
		return r.sys.Term(), nil
	}
	// Stop the tail loop and wait it out. promoted is already latched,
	// so a Run racing this promotion either sees the flag and returns
	// or registered its cancel func first and is stopped here.
	r.runMu.Lock()
	cancel, done := r.runCancel, r.runDone
	r.runMu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
	newTerm := r.termHigh.Load() + 1
	if t := r.sys.Term(); t >= newTerm {
		newTerm = t + 1
	}
	if err := r.sys.promote(dataDir, newTerm, r.appliedSeq.Load()); err != nil {
		r.promoted.Store(false)
		return 0, err
	}
	storeMax(&r.termHigh, newTerm)
	r.connected.Store(false)
	r.markFresh()
	return newTerm, nil
}

// promote is the System half of Replica.Promote: persist the applied
// state as the new lineage's first snapshot, open a fresh WAL at its
// sequence, and lift the read-only gate — all in one write critical
// section, so no reader ever sees a half-converted System.
func (s *System) promote(dataDir string, term, seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		return errors.New("core: promote: already a primary")
	}
	snaps, err := storage.NewSnapshotStore(filepath.Join(dataDir, "snapshots"))
	if err != nil {
		return err
	}
	if _, _, ok, err := snaps.Latest(); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("core: promote: %s already holds snapshots — promotion starts a new lineage and needs an empty data directory", dataDir)
	}
	walPath := filepath.Join(dataDir, "wal.log")
	if fi, err := os.Stat(walPath); err == nil && fi.Size() > 0 {
		return fmt.Errorf("core: promote: %s already holds a WAL — promotion starts a new lineage and needs an empty data directory", dataDir)
	}
	c, err := s.captureLocked() // committer is nil on a follower: a pure state capture
	if err != nil {
		return err
	}
	c.state.Seq = seq
	c.state.Term = term
	data, err := c.encode()
	if err != nil {
		return err
	}
	// The WAL opens only once the snapshot it starts from is durable.
	if err := snaps.Save(seq, data, 2); err != nil {
		return err
	}
	if err := s.openWAL(walPath, seq, nil); err != nil {
		return err
	}
	s.snaps = snaps
	s.term.Store(term)
	s.readOnly.Store(false)
	s.publishLocked()
	s.logMoved.fire()
	return nil
}
