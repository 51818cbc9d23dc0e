// Package core assembles the LTAM central control station of Fig. 3: the
// authorization database, the location & movements database, the user
// profile database, the access control engine and the query engine behind
// one System facade, with optional durability (write-ahead logging plus
// snapshots) and an optional positioning front-end.
//
// The privacy stance of §1 is enforced structurally: raw coordinates
// entering through ObserveReading are resolved to primitive locations
// inside the System and discarded; only movement events are stored or
// exposed.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/audit"
	"repro/internal/authz"
	"repro/internal/enforce"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/movement"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/storage"
)

// Config configures a System.
type Config struct {
	// Graph is the site's (multilevel) location graph. It may be nil
	// when DataDir holds a snapshot to recover it from.
	Graph *graph.Graph
	// Boundaries optionally enables the coordinate front-end
	// (ObserveReading); each primitive location used in readings needs a
	// boundary.
	Boundaries []geometry.Boundary
	// DataDir enables durability when non-empty: a WAL and snapshots
	// are kept there and recovered from on Open. Mutations enqueue their
	// records onto the asynchronous group committer and wait for a shared
	// fsync barrier after releasing the write lock — concurrent mutations
	// share one fsync, and readers are never blocked behind disk.
	DataDir string
	// AlertLimit bounds the in-memory alert log (0 = default).
	AlertLimit int
	// AutoDerive re-runs all rules after profile changes (Example 1's
	// automatic re-derivation). Defaults to true via Open.
	AutoDerive bool
	// WALWrap, when non-nil, wraps the WAL's backing file before any I/O
	// — the fault-injection seam (see internal/fault). Production leaves
	// it nil.
	WALWrap func(storage.File) storage.File
}

// System is the central control station.
//
// Concurrency: mutations take the write lock, which serialises them so
// that WAL order equals apply order. The write lock covers the in-memory
// apply, the enqueue of the WAL record, and the publication of a fresh
// read view; the fsync happens on the group committer's goroutine, and
// the mutation waits on its commit barrier after releasing the lock — so
// concurrent mutations share fsyncs and readers never queue behind disk.
// A mutation is acknowledged (its method returns nil) only after its
// records are durably on disk.
//
// Pure queries acquire no lock at all: each loads the current readView —
// an immutable capture of the sharded authorization store — and runs
// entirely against that snapshot (see view.go). Per-subject Algorithm-1
// results are memoized per (subject, window) and stay valid while the
// subject's authorizations are unchanged in the loaded view (DESIGN D2),
// so a write for one subject leaves every other subject's answer
// memoized.
type System struct {
	mu sync.RWMutex

	// view is the published snapshot all pure queries run against;
	// publishes counts publications (ViewStats).
	view      atomic.Pointer[readView]
	publishes atomic.Uint64

	root     *graph.Graph
	flat     *graph.Flat
	profiles *profile.DB
	store    *authz.Store
	moves    *movement.DB
	alerts   *audit.Log
	engine   *enforce.Engine
	ruleEng  *rules.Engine
	resolver *geometry.Resolver
	bounds   []geometry.Boundary
	cache    *query.Cache

	// wal is the durable log, positioned at the global sequence of the
	// latest snapshot: the coordinate system of the replication stream.
	wal       *storage.Log
	committer *storage.Committer
	snaps     *storage.SnapshotStore
	replaying bool
	// logMoved wakes the readers of this node's served log (ServedLog.
	// Changed) whenever its window may have moved: records became durable
	// (a commit barrier resolved) or applied (on a follower), or a
	// snapshot moved the base. It is a hint, not a count.
	logMoved logMoved
	// stagedSeq is the global sequence number of the last record staged
	// for durability (enqueued to the committer) — the trace coordinate
	// assigned under the write lock, ahead of the durable frontier by
	// whatever the committer still holds. Guarded by mu.
	stagedSeq uint64
	// trace is the end-to-end pipeline trace every stage stamps into
	// (see internal/obs). Always non-nil on a System built by Open or
	// the replica bootstrap.
	trace *obs.PipelineTrace

	// readOnly marks a follower System: every public mutator returns
	// ErrReadOnly, and the only mutation path is the replication apply
	// loop (Replica.ApplyRecord), which dispatches to the unexported
	// mutators directly. Set at construction; cleared exactly once by
	// promotion (Replica.Promote), which is why it is atomic — the
	// mutation gate reads it without the write lock.
	readOnly atomic.Bool
	// term is the promotion epoch this System writes at: 1 for a
	// primary that has never failed over, bumped by every promotion.
	// It is persisted in snapshots and stamped on the replication
	// control plane; followers use it to fence stale primaries.
	term atomic.Uint64
	// fencedBy latches the higher term this primary has learned of
	// (via replication-plane gossip), 0 while unfenced. A fenced
	// primary refuses every mutation with ErrFenced: some follower has
	// been promoted past it, and writing here would split the brain.
	fencedBy atomic.Uint64
	// autoDerive mirrors Config.AutoDerive so a replica can be built
	// with the exact derivation behavior of its primary (derived
	// authorizations are not logged — both sides must re-derive them
	// identically from profile.put/rule.add records).
	autoDerive bool

	closeOnce sync.Once
	closeErr  error
}

// epoch is the view generation: the sum of the two version counters.
// Each mutation bumps at least one of them, and both only grow, so the
// sum strictly increases across any state change a query can observe;
// publishLocked and currentView compare it to decide when a view is
// stale.
func (s *System) epoch() uint64 {
	return s.store.Version() + s.profiles.Version()
}

// record payloads.
type (
	idPayload       struct{ ID authz.ID }
	namePayload     struct{ Name string }
	subjPayload     struct{ ID profile.SubjectID }
	tickPayload     struct{ T interval.Time }
	strategyPayload struct{ Strategy int }
)

// snapshotState is the persisted full state: what a snapshot file holds
// and a follower bootstraps from (snapshot.go encodes it). The JSON tags
// read snapshots written before the binary encoding.
type snapshotState struct {
	// Seq is the global sequence number of the first WAL record NOT
	// covered by this snapshot — the cumulative count of records
	// compacted into it. It keeps snapshot numbering monotonic across
	// compactions (the WAL's own counter resets on Truncate) and anchors
	// the replication stream's coordinate system.
	Seq uint64 `json:"seq"`
	// Term is the promotion epoch the state was written under. Absent
	// (0) in pre-failover snapshots; Open normalizes that to 1.
	Term       uint64                `json:"term,omitempty"`
	Graph      graph.Spec            `json:"graph"`
	Profiles   []profile.Subject     `json:"profiles"`
	Auths      []authz.Authorization `json:"auths"`
	NextAuthID authz.ID              `json:"next_auth_id"`
	Rules      []rules.Spec          `json:"rules"`
	Events     []movement.Event      `json:"events"`
	Clock      interval.Time         `json:"clock"`
	// Boundaries carries the coordinate front-end's geometry so a
	// follower bootstrapped from this state can resolve raw readings
	// after a promotion. Absent for systems without boundaries.
	Boundaries []geometry.Boundary `json:"boundaries,omitempty"`
	// AutoDerive is the writer's rule-derivation mode, which a follower
	// must share; Semantics the replay version of the node that wrote the
	// state (0 in a JSON snapshot). Both ride the binary header only.
	AutoDerive bool   `json:"-"`
	Semantics  uint64 `json:"-"`
}

// newBareSystem allocates the empty databases every System starts from.
func newBareSystem() *System {
	return &System{
		profiles: profile.NewDB(),
		store:    authz.NewStore(),
		moves:    movement.NewDB(),
		alerts:   audit.NewLog(0),
		cache:    query.NewCache(0),
		trace:    obs.NewPipelineTrace(0),
	}
}

// Trace returns the system's pipeline trace (always non-nil).
func (s *System) Trace() *obs.PipelineTrace { return s.trace }

// Open builds a System from cfg, recovering from DataDir when set.
func Open(cfg Config) (*System, error) {
	s := newBareSystem()
	s.alerts = audit.NewLog(cfg.AlertLimit)
	s.term.Store(1)

	var snap snapshotState
	haveSnap := false
	if cfg.DataDir != "" {
		var err error
		s.snaps, err = storage.NewSnapshotStore(filepath.Join(cfg.DataDir, "snapshots"))
		if err != nil {
			return nil, err
		}
		seq, data, ok, err := s.snaps.Latest()
		if err != nil {
			return nil, err
		}
		if ok {
			if snap, err = decodeSnapshotFile(data); err != nil {
				return nil, fmt.Errorf("core: decode snapshot %d: %w", seq, err)
			}
			haveSnap = true
		}
	}

	// Resolve the graph: explicit config wins; otherwise the snapshot.
	switch {
	case cfg.Graph != nil:
		s.root = cfg.Graph
	case haveSnap:
		g, err := graph.FromSpec(snap.Graph)
		if err != nil {
			return nil, fmt.Errorf("core: recover graph: %w", err)
		}
		s.root = g
	default:
		return nil, errors.New("core: no location graph (set Config.Graph or recover from a snapshot)")
	}
	if err := s.root.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s.flat = graph.Expand(s.root)

	if len(cfg.Boundaries) > 0 {
		r, err := geometry.NewResolver(cfg.Boundaries)
		if err != nil {
			return nil, err
		}
		s.resolver = r
		s.bounds = cfg.Boundaries
	}

	if err := s.initEngines(cfg.AutoDerive); err != nil {
		return nil, err
	}

	// Restore the snapshot state.
	if haveSnap {
		if err := s.restoreSnapshot(snap); err != nil {
			return nil, err
		}
		if snap.Term > 0 {
			s.term.Store(snap.Term)
		}
	}

	// Replay the WAL suffix, then open it for appending.
	if cfg.DataDir != "" {
		walPath := filepath.Join(cfg.DataDir, "wal.log")
		s.replaying = true
		_, err := storage.Replay(walPath, s.apply)
		s.replaying = false
		if err != nil {
			return nil, fmt.Errorf("core: replay: %w", err)
		}
		if err := s.openWAL(walPath, snap.Seq, cfg.WALWrap); err != nil {
			return nil, err
		}
	}

	// Publish the initial read view: from here on every pure query runs
	// against a published snapshot.
	s.mu.Lock()
	s.publishLocked()
	s.mu.Unlock()
	return s, nil
}

// openWAL opens the log at walPath, whose first record is global
// sequence base, and starts the group committer over it — the one writer
// of every WAL record. The trace coordinate starts at the durable
// frontier (staged == durable while nothing is queued).
func (s *System) openWAL(walPath string, base uint64, wrap func(storage.File) storage.File) error {
	wal, err := storage.OpenWAL(walPath, base, wrap)
	if err != nil {
		return err
	}
	s.wal = wal
	s.committer = storage.NewCommitter(wal, s.trace)
	_, s.stagedSeq, _ = wal.Window()
	return nil
}

// initEngines wires the access control and rule engines over the graph
// and databases, recording the derivation mode for replication.
func (s *System) initEngines(autoDerive bool) error {
	eng, err := enforce.New(s.root, s.store, s.moves, s.alerts)
	if err != nil {
		return err
	}
	s.engine = eng
	s.autoDerive = autoDerive
	s.ruleEng = rules.NewEngine(s.store, s.profiles, s.root, autoDerive)
	return nil
}

// restoreSnapshot loads a persisted (or replication-bootstrap) state
// into the empty databases.
func (s *System) restoreSnapshot(snap snapshotState) error {
	if err := s.profiles.Restore(snap.Profiles); err != nil {
		return fmt.Errorf("core: recover profiles: %w", err)
	}
	if err := s.store.Restore(snap.Auths, snap.NextAuthID); err != nil {
		return fmt.Errorf("core: recover auths: %w", err)
	}
	for _, spec := range snap.Rules {
		r, err := spec.Compile()
		if err != nil {
			return fmt.Errorf("core: recover rule %q: %w", spec.Name, err)
		}
		if err := s.ruleEng.RestoreRule(r); err != nil {
			return err
		}
	}
	if err := s.moves.Restore(snap.Events); err != nil {
		return fmt.Errorf("core: recover movements: %w", err)
	}
	// Config.Boundaries wins; otherwise adopt the geometry the snapshot
	// carries so a follower (or a restart without the geometry file) can
	// still resolve raw readings.
	if s.resolver == nil && len(snap.Boundaries) > 0 {
		r, err := geometry.NewResolver(snap.Boundaries)
		if err != nil {
			return fmt.Errorf("core: recover boundaries: %w", err)
		}
		s.resolver = r
		s.bounds = snap.Boundaries
	}
	return s.engine.SetClock(snap.Clock)
}

// Close drains the group committer and closes the WAL. It is
// idempotent.
func (s *System) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.committer != nil {
			s.closeErr = s.committer.Close()
		}
		if s.wal != nil {
			if err := s.wal.Close(); s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// apply dispatches one WAL record: during recovery (replaying the local
// log suffix) and on a replica (applying the shipped stream). It calls
// the unexported mutators so the dispatch works on read-only followers,
// whose public mutators are gated by ErrReadOnly.
func (s *System) apply(rec storage.Record) error {
	switch rec.Type {
	case "profile.put":
		var sub profile.Subject
		if err := json.Unmarshal(rec.Data, &sub); err != nil {
			return err
		}
		return s.putSubject(sub)
	case "profile.remove":
		var p subjPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		return s.removeSubject(p.ID)
	case "authz.add":
		var a authz.Authorization
		if err := json.Unmarshal(rec.Data, &a); err != nil {
			return err
		}
		a.ID = 0 // re-assigned deterministically
		_, err := s.addAuthorization(a)
		return err
	case "authz.resolve":
		var p strategyPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		_, err := s.resolveConflicts(authz.Strategy(p.Strategy))
		return err
	case "authz.revoke":
		var p idPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		_, err := s.revokeAuthorization(p.ID)
		return err
	case "rule.add":
		var spec rules.Spec
		if err := json.Unmarshal(rec.Data, &spec); err != nil {
			return err
		}
		_, err := s.addRule(spec)
		return err
	case "rule.remove":
		var p namePayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		return s.removeRule(p.Name)
	case storage.TypeMoveEnter:
		m, err := storage.DecodeMove(rec.Data)
		if err != nil {
			return err
		}
		_, err = s.enter(interval.Time(m.T), profile.SubjectID(m.S), graph.ID(m.L))
		return err
	case storage.TypeMoveLeave:
		m, err := storage.DecodeMove(rec.Data)
		if err != nil {
			return err
		}
		return s.leave(interval.Time(m.T), profile.SubjectID(m.S))
	case "tick":
		var p tickPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		_, err := s.tick(p.T)
		return err
	default:
		return fmt.Errorf("core: unknown record type %q", rec.Type)
	}
}

// mutationGate is the admission check every public mutator runs BEFORE
// applying anything in memory. A follower rejects with ErrReadOnly; a
// primary whose group committer has latched a write or fsync failure
// rejects with ErrWALPoisoned — the in-memory state must not advance
// past a log that can no longer record it (fsyncgate: the failed sync is
// never retried). Pure queries are not gated: they serve the published
// view, which reflects only mutations that were still being logged.
func (s *System) mutationGate() error {
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	if by := s.fencedBy.Load(); by != 0 {
		return fmt.Errorf("%w (term %d fenced by term %d)", ErrFenced, s.term.Load(), by)
	}
	if s.committer != nil && s.committer.Poisoned() {
		return fmt.Errorf("%w: %v", storage.ErrWALPoisoned, s.committer.Err())
	}
	return nil
}

// ErrFenced is returned by every mutator of a primary that has learned —
// through replication-plane term gossip — of a higher promotion term.
// Some follower has been promoted past this node; continuing to accept
// writes would split the brain, so the node flips itself read-only. A
// fenced primary keeps serving queries from its published view and can
// rejoin the fleet only by re-bootstrapping as a follower of the new
// primary.
var ErrFenced = errors.New("core: primary fenced by a higher promotion term")

// Term returns the promotion epoch this System writes at (1 for a
// primary that has never failed over; followers mirror their primary's
// term).
func (s *System) Term() uint64 { return s.term.Load() }

// Fence latches the fenced state if term is strictly higher than this
// System's own promotion term, returning whether the node is now (or
// already was) fenced. Fencing is one-way: there is no unfence — a stale
// primary's only way back is re-bootstrapping as a follower.
func (s *System) Fence(term uint64) bool {
	if term > s.term.Load() {
		storeMax(&s.fencedBy, term)
	}
	return s.fencedBy.Load() != 0
}

// Fenced reports whether a higher promotion term has been observed.
func (s *System) Fenced() bool { return s.fencedBy.Load() != 0 }

// FencedBy returns the higher term that fenced this node (0 = unfenced).
func (s *System) FencedBy() uint64 { return s.fencedBy.Load() }

// Poisoned reports whether the WAL committer has latched a write/fsync
// failure and the System is degraded to read-only (mutations fail with
// ErrWALPoisoned; queries keep serving the published view). Always false
// without durability.
func (s *System) Poisoned() bool {
	return s.committer != nil && s.committer.Poisoned()
}

// CommitErr returns the committer's latched background failure — the
// root cause behind Poisoned — or nil when healthy (or not durable).
func (s *System) CommitErr() error {
	if s.committer == nil {
		return nil
	}
	return s.committer.Err()
}

// waitNil is the ready-made commit barrier of a mutation with nothing to
// log.
var waitNil = func() error { return nil }

// encodeRecord encodes a typed mutation payload into a WAL record: a
// storage.Move in the binary movement body, anything else as JSON.
func encodeRecord(typ string, v any) (storage.Record, error) {
	if m, ok := v.(storage.Move); ok {
		return storage.MoveRecord(typ, m)
	}
	data, err := json.Marshal(v)
	if err != nil {
		return storage.Record{}, err
	}
	return storage.Record{Type: typ, Data: data}, nil
}

// recordLocked encodes the WAL record of a mutation BEFORE the mutation
// is applied: a record the log would refuse (storage.ErrTooLarge) then
// refuses the mutation, so no reader sees a change no log holds, and the
// committer is not poisoned by it. There is no record without durability
// or during replay.
func (s *System) recordLocked(typ string, v any) ([]storage.Record, error) {
	if s.wal == nil || s.replaying {
		return nil, nil
	}
	rec, err := encodeRecord(typ, v)
	if err == nil {
		err = storage.CheckRecord(rec)
	}
	if err != nil {
		return nil, err
	}
	return []storage.Record{rec}, nil
}

// traceStagedLocked assigns each staged record its global sequence
// number and claims its pipeline-trace slot: the carried decode/gather
// stamps plus the apply instant land in the ring here, under the write
// lock — the same serialization that makes WAL order equal apply order
// makes the claims race-free. The committer stamps the later stages
// against these sequences.
func (s *System) traceStagedLocked(recs []storage.Record) {
	now := obs.Now()
	for i := range recs {
		s.stagedSeq++
		recs[i].Obs.Seq = s.stagedSeq
		s.trace.Begin(s.stagedSeq, recs[i].Obs.Stamps, now)
	}
}

// notifyAfter forwards a commit outcome, waking durability followers on
// success. A failed barrier is tagged with ErrWALPoisoned when the
// committer has latched: the barrier that carried the ORIGINAL
// write/fsync failure is just as poisoned as every one behind it, and
// callers (the server's 503 mapping in particular) should not have to
// distinguish the first victim from the stragglers.
func (s *System) notifyAfter(err error) error {
	if err == nil {
		s.logMoved.fire()
		return nil
	}
	if !errors.Is(err, storage.ErrWALPoisoned) && s.Poisoned() {
		return fmt.Errorf("%w (%w)", storage.ErrWALPoisoned, err)
	}
	return err
}

// logGroupLocked stages a pre-encoded record group for durability and
// publishes the post-mutation read view. Callers hold the write lock,
// which is what makes WAL order equal apply order: groups are enqueued
// to the committer in lock-hold order, and the view published here
// always reflects every record staged so far. The whole group is one
// committer unit, costing one fsync. The returned wait function is the
// commit barrier — call it AFTER releasing the write lock, so the fsync
// (shared with every other mutation in the same batch) never blocks
// readers or other writers.
func (s *System) logGroupLocked(recs []storage.Record) func() error {
	s.publishLocked()
	if s.wal == nil || s.replaying || len(recs) == 0 {
		return waitNil
	}
	s.traceStagedLocked(recs)
	ch := s.committer.Commit(recs...)
	return func() error { return s.notifyAfter(<-ch) }
}

// --- Profile administration -------------------------------------------

// PutSubject inserts or updates a user profile.
func (s *System) PutSubject(sub profile.Subject) error {
	if err := s.mutationGate(); err != nil {
		return err
	}
	return s.putSubject(sub)
}

func (s *System) putSubject(sub profile.Subject) error {
	s.mu.Lock()
	recs, err := s.recordLocked("profile.put", sub)
	if err == nil {
		err = s.profiles.Put(sub)
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	wait := s.logGroupLocked(recs)
	s.mu.Unlock()
	return wait()
}

// RemoveSubject deletes a user profile.
func (s *System) RemoveSubject(id profile.SubjectID) error {
	if err := s.mutationGate(); err != nil {
		return err
	}
	return s.removeSubject(id)
}

func (s *System) removeSubject(id profile.SubjectID) error {
	s.mu.Lock()
	recs, err := s.recordLocked("profile.remove", subjPayload{ID: id})
	if err == nil {
		err = s.profiles.Remove(id)
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	wait := s.logGroupLocked(recs)
	s.mu.Unlock()
	return wait()
}

// GetSubject returns a user profile. Profile reads go to the live,
// internally-synchronized database — no System lock.
func (s *System) GetSubject(id profile.SubjectID) (profile.Subject, error) {
	return s.profiles.Get(id)
}

// Subjects lists all subject IDs.
func (s *System) Subjects() []profile.SubjectID {
	return s.profiles.Subjects()
}

// --- Authorization administration ---------------------------------------

// AddAuthorization validates that the location is a primitive location of
// the site graph, stores the authorization, and logs it.
func (s *System) AddAuthorization(a authz.Authorization) (authz.Authorization, error) {
	if err := s.mutationGate(); err != nil {
		return authz.Authorization{}, err
	}
	return s.addAuthorization(a)
}

func (s *System) addAuthorization(a authz.Authorization) (authz.Authorization, error) {
	s.mu.Lock()
	if _, ok := s.flat.Index[a.Location]; !ok {
		s.mu.Unlock()
		return authz.Authorization{}, fmt.Errorf("core: %q is not a primitive location of %q", a.Location, s.root.Name())
	}
	// The store normalizes a and numbers it NextID; under the write lock
	// that is the value the record logs.
	stored := a.Normalize()
	stored.ID = s.store.NextID()
	recs, err := s.recordLocked("authz.add", stored)
	if err == nil {
		stored, err = s.store.Add(a)
	}
	if err != nil {
		s.mu.Unlock()
		return authz.Authorization{}, err
	}
	wait := s.logGroupLocked(recs)
	s.mu.Unlock()
	if err := wait(); err != nil {
		return authz.Authorization{}, err
	}
	return stored, nil
}

// RevokeAuthorization revokes an authorization and everything derived
// from it, returning how many were removed.
func (s *System) RevokeAuthorization(id authz.ID) (int, error) {
	if err := s.mutationGate(); err != nil {
		return 0, err
	}
	return s.revokeAuthorization(id)
}

func (s *System) revokeAuthorization(id authz.ID) (int, error) {
	s.mu.Lock()
	recs, err := s.recordLocked("authz.revoke", idPayload{ID: id})
	var n int
	if err == nil {
		n, err = s.ruleEng.RevokeBase(id)
	}
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	wait := s.logGroupLocked(recs)
	s.mu.Unlock()
	return n, wait()
}

// Authorizations lists every stored authorization, as of the published
// read view.
func (s *System) Authorizations() []authz.Authorization {
	return s.currentView().auths.All()
}

// AuthorizationsFor lists the authorizations of subject sub at location l.
func (s *System) AuthorizationsFor(sub profile.SubjectID, l graph.ID) []authz.Authorization {
	return s.currentView().auths.For(sub, l)
}

// Conflicts reports duplicate/overlapping/adjacent authorization pairs,
// scanning one consistent store snapshot.
func (s *System) Conflicts() []authz.Conflict {
	return s.currentView().auths.FindConflicts()
}

// ResolveConflicts applies the strategy to every detected conflict among
// administrator-defined authorizations (the paper's two §4 options:
// combining, or discarding one). The resolution is durably logged.
func (s *System) ResolveConflicts(strategy authz.Strategy) ([]authz.Resolution, error) {
	if err := s.mutationGate(); err != nil {
		return nil, err
	}
	return s.resolveConflicts(strategy)
}

func (s *System) resolveConflicts(strategy authz.Strategy) ([]authz.Resolution, error) {
	s.mu.Lock()
	recs, err := s.recordLocked("authz.resolve", strategyPayload{Strategy: int(strategy)})
	var res []authz.Resolution
	if err == nil {
		res, err = s.store.ResolveConflicts(strategy)
	}
	if err != nil || len(res) == 0 {
		s.mu.Unlock()
		return res, err
	}
	wait := s.logGroupLocked(recs)
	s.mu.Unlock()
	return res, wait()
}

// --- Rules ---------------------------------------------------------------

// AddRule compiles, registers and immediately derives the rule.
func (s *System) AddRule(spec rules.Spec) (rules.Report, error) {
	if err := s.mutationGate(); err != nil {
		return rules.Report{}, err
	}
	return s.addRule(spec)
}

func (s *System) addRule(spec rules.Spec) (rules.Report, error) {
	s.mu.Lock()
	recs, err := s.recordLocked("rule.add", spec)
	var r rules.Rule
	if err == nil {
		r, err = spec.Compile()
	}
	var rep rules.Report
	if err == nil {
		rep, err = s.ruleEng.AddRule(r)
	}
	if err != nil {
		s.mu.Unlock()
		return rules.Report{}, err
	}
	wait := s.logGroupLocked(recs)
	s.mu.Unlock()
	return rep, wait()
}

// RemoveRule deletes a rule and revokes its derivations.
func (s *System) RemoveRule(name string) error {
	if err := s.mutationGate(); err != nil {
		return err
	}
	return s.removeRule(name)
}

func (s *System) removeRule(name string) error {
	s.mu.Lock()
	recs, err := s.recordLocked("rule.remove", namePayload{Name: name})
	if err == nil {
		err = s.ruleEng.RemoveRule(name)
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	wait := s.logGroupLocked(recs)
	s.mu.Unlock()
	return wait()
}

// Rules lists the registered rules.
func (s *System) Rules() []rules.Rule {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ruleEng.Rules()
}

// RuleEngine exposes the rule engine for programmatic (non-persistent)
// customized operators. Mutations through it bypass the System write
// lock and the WAL: they are epoch-safe (the store bumps its version),
// but are not atomic with respect to concurrent readers — use it for
// setup before serving traffic, or mutate via System methods.
func (s *System) RuleEngine() *rules.Engine { return s.ruleEng }

// --- Enforcement -----------------------------------------------------------

// Request evaluates the access request (t, sub, l) — Definition 6/7.
// Requests are pure reads evaluated against the published view's
// authorization snapshot (plus an atomic monotonic clock advance), so a
// fan-in of concurrent card-reader requests shares no mutex: the only
// lock on any decision path is the movement database's internal read
// lock, and only for entry-count-limited authorizations.
func (s *System) Request(t interval.Time, sub profile.SubjectID, l graph.ID) enforce.Decision {
	return s.engine.RequestIn(s.currentView().auths, t, sub, l)
}

// Query is Request without side effects.
func (s *System) Query(t interval.Time, sub profile.SubjectID, l graph.ID) enforce.Decision {
	return s.engine.QueryIn(s.currentView().auths, t, sub, l)
}

// Enter records subject sub entering location l at time t.
func (s *System) Enter(t interval.Time, sub profile.SubjectID, l graph.ID) (enforce.Decision, error) {
	if err := s.mutationGate(); err != nil {
		return enforce.Decision{}, err
	}
	return s.enter(t, sub, l)
}

func (s *System) enter(t interval.Time, sub profile.SubjectID, l graph.ID) (enforce.Decision, error) {
	s.mu.Lock()
	recs, err := s.recordLocked(storage.TypeMoveEnter, storage.Move{T: int64(t), S: string(sub), L: string(l)})
	var d enforce.Decision
	if err == nil {
		d, err = s.engine.Enter(t, sub, l)
	}
	if err != nil {
		s.mu.Unlock()
		return d, err
	}
	wait := s.logGroupLocked(recs)
	s.mu.Unlock()
	return d, wait()
}

// Leave records subject sub leaving its current location at time t.
func (s *System) Leave(t interval.Time, sub profile.SubjectID) error {
	if err := s.mutationGate(); err != nil {
		return err
	}
	return s.leave(t, sub)
}

func (s *System) leave(t interval.Time, sub profile.SubjectID) error {
	s.mu.Lock()
	// The departed location rides in the record for event-feed consumers
	// (a location filter must see leaves too); replay ignores it.
	from, _ := s.moves.CurrentLocation(sub)
	recs, err := s.recordLocked(storage.TypeMoveLeave, storage.Move{T: int64(t), S: string(sub), L: string(from)})
	if err == nil {
		err = s.engine.Leave(t, sub)
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	wait := s.logGroupLocked(recs)
	s.mu.Unlock()
	return wait()
}

// Tick advances the clock and runs the overstay monitor.
func (s *System) Tick(t interval.Time) ([]audit.Alert, error) {
	if err := s.mutationGate(); err != nil {
		return nil, err
	}
	return s.tick(t)
}

func (s *System) tick(t interval.Time) ([]audit.Alert, error) {
	s.mu.Lock()
	recs, err := s.recordLocked("tick", tickPayload{T: t})
	var raised []audit.Alert
	if err == nil {
		raised, err = s.engine.Tick(t)
	}
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	wait := s.logGroupLocked(recs)
	s.mu.Unlock()
	return raised, wait()
}

// Reading is one positioning sample for the ingest path: where subject
// Subject was observed at logical time Time.
type Reading struct {
	Time    interval.Time
	Subject profile.SubjectID
	At      geometry.Point
	// Stamps carries the streaming-ingest trace instants (decode,
	// gather) by value; zero on the request/response paths.
	Stamps obs.FrameStamps
}

// ObserveOutcome reports the application of one Reading from a batch.
type ObserveOutcome struct {
	// Decision is the Def.-7 outcome when the reading produced an entry.
	Decision enforce.Decision
	// Moved reports whether the reading produced a movement (an entry or
	// an exit); a reading that keeps the subject where it was is a no-op.
	Moved bool
	// Entered distinguishes the movement kind: true for an entry (the
	// Decision is that entry's Def.-7 outcome), false for an exit (the
	// Decision is zero — leaving is not an access decision).
	Entered bool
	// Err is the per-reading application error (e.g. a time regression);
	// the rest of the batch is unaffected.
	Err error
}

// ObserveReading ingests one positioning sample: the coordinate is
// resolved to a primitive location (or outside) and converted into the
// corresponding movement, if any. The coordinate itself is discarded —
// the §1 privacy boundary.
//
// The subject's current location is read under the write lock, in the
// same critical section that applies the movement, so concurrent
// positioning feeds cannot derive an Enter/Leave from a stale location.
func (s *System) ObserveReading(t interval.Time, sub profile.SubjectID, at geometry.Point) (enforce.Decision, bool, error) {
	if err := s.mutationGate(); err != nil {
		return enforce.Decision{}, false, err
	}
	if s.resolver == nil {
		return enforce.Decision{}, false, errors.New("core: no boundaries configured")
	}
	s.mu.Lock()
	out, recs := s.applyBatch([]Reading{{Time: t, Subject: sub, At: at}})
	wait := s.logGroupLocked(recs)
	s.mu.Unlock()
	if out[0].Err != nil {
		return out[0].Decision, false, out[0].Err
	}
	return out[0].Decision, out[0].Moved, wait()
}

// ObserveBatch ingests a batch of positioning samples in one critical
// section: the write lock is taken once, each reading is resolved and
// applied in order (reading the subject's current location under the
// lock), and every resulting movement is logged as a single WAL group —
// one fsync for the whole batch instead of one per movement. This is the
// high-rate ingest path for positioning feeds that deliver thousands of
// Enter/Leave readings per second.
//
// Per-reading failures (e.g. a time regression) are reported in the
// corresponding ObserveOutcome.Err and do not abort the batch; only the
// movements that applied are logged. The returned error is the batch
// durability error: if non-nil, the in-memory state includes the batch
// but the WAL group was not acknowledged.
func (s *System) ObserveBatch(readings []Reading) ([]ObserveOutcome, error) {
	if err := s.mutationGate(); err != nil {
		return nil, err
	}
	if s.resolver == nil {
		return nil, errors.New("core: no boundaries configured")
	}
	if len(readings) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	out, recs := s.applyBatch(readings)
	wait := s.logGroupLocked(recs)
	s.mu.Unlock()
	return out, wait()
}

// applyBatch applies each reading against the movement state and returns
// the per-reading outcomes plus the WAL records of the movements that
// were actually applied, in apply order. Callers hold the write lock.
func (s *System) applyBatch(readings []Reading) ([]ObserveOutcome, []storage.Record) {
	out := make([]ObserveOutcome, len(readings))
	recs := make([]storage.Record, 0, len(readings))
	// The movement bodies share one buffer. Each record's Data is capped
	// to its own bytes, and a regrown buffer leaves the earlier bodies in
	// the old array, so no record's Data is overwritten.
	var buf []byte
	logMove := func(typ string, r Reading, l graph.ID) {
		if s.wal == nil || s.replaying {
			return
		}
		start := len(buf)
		// typ is a movement type, so the append cannot fail.
		buf, _ = storage.AppendMove(buf, typ, storage.Move{T: int64(r.Time), S: string(r.Subject), L: string(l)})
		recs = append(recs, storage.Record{Type: typ, Data: buf[start:len(buf):len(buf)], Obs: storage.RecordObs{Stamps: r.Stamps}})
	}
	for i, r := range readings {
		loc := graph.ID(s.resolver.Resolve(r.At))
		cur, inside := s.moves.CurrentLocation(r.Subject)
		switch {
		case loc == "" && !inside:
			// Outside and observed outside: nothing to record.
		case loc == "" && inside:
			if err := s.engine.Leave(r.Time, r.Subject); err != nil {
				out[i].Err = err
				continue
			}
			out[i].Moved = true
			// cur is the departed location, for the event feed.
			logMove(storage.TypeMoveLeave, r, cur)
		case inside && loc == cur:
			// Still in the same room: a no-op sample.
		default:
			d, err := s.engine.Enter(r.Time, r.Subject, loc)
			out[i].Decision = d
			if err != nil {
				out[i].Err = err
				continue
			}
			out[i].Moved = true
			out[i].Entered = true
			logMove(storage.TypeMoveEnter, r, loc)
		}
	}
	return out, recs
}

// --- Queries -----------------------------------------------------------------

// Inaccessible runs Algorithm 1 for the subject over the whole site.
// Repeated queries between mutations are served from the view's memo
// table with zero lock acquisitions; the returned slice is shared with
// other callers and must be treated as read-only.
func (s *System) Inaccessible(sub profile.SubjectID) []graph.ID {
	return s.currentView().result(sub, query.Options{}).Inaccessible
}

// InaccessibleTrace runs Algorithm 1 with a Table-2-style trace. Traced
// runs always recompute (the trace is the product, not the answer).
func (s *System) InaccessibleTrace(sub profile.SubjectID) query.Result {
	v := s.currentView()
	return query.FindInaccessible(v.flat, v.auths, sub, query.Options{Trace: true})
}

// InaccessibleDuring restricts Algorithm 1 to visits starting within
// window (§6's access request duration). Like Inaccessible, the
// returned slice is shared with other callers — read-only.
func (s *System) InaccessibleDuring(sub profile.SubjectID, window interval.Interval) []graph.ID {
	return s.currentView().result(sub, query.Options{Window: window}).Inaccessible
}

// Accessible is the complement query of §5. It shares the memoized
// Algorithm-1 run with Inaccessible rather than recomputing it; the
// returned slice is shared with other callers — read-only.
func (s *System) Accessible(sub profile.SubjectID) []graph.ID {
	return s.currentView().result(sub, query.Options{}).Accessible
}

// Partition returns both halves of the §5 answer for sub, the
// inaccessible and the accessible locations, from one memoized
// Algorithm-1 run on one view, so together they always partition the
// site even while grants land. Both slices are shared — read-only.
func (s *System) Partition(sub profile.SubjectID) (inaccessible, accessible []graph.ID) {
	res := s.currentView().result(sub, query.Options{})
	return res.Inaccessible, res.Accessible
}

// EarliestAccess returns the earliest time sub can be inside l via an
// authorized route, and whether l is reachable at all. It reads the
// memoized Algorithm-1 state: T^g(l) is exactly the set of instants at
// which sub can be granted entry to l along some authorized route.
func (s *System) EarliestAccess(sub profile.SubjectID, l graph.ID) (interval.Time, bool) {
	return s.currentView().earliestAccess(sub, l)
}

func (v *readView) earliestAccess(sub profile.SubjectID, l graph.ID) (interval.Time, bool) {
	if _, known := v.flat.Index[l]; !known {
		return 0, false
	}
	return v.result(sub, query.Options{}).States[l].Grant.Earliest()
}

// WhoCanAccess returns every known subject (profiles plus authorization
// holders) who can reach location l via an authorized route. Each
// subject's reachability comes from its memoized Algorithm-1 run, so on
// a warm cache the inverse query costs one map lookup per subject.
func (s *System) WhoCanAccess(l graph.ID) []profile.SubjectID {
	v := s.currentView()
	if _, known := v.flat.Index[l]; !known {
		return nil
	}
	subjects := append(v.profiles.Subjects(), v.auths.Subjects()...)
	out := query.WhoCanAccessBy(subjects, func(sub profile.SubjectID) bool {
		_, ok := v.earliestAccess(sub, l)
		return ok
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InaccessibleMultilevel runs the Lemma-1 hierarchical solver.
func (s *System) InaccessibleMultilevel(sub profile.SubjectID) query.MultilevelResult {
	v := s.currentView()
	return query.FindInaccessibleMultilevel(v.root, v.auths, sub)
}

// CheckRoute evaluates the §6 authorized-route definition.
func (s *System) CheckRoute(sub profile.SubjectID, r graph.Route, window interval.Interval) query.RouteCheck {
	return query.CheckRoute(s.currentView().auths, sub, r, window)
}

// CheckItinerary validates a concrete visit schedule (explicit arrive and
// depart times per location) against topology and authorizations.
func (s *System) CheckItinerary(sub profile.SubjectID, visits []query.Visit) query.ItineraryCheck {
	v := s.currentView()
	return query.CheckItinerary(v.flat, v.auths, sub, visits)
}

// WhereIs reports a subject's current location. Presence and history
// queries read the live, internally-synchronized movement database — no
// System lock; a query overlapping an in-flight movement linearizes to
// one side of it.
func (s *System) WhereIs(sub profile.SubjectID) (graph.ID, bool) {
	return s.engine.WhereIs(sub)
}

// Occupants reports who is inside a location now.
func (s *System) Occupants(l graph.ID) []profile.SubjectID {
	return s.engine.Occupants(l)
}

// ContactsOf runs the §1 contact-tracing query.
func (s *System) ContactsOf(sub profile.SubjectID, window interval.Interval) []movement.Contact {
	return s.moves.ContactsOf(sub, window)
}

// History returns a subject's stints.
func (s *System) History(sub profile.SubjectID) []movement.Stint {
	return s.moves.History(sub)
}

// WhoWasIn returns the subjects present in l during window.
func (s *System) WhoWasIn(l graph.ID, window interval.Interval) []profile.SubjectID {
	return s.moves.WhoWasIn(l, window)
}

// QueryCacheStats reports the Algorithm-1 memo's hit/miss/flush counters —
// the observability hook behind the server's /v1/stats endpoint.
func (s *System) QueryCacheStats() query.CacheStats { return s.cache.Stats() }

// CommitStats reports the group committer's batching counters (zero
// without durability).
func (s *System) CommitStats() storage.CommitterStats {
	if s.committer == nil {
		return storage.CommitterStats{}
	}
	return s.committer.Stats()
}

// Alerts returns the alert log.
func (s *System) Alerts() *audit.Log { return s.alerts }

// Graph returns the site graph; Flat its expansion.
func (s *System) Graph() *graph.Graph { return s.root }

// Flat returns the expanded primitive-location graph.
func (s *System) Flat() *graph.Flat { return s.flat }

// Movements exposes the movement database (read-side).
func (s *System) Movements() *movement.DB { return s.moves }

// AuthStore exposes the authorization database (read-side and benches).
// Direct mutations are epoch-safe but skip the System write lock and
// the WAL; prefer System methods.
func (s *System) AuthStore() *authz.Store { return s.store }

// Profiles exposes the profile database. Mutate via System methods when
// durability matters; direct mutations also skip the System write lock
// (though they remain epoch-safe).
func (s *System) Profiles() *profile.DB { return s.profiles }

// Clock returns the engine's logical time.
func (s *System) Clock() interval.Time { return s.engine.Now() }

// Snapshot persists the full state and compacts the WAL. It requires
// durability to be enabled.
func (s *System) Snapshot() error {
	if err := s.mutationGate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snaps == nil || s.wal == nil {
		return errors.New("core: durability not enabled")
	}
	c, err := s.captureLocked()
	if err != nil {
		return err
	}
	// Number the snapshot with the CUMULATIVE record count, not the
	// current WAL length: the WAL counter resets on every Reset, so
	// per-compaction numbering would eventually go backwards and make
	// SnapshotStore.Latest pick a stale snapshot. The cumulative count is
	// also the global sequence the replication stream resumes from; the
	// flush in captureLocked made every record durable.
	_, newBase, _ := s.wal.Window()
	c.state.Seq = newBase
	// The encoding stays under the lock: Reset drops the whole log, so
	// no record may be appended between the cut and the truncation.
	data, err := c.encode()
	if err != nil {
		return err
	}
	// Save returns only once the snapshot is durable; until then the WAL
	// is the only durable copy of what it covers.
	if err := s.snaps.Save(newBase, data, 2); err != nil {
		return err
	}
	if err := s.wal.Reset(newBase); err != nil {
		return err
	}
	// The base moved: wake followers so they re-resolve their position.
	s.logMoved.fire()
	return nil
}

// Capture is one consistent cut of a node's state: what a snapshot file
// holds and what a follower bootstraps from. The cut is taken under the
// write lock; the work that grows with the state — materializing the
// authorization view and the movement log, and encoding — runs after
// the lock is released, in WriteTo.
type Capture struct {
	state snapshotState
	auths *authz.View
	moves *movement.Frozen
	root  *graph.Graph
}

// Seq is the global sequence number of the first record after the cut.
func (c *Capture) Seq() uint64 { return c.state.Seq }

// WriteTo writes the snapshot encoding of the cut to w.
func (c *Capture) WriteTo(w io.Writer) (int64, error) {
	data, err := c.encode()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}

// encode returns the snapshot encoding of the cut.
func (c *Capture) encode() ([]byte, error) {
	st := c.state
	st.Auths = c.auths.All()
	st.Graph = graph.ToSpec(c.root)
	return encodeSnapshotOf(&st, c.moves.All(), c.moves.Len())
}

// captureLocked cuts the full state. Callers hold the write lock and set
// the cut's Seq. It drains the group committer first: the cut already
// contains every enqueued mutation, so any record still in the queue
// must reach the WAL before the cut's sequence number is read (and, for
// Snapshot, before Reset). The write lock keeps new records from
// being enqueued behind the flush. The authorization view and the graph
// are immutable; everything else is copied.
func (s *System) captureLocked() (*Capture, error) {
	if s.committer != nil {
		if err := s.committer.Flush(); err != nil {
			return nil, err
		}
	}
	c := &Capture{
		state: snapshotState{
			Term:       s.term.Load(),
			Profiles:   s.profiles.Snapshot(),
			NextAuthID: s.store.NextID(),
			Clock:      s.engine.Now(),
			Boundaries: s.bounds,
			AutoDerive: s.autoDerive,
		},
		auths: s.store.View(),
		moves: s.moves.Freeze(),
		root:  s.root,
	}
	for _, r := range s.ruleEng.Rules() {
		spec, ok := rules.SpecOf(r)
		if !ok {
			return nil, fmt.Errorf("core: rule %q uses customized operators and cannot be persisted", r.Name)
		}
		c.state.Rules = append(c.state.Rules, spec)
	}
	return c, nil
}

// --- Replication (primary side) ----------------------------------------

// ReplicationInfo describes the primary's position in the global record
// sequence: BaseSeq is the sequence of the first record in the current
// WAL (everything before it is compacted into the latest snapshot), and
// TotalSeq the sequence after the last FSYNCED record — the stream ships
// only durable records, so a primary crash can never retract a sequence
// number a follower has already applied.
type ReplicationInfo struct {
	Durable  bool   `json:"durable"`
	BaseSeq  uint64 `json:"base_seq"`
	TotalSeq uint64 `json:"total_seq"`
	// Term is the promotion epoch the records are written under.
	Term uint64 `json:"term"`
}

// ReplicationInfo reports the log-shipping coordinates: the WAL's
// window (see storage.Log.Window) and the term.
func (s *System) ReplicationInfo() ReplicationInfo {
	if s.wal == nil {
		return ReplicationInfo{}
	}
	base, total, _ := s.wal.Window()
	return ReplicationInfo{Durable: true, BaseSeq: base, TotalSeq: total, Term: s.term.Load()}
}

// WALPath returns the live log's file path (empty without durability) —
// what a same-host follower or the replication stream endpoint tails.
func (s *System) WALPath() string {
	if s.wal == nil {
		return ""
	}
	return s.wal.Path()
}

// CaptureBootstrap cuts the full state a follower needs to start
// replicating, stamped with the global sequence number the follower
// tails from; the caller encodes it with WriteTo, off the write lock.
// The cut flushes the group committer, so every acknowledged mutation is
// either inside the state or after its Seq in the WAL — never both,
// never neither.
func (s *System) CaptureBootstrap() (*Capture, error) {
	if s.wal == nil {
		return nil, errors.New("core: replication requires durability (set Config.DataDir)")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.captureLocked()
	if err != nil {
		return nil, err
	}
	// The cut includes every applied mutation, and the flush above made
	// every one of them durable, so the durable frontier counts them all.
	_, c.state.Seq, _ = s.wal.Window()
	return c, nil
}
