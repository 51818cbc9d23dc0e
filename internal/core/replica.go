// Read-only replica mode: a follower System whose only mutation path is
// the primary's WAL, shipped record by record and applied in log order.
//
// The design is classic primary/follower log shipping: one durable log,
// deterministic replay. A follower bootstraps from a snapshot of the
// primary's state (tagged with the global sequence number of the next
// WAL record), then tails the log from that sequence, applying each
// record through the same dispatch that crash recovery uses. Every
// applied record publishes a fresh readView, so ALL existing lock-free
// query paths work unchanged on the follower — a replica serves exactly
// the snapshots the primary would have served at the same sequence
// number. Public mutators return ErrReadOnly; consistency is therefore
// "a prefix of the primary's history, with bounded staleness" (see
// DESIGN.md D11).
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/storage"
)

// ErrReadOnly is returned by every public mutator of a replica System.
// The only mutation path on a follower is Replica.ApplyRecord.
var ErrReadOnly = errors.New("core: read-only replica (mutate on the primary)")

// ErrBootstrapRequired reports that the primary compacted its WAL past
// the replica's applied position: the stream cannot be resumed, and the
// follower must be rebuilt from a fresh bootstrap. Run self-heals this
// case in place (Rebootstrap) unless RunConfig.DisableSelfHeal is set,
// in which case it returns this error and the operator restarts the
// daemon.
var ErrBootstrapRequired = errors.New("core: replica fell behind a WAL compaction; fresh bootstrap required")

// ErrStaleTerm reports replication input from a primary whose promotion
// term is lower than the highest one this follower has seen: a
// resurrected stale primary is still shipping its pre-failover history.
// The frames are rejected WITHOUT being applied and without latching a
// divergence — the follower simply drops the stream and re-resolves
// toward the highest-term primary.
var ErrStaleTerm = errors.New("core: replication stream from a stale primary (lower promotion term)")

// ErrBootstrapMismatch reports a bootstrap this follower must not
// apply: state of another replay semantics or snapshot format (a node
// running a different version), or a re-bootstrap that is not a later
// point of the same primary's history — a different site graph or a
// different rule-derivation mode. Applying it would splice two unrelated
// histories, so the error is terminal: rebuild the follower or upgrade
// the nodes to one version.
var ErrBootstrapMismatch = errors.New("core: bootstrap state does not match this replica's site")

// ReplicaSource is where a follower pulls its state and stream from. The
// wire package adapts the HTTP client to it; LogSource adapts a
// same-process primary or cascading follower (tests, tools).
type ReplicaSource interface {
	// Bootstrap returns the primary's full state as a stream of the
	// snapshot encoding (snapshot.go), whose header carries the global
	// sequence number the follower should tail from and the primary's
	// rule-derivation mode. The caller reads it to the end and closes it.
	Bootstrap() (io.ReadCloser, error)
	// Tail streams records with global sequence numbers >= from, in
	// order, calling apply for each. It returns nil on a benign stream
	// end (the follower reconnects and resumes from its applied
	// sequence), storage.ErrSeqGap when from has been compacted away,
	// ctx.Err() on cancellation, and any error apply returned.
	Tail(ctx context.Context, from uint64, apply func(storage.Record) error) error
	// PrimarySeq reports the primary's current TotalSeq, for lag.
	PrimarySeq(ctx context.Context) (uint64, error)
	// SourceTerm returns the promotion term of the most recently opened
	// Tail stream (0 = unknown, trusted). One stream is always shipped
	// under one term — the serving node ends the stream if its term
	// changes — so a per-stream term is a per-frame term, and the Run loop
	// refuses records whose stream term is lower than the highest term
	// the follower has ever seen.
	SourceTerm() uint64
}

// Replica is a read-only follower: a System fed exclusively by the
// primary's WAL stream. Queries on System() are served from published
// readViews exactly as on the primary; ApplyRecord is the apply loop's
// single entry point.
type Replica struct {
	sys *System
	src ReplicaSource

	appliedSeq atomic.Uint64
	primarySeq atomic.Uint64
	connected  atomic.Bool
	applyErr   atomic.Pointer[error]
	// bootstraps counts state loads: 1 after NewReplica, +1 per in-place
	// self-heal (Rebootstrap).
	bootstraps atomic.Uint64
	// freshAt is the wall-clock nanosecond at which the follower last
	// KNEW it was caught up with the primary (applied >= the freshest
	// observed primary seq). Staleness is measured from here whenever the
	// follower cannot currently prove freshness.
	freshAt atomic.Int64

	// termHigh is the highest promotion term this follower has ever
	// seen — from its bootstrap state and from every tailed stream.
	// Records shipped under a lower term are fenced (ErrStaleTerm).
	termHigh atomic.Uint64
	// promoted latches once Promote has converted this follower into a
	// primary in place; the Run loop refuses to (re)start after it.
	promoted atomic.Bool
	// runMu guards the tail loop's cancellation plumbing so Promote can
	// stop a concurrently-running Run and wait for it to exit.
	runMu     sync.Mutex
	runCancel context.CancelFunc
	runDone   chan struct{}

	// applyMu makes {apply, relay append, appliedSeq advance} one atomic
	// step against CaptureBootstrap: a downstream bootstrap captured
	// between the apply and the sequence advance would double-apply that
	// record on the downstream node. Held by ApplyRecord, Rebootstrap and
	// CaptureBootstrap.
	applyMu sync.Mutex
	// relay, when enabled, persists every applied record's frame so this
	// follower can re-serve the replication stream and the committed-
	// event feed to a downstream tier (cascading fan-out): a cache-policy
	// storage.Log. relayDir is where relay.log (and the cursor sidecar)
	// live.
	relay    *storage.Log
	relayDir string
	// notify is the apply wakeup: one token per appliedSeq advance,
	// collapsed (capacity 1).
	notify chan struct{}
}

// NewReplica bootstraps a follower from src: it fetches the primary's
// state, builds a read-only System from it, and positions the applied
// sequence at the bootstrap point. Call Run to start tailing.
func NewReplica(src ReplicaSource) (*Replica, error) {
	snap, err := fetchBootstrap(src)
	if err != nil {
		return nil, fmt.Errorf("core: replica bootstrap: %w", err)
	}
	sys, err := openReplicaSystem(snap)
	if err != nil {
		return nil, err
	}
	r := &Replica{sys: sys, src: src, notify: make(chan struct{}, 1)}
	r.appliedSeq.Store(snap.Seq)
	r.primarySeq.Store(snap.Seq)
	r.bootstraps.Store(1)
	r.termHigh.Store(sys.Term())
	r.markFresh()
	return r, nil
}

// markFresh records "caught up as of now" for Staleness.
func (r *Replica) markFresh() { r.freshAt.Store(time.Now().UnixNano()) }

// noteObservation records one successful observation of the primary's
// durable sequence: the lag watermark moves, and covering it is proof of
// freshness as of now.
func (r *Replica) noteObservation(seq uint64) {
	storeMax(&r.primarySeq, seq)
	if r.appliedSeq.Load() >= r.primarySeq.Load() {
		r.markFresh()
	}
}

// observePrimary polls the primary's position with a bounded wait and
// feeds a success into noteObservation; failures are silent — freshness
// then simply stops renewing, which is exactly what Staleness measures.
func (r *Replica) observePrimary(ctx context.Context) {
	seqCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if seq, err := r.src.PrimarySeq(seqCtx); err == nil {
		r.noteObservation(seq)
	}
}

// fetchBootstrap pulls and decodes the source's bootstrap state. A state
// this node cannot apply as its own history — another snapshot format or
// replay semantics — is ErrBootstrapMismatch.
func fetchBootstrap(src ReplicaSource) (snapshotState, error) {
	rc, err := src.Bootstrap()
	if err != nil {
		return snapshotState{}, err
	}
	defer rc.Close()
	// The state is read whole, so memory grows with the bytes received.
	data, err := io.ReadAll(rc)
	if err != nil {
		return snapshotState{}, fmt.Errorf("core: read bootstrap state: %w", err)
	}
	snap, err := decodeSnapshot(data)
	switch {
	case errors.Is(err, errSnapshotFormat):
		return snap, fmt.Errorf("%w: %w", ErrBootstrapMismatch, err)
	case err != nil:
		return snap, fmt.Errorf("core: decode bootstrap state: %w", err)
	case snap.Semantics != snapSemantics:
		return snap, fmt.Errorf("%w: primary runs state semantics v%d, this node v%d", ErrBootstrapMismatch, snap.Semantics, snapSemantics)
	}
	return snap, nil
}

// openReplicaSystem builds the follower System from a decoded bootstrap
// state: same restore path as crash recovery, but with no DataDir (the
// primary's WAL is the only log) and the read-only gate on.
func openReplicaSystem(snap snapshotState) (*System, error) {
	s := newBareSystem()
	s.readOnly.Store(true)
	s.term.Store(1)
	if snap.Term > 0 {
		s.term.Store(snap.Term)
	}
	g, err := graph.FromSpec(snap.Graph)
	if err != nil {
		return nil, fmt.Errorf("core: bootstrap graph: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s.root = g
	s.flat = graph.Expand(g)
	if err := s.initEngines(snap.AutoDerive); err != nil {
		return nil, err
	}
	if err := s.restoreSnapshot(snap); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.publishLocked()
	s.mu.Unlock()
	return s, nil
}

// System returns the query facade. All pure queries (Request, Query,
// Inaccessible*, Accessible, WhoCanAccess, presence, history, ...) work
// exactly as on a primary; mutators return ErrReadOnly.
func (r *Replica) System() *System { return r.sys }

// AppliedSeq is the global sequence number of the next record to apply:
// every record before it is reflected in the published readView.
func (r *Replica) AppliedSeq() uint64 { return r.appliedSeq.Load() }

// ApplyRecord applies one shipped WAL record and publishes the
// post-apply readView. Records MUST be applied in global sequence order
// — the caller (the Run loop, or a test harness) owns that ordering. An
// application error means the follower has diverged from the primary's
// deterministic replay; it is latched and terminal.
func (r *Replica) ApplyRecord(rec storage.Record) error {
	r.applyMu.Lock()
	if err := r.sys.apply(rec); err != nil {
		r.applyMu.Unlock()
		// A fresh variable: storing the address of err itself would move
		// it to the heap on every apply, not only on this path.
		latched := fmt.Errorf("core: replica apply (seq %d, %s): %w", r.appliedSeq.Load(), rec.Type, err)
		r.applyErr.Store(&latched)
		return latched
	}
	applied := r.appliedSeq.Load() + 1
	r.sys.trace.Stamp(applied, obs.StageReplicaApply, obs.Now())
	if r.relay != nil {
		// Re-persist the applied record for the downstream tier. A relay
		// failure latches inside the log (this node stops serving
		// downstream) but never fails replication itself: the relay is a
		// cache, the upstream log is the record of truth. The codec is
		// canonical, so the re-encoded frame equals the upstream one byte
		// for byte.
		if r.relay.Append(rec) == nil {
			r.sys.trace.Stamp(applied, obs.StageRelayAppend, obs.Now())
		}
	}
	seq := r.appliedSeq.Add(1)
	r.applyMu.Unlock()
	r.notifyApply()
	r.noteObservation(seq)
	return nil
}

// notifyApply drops an apply wakeup token (never blocks) and wakes the
// readers of the relay.
func (r *Replica) notifyApply() {
	r.sys.logMoved.fire()
	select {
	case r.notify <- struct{}{}:
	default:
	}
}

// ApplyNotify returns the apply wakeup channel: a receive means the
// applied frontier may have advanced since the last receive. Sends are
// collapsed (capacity 1) — consumers re-check AppliedSeq, they do not
// count tokens. Readers of the relay wake on ServedLog.Changed instead,
// which wakes every waiter.
func (r *Replica) ApplyNotify() <-chan struct{} { return r.notify }

// EnableRelay arms cascading: every record applied from here on is
// re-persisted as a frame in dir/relay.log, positioned at the current
// applied sequence, so this follower can serve the replication stream
// and the committed-event feed to a downstream tier. Call before Run
// starts tailing. The file compacts itself past
// storage.DefaultRelayMaxBytes.
func (r *Replica) EnableRelay(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: relay dir: %w", err)
	}
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	if r.relay != nil {
		return errors.New("core: relay already enabled")
	}
	rl, err := storage.OpenCache(filepath.Join(dir, "relay.log"), r.appliedSeq.Load(), nil)
	if err != nil {
		return err
	}
	r.relay, r.relayDir = rl, dir
	return nil
}

// RelayDir returns the relay directory ("" when cascading is not
// enabled) — where per-node sidecar state (subscriber cursors) lives.
func (r *Replica) RelayDir() string { return r.relayDir }

// CaptureBootstrap captures the state a DOWNSTREAM follower bootstraps
// from: this node's full state, stamped with its applied sequence. The
// applyMu makes the cut consistent with the relay — the captured seq is
// exactly the relay's frontier, so a downstream node that restores this
// state and tails the relay from seq applies every record exactly once.
// The follower-side twin of System.CaptureBootstrap (which requires a
// WAL and therefore refuses to run on a replica).
func (r *Replica) CaptureBootstrap() (*Capture, error) {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.sys.mu.Lock()
	c, err := r.sys.captureLocked()
	r.sys.mu.Unlock()
	if err != nil {
		return nil, err
	}
	c.state.Seq = r.appliedSeq.Load()
	return c, nil
}

// ApplyTermRecord is ApplyRecord with the fencing check: a record
// shipped under a promotion term lower than the highest one this
// follower has seen is refused with ErrStaleTerm — nothing is applied
// and no divergence is latched, because a stale primary's stream is an
// expected (and recoverable) fleet condition, not corruption. A record
// from an equal or higher term is applied and advances the highest-seen
// term. term 0 means "source has no term plane" and is trusted.
func (r *Replica) ApplyTermRecord(term uint64, rec storage.Record) error {
	if term > 0 {
		if high := r.termHigh.Load(); term < high {
			return fmt.Errorf("%w: stream term %d < highest seen %d", ErrStaleTerm, term, high)
		}
		storeMax(&r.termHigh, term)
		storeMax(&r.sys.term, term)
	}
	return r.ApplyRecord(rec)
}

// Term returns the highest promotion term this follower has seen.
func (r *Replica) Term() uint64 { return r.termHigh.Load() }

// Promoted reports whether Promote has converted this follower into a
// primary.
func (r *Replica) Promoted() bool { return r.promoted.Load() }

// Err returns the latched apply divergence, if any.
func (r *Replica) Err() error {
	if p := r.applyErr.Load(); p != nil {
		return *p
	}
	return nil
}

// ReplicaStatus is the follower's replication position for /v1/stats.
type ReplicaStatus struct {
	// AppliedSeq is the next global sequence to apply; PrimarySeq the
	// primary's TotalSeq as of the last observation; Lag the difference.
	AppliedSeq uint64 `json:"applied_seq"`
	PrimarySeq uint64 `json:"primary_seq"`
	Lag        uint64 `json:"lag"`
	// Connected reports whether the tail loop currently holds a stream.
	Connected bool `json:"connected"`
	// Bootstraps counts state loads (1 = the initial bootstrap; more
	// means Run self-healed across a primary compaction).
	Bootstraps uint64 `json:"bootstraps"`
	// Staleness is how long the follower has been unable to prove it is
	// caught up (0 when it can) — the quantity a -follow-lag-max read
	// barrier bounds.
	Staleness time.Duration `json:"staleness_ns"`
}

// Status reports the replication position. When ctx is non-nil it
// refreshes PrimarySeq from the source best-effort (errors leave the
// last observation in place), so lag is exact when the primary is
// reachable and bounded-stale otherwise. Pass nil ctx for a purely
// local answer (no round-trip to the primary) — served from the last
// observation maintained by the apply loop.
func (r *Replica) Status(ctx context.Context) ReplicaStatus {
	if ctx != nil && r.src != nil {
		if seq, err := r.src.PrimarySeq(ctx); err == nil {
			r.noteObservation(seq)
		}
	}
	applied := r.appliedSeq.Load()
	primary := r.primarySeq.Load()
	lag := uint64(0)
	if primary > applied {
		lag = primary - applied
	}
	return ReplicaStatus{
		AppliedSeq: applied,
		PrimarySeq: primary,
		Lag:        lag,
		Connected:  r.connected.Load(),
		Bootstraps: r.bootstraps.Load(),
		Staleness:  r.Staleness(),
	}
}

// Staleness reports how long the follower has gone without PROOF that
// it is caught up with its primary. Proof is an actual observation —
// applying a record that covers the newest known primary sequence, or a
// successful PrimarySeq poll the applied position covers — never the
// mere absence of traffic: an open stream with a silent peer looks
// identical to a blackholed one, so an idle connection must not renew
// freshness on its own (the Run loop's Refresh poll does, as long as
// the primary actually answers). This is the quantity the
// -follow-lag-max read barrier compares against its bound; set the
// bound above the refresh cadence.
func (r *Replica) Staleness() time.Duration {
	return time.Duration(time.Now().UnixNano() - r.freshAt.Load())
}

// RunConfig tunes the tail loop.
type RunConfig struct {
	// RetryMin/RetryMax bound the reconnect backoff (defaults 100ms/2s).
	RetryMin, RetryMax time.Duration
	// Refresh is the cadence at which the loop re-observes the primary's
	// TotalSeq while a stream is open (default 1s). The observation is
	// what makes Lag and Staleness honest under a saturated stream: the
	// stream itself only proves how far the follower got, not how far the
	// primary is.
	Refresh time.Duration
	// DisableSelfHeal restores the pre-self-heal contract: when the
	// primary compacts past the follower's position, Run returns
	// ErrBootstrapRequired instead of re-bootstrapping in place.
	DisableSelfHeal bool
	// DisableJitter makes the reconnect backoff exact (tests). By default
	// each wait is equal-jittered — half fixed, half uniform-random — so
	// a fleet of followers cut loose by one primary restart does not
	// reconnect in lockstep and stampede it.
	DisableJitter bool
}

// jitterSleep waits out d with equal jitter (d/2 fixed + uniform [0,d/2])
// unless disabled, honouring ctx. Returns false when ctx ended first.
func jitterSleep(ctx context.Context, d time.Duration, disable bool) bool {
	if !disable && d > 1 {
		d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	}
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// Run is the follower apply loop: tail from the applied sequence, apply
// every record, reconnect with backoff on benign stream ends. When the
// primary compacts past the follower's position it self-heals: a fresh
// bootstrap is fetched and restored IN PLACE (same System, same served
// pointer — queries keep working throughout, serving the last applied
// state until the new one is published). It returns nil when ctx is
// canceled, the apply error on divergence, ErrBootstrapMismatch when a
// re-bootstrap came from a different site, and ErrBootstrapRequired only
// with RunConfig.DisableSelfHeal set.
func (r *Replica) Run(ctx context.Context, cfg ...RunConfig) error {
	if r.promoted.Load() {
		return nil
	}
	// Register the loop's cancellation plumbing so Promote can stop a
	// running tail loop and wait for it to drain before converting the
	// follower in place.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{})
	r.runMu.Lock()
	r.runCancel, r.runDone = cancel, done
	r.runMu.Unlock()
	defer func() {
		r.runMu.Lock()
		if r.runDone == done {
			r.runCancel, r.runDone = nil, nil
		}
		r.runMu.Unlock()
		close(done)
	}()

	retryMin, retryMax, refresh := 100*time.Millisecond, 2*time.Second, time.Second
	disableSelfHeal, disableJitter := false, false
	if len(cfg) > 0 {
		if cfg[0].RetryMin > 0 {
			retryMin = cfg[0].RetryMin
		}
		if cfg[0].RetryMax > 0 {
			retryMax = cfg[0].RetryMax
		}
		if cfg[0].Refresh > 0 {
			refresh = cfg[0].Refresh
		}
		disableSelfHeal = cfg[0].DisableSelfHeal
		disableJitter = cfg[0].DisableJitter
	}

	// Periodic primary-seq observation, independent of the (blocking)
	// Tail call, so lag and staleness stay honest mid-stream.
	refCtx, refCancel := context.WithCancel(ctx)
	defer refCancel()
	go func() {
		ticker := time.NewTicker(refresh)
		defer ticker.Stop()
		for {
			select {
			case <-refCtx.Done():
				return
			case <-ticker.C:
				r.observePrimary(refCtx)
			}
		}
	}()

	// Every record passes the fencing check before it is applied: a
	// stream shipped under a term lower than the highest seen is a
	// resurrected stale primary, and its records must be dropped
	// (ErrStaleTerm ends the stream; the reconnect re-resolves toward the
	// highest-term primary).
	apply := func(rec storage.Record) error {
		return r.ApplyTermRecord(r.src.SourceTerm(), rec)
	}

	backoff := retryMin
	for {
		// Observe the primary's position with a bounded wait: an
		// unreachable primary must cost one timeout, not an unbounded
		// dial hang, before the reconnect backoff takes over.
		r.observePrimary(ctx)
		r.connected.Store(true)
		err := r.src.Tail(ctx, r.appliedSeq.Load(), apply)
		r.connected.Store(false)
		switch {
		case ctx.Err() != nil:
			return nil
		case errors.Is(err, storage.ErrSeqGap):
			if disableSelfHeal {
				return fmt.Errorf("%w (applied %d)", ErrBootstrapRequired, r.appliedSeq.Load())
			}
			// Self-heal: the records between our position and the new
			// base are gone from the log, but their effects are inside
			// the primary's current state — load that state in place and
			// resume tailing from its sequence.
			if herr := r.Rebootstrap(); herr != nil {
				if errors.Is(herr, ErrBootstrapMismatch) {
					return herr
				}
				// Transient (primary unreachable mid-heal): back off and
				// retry the heal on the next pass.
			} else {
				backoff = retryMin
				continue
			}
		case r.Err() != nil:
			return r.Err()
		}
		if err == nil {
			// A clean stream end means the primary rotated or closed the
			// stream; resume promptly.
			backoff = retryMin
		}
		if !jitterSleep(ctx, backoff, disableJitter) {
			return nil
		}
		if backoff *= 2; backoff > retryMax {
			backoff = retryMax
		}
	}
}

// Rebootstrap fetches a fresh bootstrap from the source and restores it
// into the follower IN PLACE: the same System keeps serving (readers see
// the pre-heal view until the restored state is published in one write
// critical section), and the applied sequence jumps to the bootstrap
// point. It is how Run survives the primary compacting past the
// follower's position without a daemon restart. The bootstrap must come
// from the same site (graph and derivation mode); anything else returns
// ErrBootstrapMismatch.
func (r *Replica) Rebootstrap() error {
	snap, err := fetchBootstrap(r.src)
	if err != nil {
		return fmt.Errorf("core: replica re-bootstrap: %w", err)
	}
	if snap.AutoDerive != r.sys.autoDerive {
		return fmt.Errorf("%w: derivation mode changed (primary autoDerive=%v)", ErrBootstrapMismatch, snap.AutoDerive)
	}
	// Fencing covers bootstraps too: restoring a stale primary's state
	// would rewind the follower past history a higher-term primary has
	// already extended.
	if high := r.termHigh.Load(); snap.Term > 0 && snap.Term < high {
		return fmt.Errorf("%w: bootstrap term %d < highest seen %d", ErrStaleTerm, snap.Term, high)
	}
	seq := snap.Seq
	r.applyMu.Lock()
	if err := r.sys.rebootstrap(snap); err != nil {
		r.applyMu.Unlock()
		return err
	}
	if snap.Term > 0 {
		storeMax(&r.termHigh, snap.Term)
		storeMax(&r.sys.term, snap.Term)
	}
	r.appliedSeq.Store(seq)
	if r.relay != nil {
		// The relay's history no longer joins up with the new position:
		// restart it empty at the bootstrap point. Downstream followers
		// see the truncation (ErrWALReset/410) and re-bootstrap from this
		// node — the cascade self-heals tier by tier.
		_ = r.relay.Reset(seq)
	}
	r.applyMu.Unlock()
	r.notifyApply()
	storeMax(&r.primarySeq, seq)
	r.bootstraps.Add(1)
	r.markFresh()
	return nil
}

// rebootstrap replaces a follower System's state with a decoded
// bootstrap snapshot, in place: profiles, authorizations, rules,
// movements and the clock are restored wholesale under the write lock
// and a fresh view is published, exactly like crash recovery — but into
// a System that concurrent readers keep querying throughout.
func (s *System) rebootstrap(snap snapshotState) error {
	// The graph is immutable after Open and every engine is wired over
	// it: a bootstrap with a different site cannot be applied in place.
	// Both specs are compared as ToSpec renders a built graph.
	next, err := graph.FromSpec(snap.Graph)
	if err != nil || !reflect.DeepEqual(graph.ToSpec(s.root), graph.ToSpec(next)) {
		return fmt.Errorf("%w: site graph changed", ErrBootstrapMismatch)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Restore replaces every database wholesale (each bumps its version,
	// so the epoch moves and no memoized answer survives); rules are
	// reset first because the restored store already holds their derived
	// rows.
	s.ruleEng.Reset()
	if err := s.restoreSnapshot(snap); err != nil {
		return fmt.Errorf("core: re-bootstrap restore: %w", err)
	}
	s.publishLocked()
	return nil
}

// Close shuts the follower System down and closes its relay log.
func (r *Replica) Close() error {
	err := r.sys.Close()
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	if r.relay != nil {
		if cerr := r.relay.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// storeMax advances a monotonic atomic to at least v.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
