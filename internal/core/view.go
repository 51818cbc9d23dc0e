// The RCU-style read path: every mutation publishes an immutable
// readView through an atomic pointer, and every pure query runs entirely
// against the view it loads — no System lock, no store lock, no cache
// lock. See DESIGN.md D9.
package core

import (
	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/movement"
	"repro/internal/profile"
	"repro/internal/query"
)

// readView is one published snapshot of everything a pure query needs:
//
//   - auths is an immutable capture of the sharded authorization store —
//     concurrent mutations publish new shard states but never touch the
//     captured ones, so every authorization read inside one query (and
//     every read of a memoized Algorithm-1 run) comes from exactly this
//     cut;
//   - memo is the System's one Algorithm-1 memo; an entry answers this
//     view when the subject's authz.Stamp in auths is the one it was
//     computed under, so a hit is one stamp read and one lock-free
//     table read;
//   - flat/root are immutable after Open;
//   - profiles/moves point at the live, internally-synchronized
//     databases: presence and profile lookups want current answers, and
//     Algorithm 1 reads neither (a profile edit reaches it only through
//     the rule-derived grants it adds or revokes in auths).
//
// Publication ordering: mutations apply under the System write lock and
// publish (via atomic store) before releasing it, so a reader that
// observes a mutation's view also observes every earlier mutation's
// state — WAL order = apply order = publication order.
type readView struct {
	epoch    uint64
	flat     *graph.Flat
	root     *graph.Graph
	auths    *authz.View
	profiles *profile.DB
	moves    *movement.DB
	memo     *query.Cache
}

// result returns the (memoized) Algorithm-1 result for sub under opts,
// computed from and cached against this view's authorization snapshot.
// Callers must treat the returned Result as read-only — it is shared
// between goroutines.
func (v *readView) result(sub profile.SubjectID, opts query.Options) *query.Result {
	return v.memo.Result(v.flat, v.auths, sub, opts)
}

// publishLocked builds and publishes a fresh readView. Callers hold the
// write lock, which makes the capture a consistent cut: no System
// mutation can be mid-flight across the store shards. Views are reused
// when the epoch did not move (movement-only mutations).
func (s *System) publishLocked() {
	if s.replaying {
		return // Open publishes once after the replay finishes
	}
	epoch := s.epoch()
	if old := s.view.Load(); old != nil && old.epoch == epoch {
		return
	}
	s.view.Store(&readView{
		epoch:    epoch,
		flat:     s.flat,
		root:     s.root,
		auths:    s.store.View(),
		profiles: s.profiles,
		moves:    s.moves,
		memo:     s.cache,
	})
	s.publishes.Add(1)
}

// currentView returns the view queries should run against. The fast path
// is one atomic pointer load plus two atomic version loads; no mutex.
//
// A view can be stale in two ways. While a System mutation is between
// its apply and its publish, the pre-mutation view is the correct answer
// (the query linearizes before the mutation) and the writer's publish is
// imminent — TryLock fails and we serve the loaded view. After a direct
// Store/RuleEngine mutation that bypassed the System lock (the
// documented setup-only escape hatch), nobody will publish — TryLock
// succeeds and the reader repairs the view itself, preserving the
// pre-shard visibility of sequential AuthStore().Add-then-query code.
func (s *System) currentView() *readView {
	v := s.view.Load()
	if v.epoch == s.epoch() {
		return v
	}
	if s.mu.TryLock() {
		s.publishLocked()
		v = s.view.Load()
		s.mu.Unlock()
	}
	return v
}

// ViewStats reports the snapshot read path's shape for /v1/stats.
type ViewStats struct {
	// Epoch is the published view's generation (the store's plus the
	// profile database's version).
	Epoch uint64 `json:"epoch"`
	// Publishes counts views published since Open (mutations that moved
	// the epoch, plus reader-side repairs after direct store mutations).
	Publishes uint64 `json:"publishes"`
	// AuthShards is the sharded store's stripe count.
	AuthShards int `json:"auth_shards"`
}

// ViewStats reports the published view's epoch, the number of views
// published, and the authorization store's shard count.
func (s *System) ViewStats() ViewStats {
	return ViewStats{
		Epoch:      s.view.Load().epoch,
		Publishes:  s.publishes.Load(),
		AuthShards: s.store.ShardCount(),
	}
}
