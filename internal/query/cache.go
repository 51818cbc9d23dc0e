package query

import (
	"sync"
	"sync/atomic"

	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

// cacheKey identifies one memoized FindInaccessible run: the subject and
// the §6 access request window (the zero window is the Def.-8 default
// [0, ∞)).
type cacheKey struct {
	subject profile.SubjectID
	window  interval.Interval
}

// entry is one memoized run: the result and the subject's stamp in the
// view it was computed on.
type entry struct {
	stamp authz.Stamp
	res   *Result
}

// Cache memoizes Algorithm-1 results per (subject, window). FindInaccessible
// for s reads only the graph, which is fixed per cache user, and
// v.For(s, ·), which cannot change while s's authz.Stamp stays the same.
// So an entry answers a lookup on any view in which s has the stamp the
// entry was computed under, and a write to one subject leaves every other
// subject's entries valid (bar the few that share its store bucket). A
// lookup whose stamp differs recomputes and replaces the entry.
//
// The hit path acquires no mutex: the table is a sync.Map. It holds at
// most limit keys; inserting a new key into a full table empties it
// first (one flush). Replacing a stale entry is not a new key.
//
// Cached Results are shared between goroutines and must be treated as
// read-only by callers.
//
// Bounded windows that cannot change the answer are served from the
// default-window entry (interval subsumption, see Result).
//
// The zero Cache is not usable; call NewCache.
type Cache struct {
	entries sync.Map // cacheKey -> *entry
	count   atomic.Int64
	limit   int64

	hits, misses, flushes, subsumed atomic.Uint64
}

// DefaultCacheLimit bounds the number of memoized (subject, window) pairs
// when NewCache is given a non-positive limit. One entry holds O(N_L)
// state, so the bound keeps worst-case memory proportional to the site
// size times a constant roster of subjects.
const DefaultCacheLimit = 4096

// NewCache returns an empty cache holding at most limit entries (limit
// <= 0 selects DefaultCacheLimit).
func NewCache(limit int) *Cache {
	if limit <= 0 {
		limit = DefaultCacheLimit
	}
	return &Cache{limit: int64(limit)}
}

// Result returns the memoized FindInaccessible result for (s,
// opts.Window) on view v, computing and storing it on a miss. Traced
// runs are never cached (the trace is a debugging artifact whose cost
// dwarfs the fixpoint); they always recompute.
//
// A bounded-window miss first tries interval subsumption: the window only
// enters Algorithm 1 through the §6 clamping of entry-location
// authorizations (GrantDuring/DepartureDuring at initiation), so when that
// clamping is a no-op for every authorization s holds on an entry
// location, the run is step-for-step identical to the default-window
// [0, ∞) run and the cached default entry answers the bounded query.
// Subsumed lookups count as hits (and in CacheStats.Subsumed).
func (c *Cache) Result(f *graph.Flat, v *authz.View, s profile.SubjectID, opts Options) *Result {
	if opts.Trace {
		res := FindInaccessible(f, v, s, opts)
		return &res
	}
	stamp := v.SubjectStamp(s)
	window := opts.window()
	key := cacheKey{subject: s, window: window}
	if res := c.lookup(key, stamp); res != nil {
		c.hits.Add(1)
		return res
	}
	if defWindow := (Options{}).window(); window != defWindow {
		if res := c.lookup(cacheKey{subject: s, window: defWindow}, stamp); res != nil && windowSubsumed(f, v, s, window) {
			c.hits.Add(1)
			c.subsumed.Add(1)
			c.store(key, &entry{stamp, res}) // future bounded lookups are plain hits
			return res
		}
	}
	c.misses.Add(1)
	res := FindInaccessible(f, v, s, opts)
	c.store(key, &entry{stamp, &res})
	return &res
}

// lookup returns key's memoized result if it was computed under stamp.
func (c *Cache) lookup(key cacheKey, stamp authz.Stamp) *Result {
	if e, ok := c.entries.Load(key); ok && e.(*entry).stamp.Same(stamp) {
		return e.(*entry).res
	}
	return nil
}

// store memoizes e under key, emptying a full table before a new key.
// Under concurrent stores the count may drift by a few entries around a
// flush, which only moves the next flush.
func (c *Cache) store(key cacheKey, e *entry) {
	if _, ok := c.entries.Load(key); !ok {
		if n := c.count.Load(); n >= c.limit && c.count.CompareAndSwap(n, 0) {
			c.entries.Clear()
			c.flushes.Add(1)
		}
	}
	if _, loaded := c.entries.Swap(key, e); !loaded {
		c.count.Add(1)
	}
}

// windowSubsumed reports whether the bounded window would produce exactly
// the default-window result for subject s: clamping every authorization s
// holds on an entry location by the window must equal clamping by [0, ∞).
// The window appears nowhere else in Algorithm 1 (the fixpoint loop clamps
// by neighbours' departure times, not the window), so this condition makes
// the two runs identical. The check costs O(entries × N_a) — far below the
// O(N_L²·N_d·N_a) fixpoint it avoids.
func windowSubsumed(f *graph.Flat, src AuthSource, s profile.SubjectID, window interval.Interval) bool {
	def := Options{}.window()
	for _, e := range f.Entries {
		for _, a := range src.For(s, f.Nodes[e]) {
			if a.GrantDuring(window) != a.GrantDuring(def) ||
				a.DepartureDuring(window) != a.DepartureDuring(def) {
				return false
			}
		}
	}
	return true
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Flushes counts the times a full table was emptied.
	Flushes uint64 `json:"flushes"`
	// Subsumed counts the hits served to bounded windows from the
	// default-window entry; they are included in Hits.
	Subsumed uint64 `json:"subsumed"`
	Entries  int    `json:"entries"`
}

// Stats reports hit/miss/flush counters and the current table size.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Flushes:  c.flushes.Load(),
		Subsumed: c.subsumed.Load(),
		Entries:  int(c.count.Load()),
	}
}
