package authz

import (
	"cmp"
	"errors"
	"fmt"
	"hash/maphash"
	"maps"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/profile"
)

// ErrNotFound is returned for unknown authorization IDs.
var ErrNotFound = errors.New("authz: authorization not found")

// subjectLocation is the composite index key for Def.-7 lookups.
type subjectLocation struct {
	s profile.SubjectID
	l graph.ID
}

// Every index table has 256 buckets, reached through a 16-way root and
// 16-way mid nodes: a write copies the root, one mid node and one bucket
// per index, so its cost follows the bucket size, about n/(256·shards)
// keys, instead of the n/shards a whole-shard copy costs.
const (
	radixBits  = 4
	radix      = 1 << radixBits
	bucketBits = 2 * radixBits
	fanout     = 1 << bucketBits
)

// table is a persistent hash map of fixed shape: a root of radix mid
// nodes, each of radix bucket maps, the bucket chosen by a key hash. A
// published table, its mid nodes and its buckets are never written, so
// copying the root shares everything below it; a writer replaces just
// the nodes on the path to each bucket it touches (see writer).
type table[K comparable, V any] [radix]*[radix]map[K]V

// bucket returns bucket i, nil when absent.
func (t *table[K, V]) bucket(i uint64) map[K]V {
	if mid := t[i/radix]; mid != nil {
		return mid[i%radix]
	}
	return nil
}

// buckets yields every bucket of t.
func (t *table[K, V]) buckets(yield func(map[K]V) bool) {
	for _, mid := range t {
		if mid == nil {
			continue
		}
		for _, b := range mid {
			if !yield(b) {
				return
			}
		}
	}
}

// bucketOf picks a bucket from the top bits of a key hash. The shard is
// chosen by the low bits of the same subject hash, so a shard's subjects
// still spread over all its buckets.
func bucketOf(h uint64) uint64 { return h >> (64 - bucketBits) }

// idBucket picks a byID bucket: IDs are assigned sequentially, so their
// low bits spread evenly without hashing.
func idBucket(id ID) uint64 { return uint64(id) % fanout }

// shardData is one shard's immutable index state. A published shardData
// is never mutated: a writer copies the table roots, replaces the nodes
// and buckets it touches with private copies (and any index slice it
// touches with a fresh one), and publishes the result through the
// shard's atomic pointer. Readers therefore navigate the tables without
// any lock — the RCU discipline behind the store's lock-free read path.
//
// byPair is bucketed by the subject hash that also picks the shard, so
// For costs that one string hash plus one map probe, and every pair of a
// subject lives in one bucket — which is all BySubject needs, so there
// is no subject index. byPair holds fully materialised authorizations
// (not IDs): because the published state is immutable, For can hand the
// interior slice straight to the caller — the Def.-7 decision path
// allocates nothing. The location index keeps ID lists, sorted by ID,
// and materialises on read (it serves fan-out queries, not decisions).
type shardData struct {
	n          int // authorizations in the shard
	byID       table[ID, Authorization]
	byLocation table[graph.ID, []ID]
	byPair     table[subjectLocation, []Authorization]
}

func (d *shardData) get(id ID) (Authorization, bool) {
	a, ok := d.byID.bucket(idBucket(id))[id]
	return a, ok
}

// pair returns the (s, l) list; h is s's hash.
func (d *shardData) pair(h uint64, s profile.SubjectID, l graph.ID) []Authorization {
	return d.byPair.bucket(bucketOf(h))[subjectLocation{s, l}]
}

// subject returns s's authorizations in ID order; h is s's hash.
func (d *shardData) subject(h uint64, s profile.SubjectID) []Authorization {
	var out []Authorization
	for k, auths := range d.byPair.bucket(bucketOf(h)) {
		if k.s == s {
			out = append(out, auths...)
		}
	}
	sortAuths(out)
	return out
}

// appendCollect resolves a location's ID list against byID, preserving
// its ID order.
func (d *shardData) appendCollect(dst []Authorization, ids []ID) []Authorization {
	for _, id := range ids {
		if a, ok := d.get(id); ok {
			dst = append(dst, a)
		}
	}
	return dst
}

// match returns the shard's authorizations satisfying pred.
func (d *shardData) match(pred func(Authorization) bool) []Authorization {
	var out []Authorization
	for b := range d.byID.buckets {
		for _, a := range b {
			if pred(a) {
				out = append(out, a)
			}
		}
	}
	return out
}

// writer builds one write's successor to a shard's published state. The
// successor starts as a copy of the roots, sharing every node below
// them; the first touch of a mid node or bucket copies it and marks it
// owned, and later touches in the same write edit the owned copy in
// place. Index slices inside an owned bucket may still be shared with
// the published state, so the writer replaces them and never appends in
// place.
type writer struct {
	d                           *shardData
	seed                        maphash.Seed
	ownID, ownLocation, ownPair owned
}

// owned marks the mid nodes and buckets of one table a writer has copied.
type owned struct {
	mids    uint64
	buckets [fanout / 64]uint64
}

// edit returns bucket i of t for writing, copying the path to it on
// first touch.
func edit[K comparable, V any](t *table[K, V], o *owned, i uint64) map[K]V {
	hi, lo := i/radix, i%radix
	if o.mids&(1<<hi) == 0 {
		o.mids |= 1 << hi
		mid := new([radix]map[K]V)
		if t[hi] != nil {
			*mid = *t[hi]
		}
		t[hi] = mid
	}
	mid := t[hi]
	if o.buckets[i/64]&(1<<(i%64)) == 0 {
		o.buckets[i/64] |= 1 << (i % 64)
		if mid[lo] == nil {
			mid[lo] = make(map[K]V)
		} else {
			mid[lo] = maps.Clone(mid[lo])
		}
	}
	return mid[lo]
}

// bucketOf picks the bucket of a subject or location key.
func (w *writer) bucketOf(key string) uint64 { return bucketOf(maphash.String(w.seed, key)) }

// insertAll inserts a batch, rebuilding each touched index list once, so
// a k-record batch into one key costs O(old+k), not O(k·old).
func (w *writer) insertAll(batch []Authorization) {
	locAdds := make(map[graph.ID][]ID)
	pairAdds := make(map[subjectLocation][]Authorization)
	for _, a := range batch {
		edit(&w.d.byID, &w.ownID, idBucket(a.ID))[a.ID] = a
		locAdds[a.Location] = append(locAdds[a.Location], a.ID)
		k := subjectLocation{a.Subject, a.Location}
		pairAdds[k] = append(pairAdds[k], a)
	}
	w.d.n += len(batch)
	for l, add := range locAdds {
		m := edit(&w.d.byLocation, &w.ownLocation, w.bucketOf(string(l)))
		m[l] = concatSorted(m[l], add, idOf)
	}
	for k, add := range pairAdds {
		m := edit(&w.d.byPair, &w.ownPair, w.bucketOf(string(k.s)))
		m[k] = concatSorted(m[k], add, authID)
	}
}

// removeAll removes victims, all present in the shard, filtering each
// touched index list once.
func (w *writer) removeAll(victims []Authorization) {
	gone := make(map[ID]bool, len(victims))
	locs := make(map[graph.ID]bool)
	pairs := make(map[subjectLocation]bool)
	for _, a := range victims {
		delete(edit(&w.d.byID, &w.ownID, idBucket(a.ID)), a.ID)
		gone[a.ID] = true
		locs[a.Location] = true
		pairs[subjectLocation{a.Subject, a.Location}] = true
	}
	w.d.n -= len(victims)
	for l := range locs {
		without(edit(&w.d.byLocation, &w.ownLocation, w.bucketOf(string(l))), l, gone, idOf)
	}
	for k := range pairs {
		without(edit(&w.d.byPair, &w.ownPair, w.bucketOf(string(k.s))), k, gone, authID)
	}
}

func idOf(id ID) ID             { return id }
func authID(a Authorization) ID { return a.ID }

// concatSorted returns a fresh slice old++add — never appending in place,
// preserving the immutability of published slices. IDs are assigned
// monotonically, so the concatenation is normally sorted already; it is
// not after a Restore of arbitrary order, or when a concurrent single Add
// assigned (and published) a higher ID between a batch's ID assignment
// and its insert, and then it is re-sorted.
func concatSorted[T any](old, add []T, id func(T) ID) []T {
	next := make([]T, 0, len(old)+len(add))
	next = append(append(next, old...), add...)
	byID := func(a, b T) int { return cmp.Compare(id(a), id(b)) }
	if !slices.IsSortedFunc(next, byID) {
		slices.SortFunc(next, byID)
	}
	return next
}

// without replaces m[k] with a fresh list minus the gone IDs, deleting
// the key when nothing is left.
func without[K comparable, T any](m map[K][]T, k K, gone map[ID]bool, id func(T) ID) {
	keep := make([]T, 0, len(m[k]))
	for _, v := range m[k] {
		if !gone[id(v)] {
			keep = append(keep, v)
		}
	}
	if len(keep) == 0 {
		delete(m, k)
		return
	}
	m[k] = keep
}

// shard is one lock stripe: the mutex serialises writers; readers only
// load the data pointer.
type shard struct {
	mu      sync.Mutex
	data    atomic.Pointer[shardData]
	version atomic.Uint64
}

// Store is the authorization database of Fig. 3: all authorizations
// defined by administrators plus those derived by rules, indexed for the
// three access paths the engine needs — by (subject, location) for access
// checks, by location for Algorithm 1, and by subject (the subject's
// bucket of the pair index) for per-user queries.
//
// The store is sharded by subject hash into a power-of-two number of
// stripes. Mutations lock only their subject's shard, copy the roots
// and the touched paths of that shard's index tables, and publish the
// new state through an atomic pointer; readers never take a lock —
// For/BySubject touch exactly one shard's published data, while
// ByLocation/All/Subjects/FindConflicts fan out over every shard. A View
// captures all shard pointers at once for callers that need a stable
// multi-read snapshot (the core read path).
//
// Store is safe for concurrent use.
type Store struct {
	shards []shard
	mask   uint64
	seed   maphash.Seed

	// wideMu serialises whole-store writers (AddAll, Restore) against
	// each other: AddAll assigns its batch's IDs before touching any
	// shard, and without this lock a concurrent Restore could reset the
	// ID watermark underneath the batch. Lock order: wideMu before any
	// shard mutex. Single-shard writers (Add, Revoke) take only their
	// shard's mutex — they assign under it, so they cannot straddle a
	// Restore, which holds every shard.
	wideMu sync.Mutex

	// lastID is the highest assigned authorization ID; Add allocates by
	// atomic increment, so IDs stay unique and monotonic across shards.
	lastID atomic.Uint64

	// version is the store's mutation epoch: the per-shard counters
	// aggregated at write time (every mutating operation bumps its
	// shard's counter and this total once). Published read views are
	// re-captured when it moves, so it must move for every path that
	// changes the stored set — including rule-engine derivations and
	// conflict resolution, which go through Add/Revoke.
	version atomic.Uint64
}

// DefaultShardCount returns the shard count NewStore picks: a constant
// 16, so a WAL replays into the same layout on every machine. A write
// costs the same at any shard size, so the count only sets how many
// stripes writers contend on.
func DefaultShardCount() int { return 16 }

// Version returns the store's mutation epoch: it increases on every
// change to the stored authorization set and is stable between changes.
func (st *Store) Version() uint64 { return st.version.Load() }

// NewStore returns an empty authorization database with
// DefaultShardCount shards.
func NewStore() *Store { return NewStoreWithShards(0) }

// NewStoreWithShards returns an empty store with the given shard count,
// rounded up to a power of two (n <= 0 selects DefaultShardCount).
func NewStoreWithShards(n int) *Store {
	if n <= 0 {
		n = DefaultShardCount()
	}
	n = 1 << bits.Len(uint(n-1))
	st := &Store{
		shards: make([]shard, n),
		mask:   uint64(n - 1),
		seed:   maphash.MakeSeed(),
	}
	empty := new(shardData)
	for i := range st.shards {
		st.shards[i].data.Store(empty)
	}
	return st
}

// ShardCount returns the number of lock stripes.
func (st *Store) ShardCount() int { return len(st.shards) }

// shardFor maps a subject to its shard and returns the subject's hash.
// All of a subject's pair keys live in that shard, so the Def.-7 lookup
// For(s, l) touches exactly one stripe.
func (st *Store) shardFor(s profile.SubjectID) (*shard, uint64) {
	h := maphash.String(st.seed, string(s))
	return &st.shards[h&st.mask], h
}

// rewrite publishes sh's successor state, built by edit from the
// current one, and moves both the shard's and the store's version.
// Callers hold sh.mu.
func (st *Store) rewrite(sh *shard, edit func(*writer)) {
	w := &writer{d: new(shardData), seed: st.seed}
	*w.d = *sh.data.Load()
	edit(w)
	sh.data.Store(w.d)
	sh.version.Add(1)
	st.version.Add(1)
}

// Add normalizes, validates and inserts the authorization, returning the
// stored value with its assigned ID.
func (st *Store) Add(a Authorization) (Authorization, error) {
	a = a.Normalize()
	if err := a.Validate(); err != nil {
		return Authorization{}, err
	}
	sh, _ := st.shardFor(a.Subject)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a.ID = ID(st.lastID.Add(1))
	st.rewrite(sh, func(w *writer) { w.insertAll([]Authorization{a}) })
	return a, nil
}

// AddAll normalizes, validates and inserts a batch of authorizations,
// returning the stored values with their assigned IDs in input order.
// Validation is all-or-nothing and happens before any insert. Each
// touched shard publishes once, so readers see a shard's part of the
// batch whole.
func (st *Store) AddAll(auths []Authorization) ([]Authorization, error) {
	if len(auths) == 0 {
		return nil, nil
	}
	st.wideMu.Lock()
	defer st.wideMu.Unlock()
	out := make([]Authorization, len(auths))
	for i, a := range auths {
		a = a.Normalize()
		if err := a.Validate(); err != nil {
			return nil, err
		}
		out[i] = a
	}
	// Assign IDs in input order, then group by shard.
	byShard := make(map[*shard][]Authorization)
	for i := range out {
		out[i].ID = ID(st.lastID.Add(1))
		sh, _ := st.shardFor(out[i].Subject)
		byShard[sh] = append(byShard[sh], out[i])
	}
	for sh, batch := range byShard {
		sh.mu.Lock()
		st.rewrite(sh, func(w *writer) { w.insertAll(batch) })
		sh.mu.Unlock()
	}
	return out, nil
}

// Get returns the authorization with the given ID. The ID alone does not
// identify a shard, so Get scans the published data of every stripe —
// lock-free, and off the Def.-7 hot path (decisions use For).
func (st *Store) Get(id ID) (Authorization, error) {
	for i := range st.shards {
		if a, ok := st.shards[i].data.Load().get(id); ok {
			return a, nil
		}
	}
	return Authorization{}, fmt.Errorf("%w: %d", ErrNotFound, id)
}

// Revoke removes the authorization with the given ID.
func (st *Store) Revoke(id ID) error {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		a, ok := sh.data.Load().get(id)
		if ok {
			st.rewrite(sh, func(w *writer) { w.removeAll([]Authorization{a}) })
		}
		sh.mu.Unlock()
		if ok {
			return nil
		}
	}
	return fmt.Errorf("%w: %d", ErrNotFound, id)
}

// RevokeIf removes every authorization for which pred returns true and
// returns how many it removed — the rule engine's revocation of a rule's
// output (Example 1) and of a revoked base's derived children. Each
// shard holding a match is rewritten once. pred runs on the shard's
// published state with no lock held; if a concurrent writer publishes
// over that state before the rewrite, the shard is scanned again, so
// the removal applies to exactly the state pred saw.
func (st *Store) RevokeIf(pred func(Authorization) bool) int {
	removed := 0
	for i := range st.shards {
		sh := &st.shards[i]
		for {
			cur := sh.data.Load()
			victims := cur.match(pred)
			if len(victims) == 0 {
				break
			}
			sh.mu.Lock()
			if sh.data.Load() != cur {
				sh.mu.Unlock()
				continue
			}
			st.rewrite(sh, func(w *writer) { w.removeAll(victims) })
			sh.mu.Unlock()
			removed += len(victims)
			break
		}
	}
	return removed
}

// Match returns every authorization for which pred returns true, sorted
// by ID. pred runs on each shard's published state with no lock held.
func (st *Store) Match(pred func(Authorization) bool) []Authorization {
	var out []Authorization
	for i := range st.shards {
		out = append(out, st.shards[i].data.Load().match(pred)...)
	}
	sortAuths(out)
	return out
}

// For returns the authorizations for subject s at location l, sorted by
// ID — the lookup behind every access request (Def. 7 checks "there
// exists at least one location temporal authorization" for the pair).
// It reads one shard's published state without locking or allocating:
// the returned slice is the immutable published index itself and must be
// treated as read-only.
func (st *Store) For(s profile.SubjectID, l graph.ID) []Authorization {
	sh, h := st.shardFor(s)
	return sh.data.Load().pair(h, s, l)
}

// BySubject returns all authorizations for subject s, sorted by ID.
func (st *Store) BySubject(s profile.SubjectID) []Authorization {
	sh, h := st.shardFor(s)
	return sh.data.Load().subject(h, s)
}

// ByLocation returns all authorizations on location l, sorted by ID —
// Algorithm 1 iterates "for each location-temporal authorization a of l".
// A location's holders hash to many shards, so this fans out and merges.
func (st *Store) ByLocation(l graph.ID) []Authorization {
	return st.View().ByLocation(l)
}

// Subjects returns every subject holding at least one authorization,
// sorted — the domain of per-subject analyses like "who can access l".
func (st *Store) Subjects() []profile.SubjectID {
	return st.View().Subjects()
}

// All returns every authorization sorted by ID.
func (st *Store) All() []Authorization {
	return st.View().All()
}

// Len returns the number of stored authorizations.
func (st *Store) Len() int {
	n := 0
	for i := range st.shards {
		n += st.shards[i].data.Load().n
	}
	return n
}

// Snapshot returns all authorizations plus the next-ID watermark for
// persistence.
func (st *Store) Snapshot() ([]Authorization, ID) {
	return st.All(), st.NextID()
}

// NextID returns the ID watermark: the ID the next added authorization
// gets, which Restore takes back.
func (st *Store) NextID() ID {
	return ID(st.lastID.Load() + 1)
}

// Restore replaces the store contents. Authorizations keep their IDs;
// nextID resumes above the largest restored ID (or the provided watermark
// if higher), so IDs are never reused after recovery.
func (st *Store) Restore(auths []Authorization, nextID ID) error {
	// Lock every stripe in order: restore is a whole-store mutation.
	st.wideMu.Lock()
	defer st.wideMu.Unlock()
	for i := range st.shards {
		st.shards[i].mu.Lock()
	}
	defer func() {
		for i := range st.shards {
			st.shards[i].mu.Unlock()
		}
	}()

	groups := make([][]Authorization, len(st.shards))
	seen := make(map[ID]bool, len(auths))
	var last ID
	err := func() error {
		for _, a := range auths {
			if a.ID == 0 {
				return errors.New("authz: restore: authorization without ID")
			}
			if seen[a.ID] {
				return fmt.Errorf("authz: restore: duplicate ID %d", a.ID)
			}
			seen[a.ID] = true
			a = a.Normalize()
			if err := a.Validate(); err != nil {
				return fmt.Errorf("authz: restore %d: %w", a.ID, err)
			}
			i := maphash.String(st.seed, string(a.Subject)) & st.mask
			groups[i] = append(groups[i], a)
			if a.ID > last {
				last = a.ID
			}
		}
		return nil
	}()
	if err != nil {
		// Even a failed restore clears the store (the pre-shard code
		// mutated in place); publish empty shards and bump the epoch so
		// caches never serve the old state.
		empty := new(shardData)
		for i := range st.shards {
			st.shards[i].data.Store(empty)
			st.shards[i].version.Add(1)
		}
		st.version.Add(1)
		return err
	}
	// Restore input order is arbitrary; insertAll re-sorts each index
	// list by ID.
	for i := range st.shards {
		w := &writer{d: new(shardData), seed: st.seed}
		w.insertAll(groups[i])
		st.shards[i].data.Store(w.d)
		st.shards[i].version.Add(1)
	}
	st.version.Add(1)
	if nextID > 0 && nextID-1 > last {
		last = nextID - 1
	}
	st.lastID.Store(uint64(last))
	return nil
}

// ShardStat describes one stripe for the stats endpoint.
type ShardStat struct {
	Auths   int    `json:"auths"`
	Version uint64 `json:"version"`
}

// StoreStats is a point-in-time snapshot of the sharded store's shape:
// size, epoch, and the per-stripe balance behind the lock-free read
// path's fan-out costs.
type StoreStats struct {
	Shards   int         `json:"shards"`
	Auths    int         `json:"auths"`
	Version  uint64      `json:"version"`
	PerShard []ShardStat `json:"per_shard,omitempty"`
}

// Stats reports shard count, total size, the aggregated version, and
// per-shard fill — the observability hook behind /v1/stats.
func (st *Store) Stats() StoreStats {
	out := StoreStats{
		Shards:   len(st.shards),
		Version:  st.version.Load(),
		PerShard: make([]ShardStat, len(st.shards)),
	}
	for i := range st.shards {
		n := st.shards[i].data.Load().n
		out.Auths += n
		out.PerShard[i] = ShardStat{Auths: n, Version: st.shards[i].version.Load()}
	}
	return out
}

// --- Views ---------------------------------------------------------------

// View is an immutable snapshot of the whole store: the published data of
// every shard, captured at one instant. All reads on a View are lock-free
// and stable — concurrent Store mutations publish new shard states but
// never touch the captured ones, so a View answers every query from
// exactly the state it captured (the property the core read path's
// RCU-style snapshots are built on).
//
// A View captured while mutations are in flight is consistent per shard;
// callers needing a cross-shard-consistent cut must serialise the capture
// against writers (core.System captures under its write lock).
type View struct {
	data    []*shardData
	seed    maphash.Seed
	mask    uint64
	version uint64
}

// View captures the current published state of every shard.
func (st *Store) View() *View {
	v := &View{
		data:    make([]*shardData, len(st.shards)),
		seed:    st.seed,
		mask:    st.mask,
		version: st.version.Load(),
	}
	for i := range st.shards {
		v.data[i] = st.shards[i].data.Load()
	}
	return v
}

// Version returns the store epoch observed at capture time.
func (v *View) Version() uint64 { return v.version }

// shardFor returns s's captured shard and s's hash.
func (v *View) shardFor(s profile.SubjectID) (*shardData, uint64) {
	h := maphash.String(v.seed, string(s))
	return v.data[h&v.mask], h
}

// For returns the authorizations for subject s at location l, in ID
// order, as of the capture. The returned slice is the view's immutable
// index itself — read-only, zero-allocation.
func (v *View) For(s profile.SubjectID, l graph.ID) []Authorization {
	d, h := v.shardFor(s)
	return d.pair(h, s, l)
}

// Stamp is an opaque version of one subject's authorizations, read from
// a View by SubjectStamp. It holds the subject's byPair bucket itself. A
// published bucket is never written (a grant or revoke replaces it), so
// two stamps holding the same bucket prove that every For(s, ·) answer
// is unchanged between their views. Holding the bucket keeps it alive,
// so a later bucket cannot reuse its address, Restore included. Subjects
// that hash to one bucket share its stamp, which is conservative: a
// write for one moves the stamp of all.
type Stamp struct {
	bucket map[subjectLocation][]Authorization
}

// Same reports whether a and b name the same bucket.
func (a Stamp) Same(b Stamp) bool {
	return reflect.ValueOf(a.bucket).UnsafePointer() == reflect.ValueOf(b.bucket).UnsafePointer()
}

// SubjectStamp returns the stamp of s's authorizations as of the
// capture: one hash and one bucket load, no allocation.
func (v *View) SubjectStamp(s profile.SubjectID) Stamp {
	d, h := v.shardFor(s)
	return Stamp{d.byPair.bucket(bucketOf(h))}
}

// BySubject returns all authorizations for subject s, in ID order.
func (v *View) BySubject(s profile.SubjectID) []Authorization {
	d, h := v.shardFor(s)
	return d.subject(h, s)
}

// ByLocation returns all authorizations on location l, in ID order,
// merged across shards.
func (v *View) ByLocation(l graph.ID) []Authorization {
	b := bucketOf(maphash.String(v.seed, string(l)))
	var out []Authorization
	for _, d := range v.data {
		out = d.appendCollect(out, d.byLocation.bucket(b)[l])
	}
	sortAuths(out)
	return out
}

// Get returns the authorization with the given ID.
func (v *View) Get(id ID) (Authorization, error) {
	for _, d := range v.data {
		if a, ok := d.get(id); ok {
			return a, nil
		}
	}
	return Authorization{}, fmt.Errorf("%w: %d", ErrNotFound, id)
}

// All returns every authorization sorted by ID.
func (v *View) All() []Authorization {
	out := make([]Authorization, 0, v.Len())
	for _, d := range v.data {
		for b := range d.byID.buckets {
			for _, a := range b {
				out = append(out, a)
			}
		}
	}
	sortAuths(out)
	return out
}

// Len returns the number of authorizations in the view.
func (v *View) Len() int {
	n := 0
	for _, d := range v.data {
		n += d.n
	}
	return n
}

// Subjects returns every subject holding at least one authorization,
// sorted.
func (v *View) Subjects() []profile.SubjectID {
	var out []profile.SubjectID
	for _, d := range v.data {
		for b := range d.byPair.buckets {
			for k := range b {
				out = append(out, k.s)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func sortAuths(a []Authorization) {
	sort.Slice(a, func(i, j int) bool { return a[i].ID < a[j].ID })
}

// --- Conflicts -----------------------------------------------------------

// Conflict describes two authorizations for the same (subject, location)
// whose windows interact in a way the paper flags as needing resolution
// (§4: "the authorization rules may introduce conflicts ... This conflict
// should be resolved either by combining the two authorizations, or
// discarding one of them").
type Conflict struct {
	A, B Authorization
	// Kind is "duplicate" (identical privilege), "overlap" (entry
	// windows overlap) or "adjacent" (entry windows touch, the paper's
	// [5,10] vs [10,11] example is overlap at a point; [5,9] vs [10,11]
	// is adjacency that could be combined).
	Kind string
}

// FindConflicts scans the store for pairs of authorizations on the same
// (subject, location) with duplicate, overlapping, or adjacent entry
// durations. The paper leaves *resolution* to future work; detection makes
// human error visible (one of LTAM's stated goals).
func (st *Store) FindConflicts() []Conflict {
	return st.View().FindConflicts()
}

// FindConflicts scans the captured state — see Store.FindConflicts.
func (v *View) FindConflicts() []Conflict {
	var out []Conflict
	var keys []subjectLocation
	for _, d := range v.data {
		for b := range d.byPair.buckets {
			for k := range b {
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].s != keys[j].s {
			return keys[i].s < keys[j].s
		}
		return keys[i].l < keys[j].l
	})
	for _, k := range keys {
		auths := v.For(k.s, k.l)
		for i := 0; i < len(auths); i++ {
			for j := i + 1; j < len(auths); j++ {
				a, b := auths[i], auths[j]
				switch {
				case a.Equivalent(b):
					out = append(out, Conflict{A: a, B: b, Kind: "duplicate"})
				case a.Entry.Overlaps(b.Entry):
					out = append(out, Conflict{A: a, B: b, Kind: "overlap"})
				case a.Entry.Adjacent(b.Entry):
					out = append(out, Conflict{A: a, B: b, Kind: "adjacent"})
				}
			}
		}
	}
	return out
}
