// Package replicatest is the replica-equivalence test harness: it runs
// a primary and a read-only follower in one process, fences arbitrary
// kill/restart points in the shipping pipeline, and asserts
// query-for-query equivalence at every applied sequence number.
//
// The harness deliberately pumps the WAL stream SYNCHRONOUSLY (its own
// storage.LogReader on the primary's served log, applied record by
// record) instead of running the replica's background loop: determinism is what lets a test
// stop the world at sequence k, compare every answer, and resume. The
// background loop is exercised separately by the core race tests and the
// server smoke test.
package replicatest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/enforce"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/storage"
)

// Harness is one primary + one follower, wired through a synchronous
// frame pump.
type Harness struct {
	tb      testing.TB
	Primary *core.System
	Replica *core.Replica

	pump *logPump
}

// GridSite builds a side×side grid graph with unit-square room
// boundaries and the entry at (0,0) — the standard stress site.
func GridSite(tb testing.TB, side int) (*graph.Graph, []geometry.Boundary, []geometry.Point) {
	tb.Helper()
	g := graph.New("grid")
	id := func(r, c int) graph.ID { return graph.ID(fmt.Sprintf("r%03d_%03d", r, c)) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if err := g.AddLocation(id(r, c)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if r+1 < side {
				_ = g.AddEdge(id(r, c), id(r+1, c))
			}
			if c+1 < side {
				_ = g.AddEdge(id(r, c), id(r, c+1))
			}
		}
	}
	if err := g.SetEntry(id(0, 0)); err != nil {
		tb.Fatal(err)
	}
	bounds, centers := geometry.UnitGrid(side, func(r, c int) string {
		return fmt.Sprintf("r%03d_%03d", r, c)
	})
	return g, bounds, centers
}

// New boots a durable primary over g and a follower bootstrapped from
// it, with the harness's synchronous pump attached at the bootstrap
// sequence. Cleanup closes both.
func New(tb testing.TB, g *graph.Graph, bounds []geometry.Boundary) *Harness {
	tb.Helper()
	p, err := core.Open(core.Config{
		Graph:      g,
		Boundaries: bounds,
		DataDir:    tb.TempDir(),
		AutoDerive: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { p.Close() })
	h := &Harness{tb: tb, Primary: p}
	h.Replica = h.NewFollower()
	h.RestartReader()
	return h
}

// NewFollower bootstraps a fresh follower from the primary's live state.
func (h *Harness) NewFollower() *core.Replica {
	h.tb.Helper()
	rep, err := core.NewReplica(&core.LogSource{Node: h.Primary})
	if err != nil {
		h.tb.Fatal(err)
	}
	h.tb.Cleanup(func() { rep.Close() })
	return rep
}

// RestartReader fences a follower crash: it drops the current reader
// (if any) and attaches a brand-new one positioned from nothing but the
// replica's AppliedSeq — exactly what a restarted follower process does.
func (h *Harness) RestartReader() {
	h.tb.Helper()
	if h.pump == nil {
		lg, err := h.Primary.ServedLog()
		if err != nil {
			h.tb.Fatal(err)
		}
		h.pump = newLogPump(h.tb, "pump", lg, h.Replica)
	}
	h.pump.restart()
}

// Pump applies up to n shipped records to the replica, returning how
// many it applied (fewer when the log is drained). Every primary
// mutation is durably appended before its method returns (group commit
// acks after fsync), so a Pump immediately after a mutation sees all of
// its records.
func (h *Harness) Pump(n uint64) uint64 {
	h.tb.Helper()
	return h.pump.apply(n)
}

// CatchUp pumps until the replica has applied every durable primary
// record, failing the test if the stream runs dry first.
func (h *Harness) CatchUp() {
	h.tb.Helper()
	target := h.Primary.ReplicationInfo().TotalSeq
	for h.Replica.AppliedSeq() < target {
		if h.Pump(target-h.Replica.AppliedSeq()) == 0 {
			h.tb.Fatalf("catch-up stalled at seq %d of %d", h.Replica.AppliedSeq(), target)
		}
	}
	if got := h.Replica.AppliedSeq(); got != target {
		h.tb.Fatalf("applied %d records, primary at %d", got, target)
	}
}

// --- Cascading (second tier) --------------------------------------------

// Cascade extends the harness with a SECOND follower tier: the harness
// follower arms its relay log, and a leaf follower bootstraps from the
// follower (never the primary) and pumps the relay's frames through the
// same synchronous, stop-the-world-at-seq-k discipline the first tier
// uses. The leaf's only upstream is the mid-tier follower — byte
// equivalence at every shared sequence proves the extra hop loses
// nothing.
type Cascade struct {
	tb testing.TB
	// Up is the relay-armed mid-tier follower (the harness Replica);
	// Leaf the second-tier follower fed from Up's relay.
	Up   *core.Replica
	Leaf *core.Replica

	pump *logPump
}

// EnableCascade arms the harness follower's relay (records applied from
// here on are re-persisted) and bootstraps a leaf follower from the
// follower's own captured state. Call before pumping the records the
// leaf is expected to see.
func (h *Harness) EnableCascade() *Cascade {
	h.tb.Helper()
	if err := h.Replica.EnableRelay(h.tb.TempDir()); err != nil {
		h.tb.Fatal(err)
	}
	leaf, err := core.NewReplica(&core.LogSource{Node: h.Replica})
	if err != nil {
		h.tb.Fatal(err)
	}
	h.tb.Cleanup(func() { leaf.Close() })
	lg, err := h.Replica.ServedLog()
	if err != nil {
		h.tb.Fatal(err)
	}
	c := &Cascade{tb: h.tb, Up: h.Replica, Leaf: leaf, pump: newLogPump(h.tb, "leaf pump", lg, leaf)}
	c.RestartReader()
	return c
}

// RestartReader fences a leaf crash: a brand-new reader on the relay
// log, positioned from nothing but the leaf's AppliedSeq.
func (c *Cascade) RestartReader() {
	c.tb.Helper()
	c.pump.restart()
}

// Pump applies up to n relayed records to the leaf, returning how many
// it applied (fewer when the relay is drained).
func (c *Cascade) Pump(n uint64) uint64 {
	c.tb.Helper()
	return c.pump.apply(n)
}

// logPump applies one served log to one follower, synchronously, through
// the same validated reader the production consumers use.
type logPump struct {
	tb    testing.TB
	name  string
	lg    core.ServedLog
	rep   *core.Replica
	rd    *storage.LogReader
	batch []byte
}

func newLogPump(tb testing.TB, name string, lg core.ServedLog, rep *core.Replica) *logPump {
	p := &logPump{tb: tb, name: name, lg: lg, rep: rep}
	tb.Cleanup(func() {
		if p.rd != nil {
			p.rd.Close()
		}
	})
	return p
}

// restart replaces the reader with a fresh one at the follower's
// applied sequence.
func (p *logPump) restart() {
	p.tb.Helper()
	if p.rd != nil {
		p.rd.Close()
		p.rd = nil
	}
	rd, err := p.lg.Open(p.rep.AppliedSeq())
	if err != nil {
		p.tb.Fatalf("%s: resume at seq %d: %v", p.name, p.rep.AppliedSeq(), err)
	}
	p.rd = rd
}

// apply applies up to n records, returning how many it applied (fewer
// when the log is drained).
func (p *logPump) apply(n uint64) uint64 {
	p.tb.Helper()
	var applied uint64
	for applied < n {
		var err error
		if p.batch, err = p.rd.Read(p.batch[:0], p.rd.Seq()+n-applied); err != nil {
			p.tb.Fatalf("%s: %v", p.name, err)
		}
		if len(p.batch) == 0 {
			break
		}
		for rest := p.batch; len(rest) > 0; applied++ {
			var body []byte
			body, rest = storage.NextFrame(rest)
			rec, err := storage.DecodeRecord(body)
			if err != nil {
				p.tb.Fatalf("%s: %v", p.name, err)
			}
			if err := p.rep.ApplyRecord(rec); err != nil {
				p.tb.Fatalf("%s: %v", p.name, err)
			}
		}
	}
	return applied
}

// CatchUp pumps until the leaf has applied everything the mid-tier
// follower has, failing the test if the relay runs dry first.
func (c *Cascade) CatchUp() {
	c.tb.Helper()
	target := c.Up.AppliedSeq()
	for c.Leaf.AppliedSeq() < target {
		if c.Pump(target-c.Leaf.AppliedSeq()) == 0 {
			c.tb.Fatalf("leaf catch-up stalled at seq %d of %d", c.Leaf.AppliedSeq(), target)
		}
	}
	if got := c.Leaf.AppliedSeq(); got != target {
		c.tb.Fatalf("leaf applied %d records, follower at %d", got, target)
	}
}

// AssertEquivalent byte-compares the LEAF's served answers against a
// fresh recomputation on the primary at the current shared sequence —
// two hops of shipping versus zero.
func (c *Cascade) AssertEquivalent(primary *core.System, subs []profile.SubjectID, rooms []graph.ID, t interval.Time) {
	c.tb.Helper()
	want := FreshAnswers(primary, subs, rooms, t)
	got := CachedAnswers(c.Leaf.System(), subs, rooms, t)
	if !bytes.Equal(got, want) {
		c.tb.Fatalf("leaf diverged at seq %d:\nleaf:    %s\nprimary: %s",
			c.Leaf.AppliedSeq(), got, want)
	}
}

// --- The query battery --------------------------------------------------

// answers is the full serialized answer set the two sides must agree on.
type answers struct {
	Inaccessible map[profile.SubjectID][]graph.ID `json:"inaccessible"`
	Bounded      map[profile.SubjectID][]graph.ID `json:"bounded"`
	Accessible   map[profile.SubjectID][]graph.ID `json:"accessible"`
	Earliest     map[string]string                `json:"earliest"`
	Requests     map[string]enforce.Decision      `json:"requests"`
	WhoCan       map[graph.ID][]profile.SubjectID `json:"who_can"`
	Presence     map[profile.SubjectID]string     `json:"presence"`
}

// boundedWindow is the InaccessibleDuring window the battery probes —
// chosen to clip the default [1, 1<<30] entry windows the stress sites
// grant, so the bounded path does real clamping work.
var boundedWindow = interval.New(1, 50)

// CachedAnswers runs the battery through sys's public (memoized, view
// published) query paths — what real traffic sees.
func CachedAnswers(sys *core.System, subs []profile.SubjectID, rooms []graph.ID, t interval.Time) []byte {
	a := answers{
		Inaccessible: map[profile.SubjectID][]graph.ID{},
		Bounded:      map[profile.SubjectID][]graph.ID{},
		Accessible:   map[profile.SubjectID][]graph.ID{},
		Earliest:     map[string]string{},
		Requests:     map[string]enforce.Decision{},
		WhoCan:       map[graph.ID][]profile.SubjectID{},
		Presence:     map[profile.SubjectID]string{},
	}
	for _, sub := range subs {
		a.Inaccessible[sub] = sys.Inaccessible(sub)
		a.Bounded[sub] = sys.InaccessibleDuring(sub, boundedWindow)
		a.Accessible[sub] = sys.Accessible(sub)
		for _, l := range rooms {
			key := string(sub) + "@" + string(l)
			if at, ok := sys.EarliestAccess(sub, l); ok {
				a.Earliest[key] = at.String()
			}
			a.Requests[key] = sys.Request(t, sub, l)
		}
		if l, inside := sys.WhereIs(sub); inside {
			a.Presence[sub] = string(l)
		}
	}
	for _, l := range rooms {
		a.WhoCan[l] = sys.WhoCanAccess(l)
	}
	return mustJSON(a)
}

// FreshAnswers recomputes the battery from scratch on the primary —
// Algorithm 1 fixpoints straight off the live store, bypassing every
// memo — as the equivalence ground truth.
func FreshAnswers(sys *core.System, subs []profile.SubjectID, rooms []graph.ID, t interval.Time) []byte {
	a := answers{
		Inaccessible: map[profile.SubjectID][]graph.ID{},
		Bounded:      map[profile.SubjectID][]graph.ID{},
		Accessible:   map[profile.SubjectID][]graph.ID{},
		Earliest:     map[string]string{},
		Requests:     map[string]enforce.Decision{},
		WhoCan:       map[graph.ID][]profile.SubjectID{},
		Presence:     map[profile.SubjectID]string{},
	}
	flat, store := sys.Flat(), sys.AuthStore()
	for _, sub := range subs {
		res := query.FindInaccessible(flat, store, sub, query.Options{})
		a.Inaccessible[sub] = res.Inaccessible
		a.Bounded[sub] = query.FindInaccessible(flat, store, sub, query.Options{Window: boundedWindow}).Inaccessible
		a.Accessible[sub] = res.Accessible
		for _, l := range rooms {
			key := string(sub) + "@" + string(l)
			if at, ok := res.States[l].Grant.Earliest(); ok {
				a.Earliest[key] = at.String()
			}
			a.Requests[key] = sys.Request(t, sub, l)
		}
		if l, inside := sys.WhereIs(sub); inside {
			a.Presence[sub] = string(l)
		}
	}
	// WhoCanAccess ground truth: a fresh fixpoint per known subject, with
	// the same candidate order, dedup, and final sort as the cached path.
	known := append(sys.Subjects(), store.Subjects()...)
	fresh := map[profile.SubjectID]*query.Result{}
	for _, l := range rooms {
		a.WhoCan[l] = query.WhoCanAccessBy(known, func(sub profile.SubjectID) bool {
			res, ok := fresh[sub]
			if !ok {
				r := query.FindInaccessible(flat, store, sub, query.Options{})
				res, fresh[sub] = &r, &r
			}
			_, can := res.States[l].Grant.Earliest()
			return can
		})
		sort.Slice(a.WhoCan[l], func(i, j int) bool { return a.WhoCan[l][i] < a.WhoCan[l][j] })
	}
	return mustJSON(a)
}

// AssertEquivalent byte-compares the replica's served answers against a
// fresh primary-side recomputation at the current sequence.
func (h *Harness) AssertEquivalent(subs []profile.SubjectID, rooms []graph.ID, t interval.Time) {
	h.tb.Helper()
	want := FreshAnswers(h.Primary, subs, rooms, t)
	got := CachedAnswers(h.Replica.System(), subs, rooms, t)
	if !bytes.Equal(got, want) {
		h.tb.Fatalf("replica diverged at seq %d:\nreplica: %s\nprimary: %s",
			h.Replica.AppliedSeq(), got, want)
	}
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}
