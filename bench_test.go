// Benchmark harness for the LTAM reproduction. The paper (a formal-model
// paper) publishes no performance tables; its measurable claims are the
// worked examples (regenerated by the Experiment* tests in internal/...)
// and the complexity bound of Algorithm 1, O(N_L² · N_d · N_a) (§6).
// The benches here validate that bound empirically — one sweep per
// parameter with the others pinned — and quantify the design choices
// DESIGN.md calls out: fixpoint vs. the naive Def.-8 baseline (E6),
// Lemma-1 hierarchical solving vs. flat (E10), the enforcement fast path,
// the overstay monitor (E9), rule derivation, and the storage engine.
// EXPERIMENTS.md records the measured shapes next to the paper's claims.
package repro

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/movement"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/storage"
)

// gridGraph builds a side×side grid (N_L = side², N_d <= 4).
func gridGraph(side int) *graph.Graph {
	g := graph.New("grid")
	id := func(r, c int) graph.ID { return graph.ID(fmt.Sprintf("r%03d_%03d", r, c)) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if err := g.AddLocation(id(r, c)); err != nil {
				panic(err)
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
	_ = g.SetEntry(id(0, 0))
	return g
}

// degreeGraph builds a graph of n hubs in a ring, each hub connected to
// deg-2 extra ring members, pinning N_L and sweeping N_d.
func degreeGraph(n, deg int) *graph.Graph {
	g := graph.New("ring")
	id := func(i int) graph.ID { return graph.ID(fmt.Sprintf("v%04d", i)) }
	for i := 0; i < n; i++ {
		if err := g.AddLocation(id(i)); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n; i++ {
		for k := 1; k <= deg/2; k++ {
			j := (i + k) % n
			if !g.HasEdge(id(i), id(j)) && i != j {
				_ = g.AddEdge(id(i), id(j))
			}
		}
	}
	_ = g.SetEntry(id(0))
	return g
}

// authStore populates na authorizations per location with staggered
// windows so the fixpoint actually propagates interval sets.
func authStore(rng *rand.Rand, locs []graph.ID, na int) *authz.Store {
	st := authz.NewStore()
	for _, l := range locs {
		for k := 0; k < na; k++ {
			es := interval.Time(1 + rng.Intn(50))
			ee := es + interval.Time(5+rng.Intn(40))
			xs := es + interval.Time(rng.Intn(10))
			xe := ee + interval.Time(5+rng.Intn(40))
			if _, err := st.Add(authz.New(interval.New(es, ee), interval.New(xs, xe), "u", l, 1)); err != nil {
				panic(err)
			}
		}
	}
	return st
}

// --- E5: the O(N_L² · N_d · N_a) sweeps -------------------------------

// BenchmarkFindInaccessibleNL sweeps the number of locations with degree
// and authorizations pinned (grid: N_d <= 4, N_a = 2).
func BenchmarkFindInaccessibleNL(b *testing.B) {
	for _, side := range []int{4, 8, 16, 32} {
		nl := side * side
		b.Run(fmt.Sprintf("NL=%d", nl), func(b *testing.B) {
			f := graph.Expand(gridGraph(side))
			st := authStore(rand.New(rand.NewSource(7)), f.Nodes, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := query.FindInaccessible(f, st, "u", query.Options{})
				if len(res.States) != nl {
					b.Fatal("bad result")
				}
			}
		})
	}
}

// BenchmarkFindInaccessibleNd sweeps the maximum degree with N_L = 256
// and N_a = 2 pinned.
func BenchmarkFindInaccessibleNd(b *testing.B) {
	for _, deg := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("Nd=%d", deg), func(b *testing.B) {
			f := graph.Expand(degreeGraph(256, deg))
			st := authStore(rand.New(rand.NewSource(7)), f.Nodes, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query.FindInaccessible(f, st, "u", query.Options{})
			}
		})
	}
}

// BenchmarkFindInaccessibleNa sweeps authorizations per location with the
// 16×16 grid pinned.
func BenchmarkFindInaccessibleNa(b *testing.B) {
	for _, na := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("Na=%d", na), func(b *testing.B) {
			f := graph.Expand(gridGraph(16))
			st := authStore(rand.New(rand.NewSource(7)), f.Nodes, na)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query.FindInaccessible(f, st, "u", query.Options{})
			}
		})
	}
}

// --- E6: fixpoint vs. naive route enumeration --------------------------

// BenchmarkNaiveVsFixpoint compares Algorithm 1 against the Def.-8
// brute-force baseline on small cyclic graphs (the baseline is
// exponential; sizes are kept tiny so it terminates).
func BenchmarkNaiveVsFixpoint(b *testing.B) {
	for _, side := range []int{2, 3, 4} {
		f := graph.Expand(gridGraph(side))
		st := authStore(rand.New(rand.NewSource(7)), f.Nodes, 2)
		b.Run(fmt.Sprintf("fixpoint/NL=%d", side*side), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				query.FindInaccessible(f, st, "u", query.Options{})
			}
		})
		b.Run(fmt.Sprintf("naive/NL=%d", side*side), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				query.NaiveFindInaccessible(f, st, "u", 0)
			}
		})
	}
}

// --- E10: Lemma-1 hierarchical vs. flat ---------------------------------

// blockedCampus builds nb buildings of nr rooms; in half the buildings the
// second room's window closes before the first can be departed, blocking
// the building's interior locally — the case Lemma 1 prunes.
func blockedCampus(nb, nr int) (*graph.Graph, *authz.Store) {
	campus := graph.New("campus")
	st := authz.NewStore()
	var names []graph.ID
	for bIdx := 0; bIdx < nb; bIdx++ {
		bld := graph.New(graph.ID(fmt.Sprintf("b%03d", bIdx)))
		var ids []graph.ID
		for r := 0; r < nr; r++ {
			id := graph.ID(fmt.Sprintf("b%03d.r%03d", bIdx, r))
			ids = append(ids, id)
			_ = bld.AddLocation(id)
			if r > 0 {
				_ = bld.AddEdge(ids[r-1], ids[r])
			}
		}
		_ = bld.SetEntry(ids[0])
		_ = campus.AddComposite(bld)
		names = append(names, bld.Name())
		blocked := bIdx%2 == 1
		for r, id := range ids {
			if blocked && r == 1 {
				// Entry window closes at 10; the lobby cannot be left
				// before 20 — the interior is locally unreachable.
				_, _ = st.Add(authz.New(interval.New(1, 10), interval.New(1, 30), "u", id, 1))
			} else {
				_, _ = st.Add(authz.New(interval.New(1, 100), interval.New(20, 200), "u", id, 1))
			}
		}
	}
	for i := 1; i < nb; i++ {
		_ = campus.AddEdge(names[i-1], names[i])
	}
	_ = campus.SetEntry(names[0])
	return campus, st
}

// BenchmarkMultilevelVsFlat compares the Lemma-1 hierarchical solver with
// the flat solve on campuses with internally blocked buildings.
func BenchmarkMultilevelVsFlat(b *testing.B) {
	for _, nb := range []int{8, 32} {
		campus, st := blockedCampus(nb, 16)
		f := graph.Expand(campus)
		b.Run(fmt.Sprintf("flat/buildings=%d", nb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				query.FindInaccessible(f, st, "u", query.Options{})
			}
		})
		b.Run(fmt.Sprintf("lemma1/buildings=%d", nb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				query.FindInaccessibleMultilevel(campus, st, "u")
			}
		})
	}
}

// --- Enforcement path ---------------------------------------------------

// benchSystem builds an in-memory System over a 16×16 grid with one
// unlimited authorization per (user, room).
func benchSystem(b *testing.B, users int) (*core.System, []graph.ID) {
	b.Helper()
	g := gridGraph(16)
	sys, err := core.Open(core.Config{Graph: g})
	if err != nil {
		b.Fatal(err)
	}
	f := sys.Flat()
	for u := 0; u < users; u++ {
		id := profile.SubjectID(fmt.Sprintf("u%04d", u))
		for _, room := range f.Nodes {
			if _, err := sys.AddAuthorization(authz.New(interval.New(1, 1<<40), interval.New(1, 1<<41), id, room, authz.Unlimited)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return sys, f.Nodes
}

// BenchmarkRequest measures the Definition-7 decision fast path.
func BenchmarkRequest(b *testing.B) {
	sys, rooms := benchSystem(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := sys.Request(interval.Time(i+2), "u0007", rooms[i%len(rooms)])
		if !d.Granted {
			b.Fatal(d.Reason)
		}
	}
}

// BenchmarkEnter measures a full monitored movement (topology check,
// Def.-7 evaluation, movement log append).
func BenchmarkEnter(b *testing.B) {
	sys, rooms := benchSystem(b, 1)
	f := sys.Flat()
	cur := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns := f.Adj[cur]
		next := ns[i%len(ns)]
		if _, err := sys.Enter(interval.Time(i+2), "u0000", f.Nodes[next]); err != nil {
			b.Fatal(err)
		}
		cur = next
	}
	_ = rooms
}

// BenchmarkMonitorTick measures the E9 overstay sweep with many users
// inside (none in violation, the steady-state cost).
func BenchmarkMonitorTick(b *testing.B) {
	for _, users := range []int{64, 512} {
		b.Run(fmt.Sprintf("inside=%d", users), func(b *testing.B) {
			sys, rooms := benchSystem(b, users)
			for u := 0; u < users; u++ {
				id := profile.SubjectID(fmt.Sprintf("u%04d", u))
				if _, err := sys.Enter(2, id, rooms[0]); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Tick(interval.Time(i + 3)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Rules ---------------------------------------------------------------

// BenchmarkRuleDerivation measures all_route_from derivation (Example 3's
// operator) over growing grids.
func BenchmarkRuleDerivation(b *testing.B) {
	for _, side := range []int{4, 8} {
		b.Run(fmt.Sprintf("grid=%dx%d", side, side), func(b *testing.B) {
			g := gridGraph(side)
			f := graph.Expand(g)
			store := authz.NewStore()
			profiles := profile.NewDB()
			_ = profiles.Put(profile.Subject{ID: "u"})
			last := f.Nodes[len(f.Nodes)-1]
			base, err := store.Add(authz.New(interval.New(1, 100), interval.New(1, 200), "u", last, 1))
			if err != nil {
				b.Fatal(err)
			}
			eng := rules.NewEngine(store, profiles, g, false)
			if _, err := eng.AddRule(rules.Rule{
				Name: "r", ValidFrom: 1, Base: base.ID,
				Ops: rules.Ops{Location: rules.AllRouteFrom{Source: f.Nodes[0]}},
			}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Derive("r"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// shiftPolicy builds the grid16-shifts policy in memory: a 16×16 grid,
// 512 subjects (every twentieth in no group, so no rule grants it), one
// base authorization over the break between two shifts, and 80
// WHENEVERNOT rules — the hallway (column 0) for all staff and eight
// rooms of one row per department — which derive three authorizations
// per (member, room), about 35k in all. The rules are returned unadded.
func shiftPolicy(b *testing.B, autoDerive bool) (*rules.Engine, *authz.Store, *profile.DB, []rules.Rule) {
	b.Helper()
	g := gridGraph(16)
	room := func(r, c int) string { return fmt.Sprintf("r%03d_%03d", r, c) }
	store := authz.NewStore()
	profiles := profile.NewDB()
	for i := 0; i < 512; i++ {
		sub := profile.Subject{ID: profile.SubjectID(fmt.Sprintf("u%04d", i))}
		if i%20 != 0 {
			sub.Groups = []string{"staff", fmt.Sprintf("dept%d", i%8)}
		}
		if err := profiles.Put(sub); err != nil {
			b.Fatal(err)
		}
	}
	shiftBreak := interval.New(150001, 169999)
	base, err := store.Add(authz.New(shiftBreak, shiftBreak, "template", graph.ID(room(0, 0)), authz.Unlimited))
	if err != nil {
		b.Fatal(err)
	}
	var specs []rules.Spec
	shift := func(name, subject, location string) {
		specs = append(specs, rules.Spec{Name: name, ValidFrom: 1, Base: base.ID, Entry: "WHENEVERNOT", Exit: "WHENEVERNOT", Subject: subject, Location: location})
	}
	for r := 0; r < 16; r++ {
		shift("hall-"+room(r, 0), "Members_Of(staff)", room(r, 0))
	}
	for d := 0; d < 8; d++ {
		for c := 1; c <= 8; c++ {
			shift(fmt.Sprintf("dept%d-%s", d, room(2*d+1, c)), fmt.Sprintf("Members_Of(dept%d)", d), room(2*d+1, c))
		}
	}
	rs := make([]rules.Rule, len(specs))
	for i, spec := range specs {
		if rs[i], err = spec.Compile(); err != nil {
			b.Fatal(err)
		}
	}
	return rules.NewEngine(store, profiles, g, autoDerive), store, profiles, rs
}

// BenchmarkRuleDerivationShifts measures adding the 80 grid16-shifts
// rules to a store that grows to their full output, so each rule's cost
// shows whether it follows its own output or the whole store.
func BenchmarkRuleDerivationShifts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, store, _, rs := shiftPolicy(b, false)
		b.StartTimer()
		for _, r := range rs {
			if _, err := eng.AddRule(r); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(store.Len()), "auths")
	}
}

// BenchmarkProfileEditAutoDerive measures one profile edit under
// AutoDerive after the 80 grid16-shifts rules: a subject moves between
// two departments, so 16 rules re-derive and the other 64 find their
// output unchanged.
func BenchmarkProfileEditAutoDerive(b *testing.B) {
	eng, _, profiles, rs := shiftPolicy(b, true)
	for _, r := range rs {
		if _, err := eng.AddRule(r); err != nil {
			b.Fatal(err)
		}
	}
	edits := []profile.Subject{
		{ID: "u0001", Groups: []string{"staff", "dept2"}},
		{ID: "u0001", Groups: []string{"staff", "dept1"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := profiles.Put(edits[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Route checking and contact tracing ----------------------------------

// BenchmarkCheckRoute measures the §6 authorized-route check along a
// corridor of growing length.
func BenchmarkCheckRoute(b *testing.B) {
	for _, length := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("len=%d", length), func(b *testing.B) {
			g := graph.New("corridor")
			var route graph.Route
			for i := 0; i < length; i++ {
				id := graph.ID(fmt.Sprintf("c%03d", i))
				_ = g.AddLocation(id)
				if i > 0 {
					_ = g.AddEdge(route[i-1], id)
				}
				route = append(route, id)
			}
			_ = g.SetEntry(route[0])
			st := authz.NewStore()
			for _, id := range route {
				_, _ = st.Add(authz.New(interval.New(1, 1000), interval.New(1, 2000), "u", id, 1))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rc := query.CheckRoute(st, "u", route, interval.From(0))
				if !rc.Authorized {
					b.Fatal(rc.Reason)
				}
			}
		})
	}
}

// BenchmarkContactTracing measures the §1 SARS query over a day of
// synthetic ward traffic.
func BenchmarkContactTracing(b *testing.B) {
	db := movement.NewDB()
	rng := rand.New(rand.NewSource(3))
	clock := interval.Time(1)
	wards := []graph.ID{"w1", "w2", "w3", "w4"}
	for i := 0; i < 5000; i++ {
		who := profile.SubjectID(fmt.Sprintf("p%03d", rng.Intn(200)))
		if loc, inside := db.CurrentLocation(who); inside {
			_ = loc
			_, _, _ = db.RecordExit(clock, who)
		} else {
			_, _ = db.RecordEnter(clock, who, wards[rng.Intn(len(wards))], 0)
		}
		clock++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.ContactsOf("p007", interval.From(0))
	}
}

// --- Group commit ---------------------------------------------------------

// BenchmarkWALGroupCommit compares durable append strategies (every
// Append fsyncs, so every op is durably acknowledged). ns/op is per
// record in all variants:
//
//   - per-append-fsync: one-record groups — every record pays its own
//     fsync;
//   - append-group-64: 64 records per Append — one fsync per 64;
//   - committer-parallel: concurrent producers Commit single records
//     through the async committer and wait on the barrier — batching
//     emerges from arrivals during the in-flight fsync.
func BenchmarkWALGroupCommit(b *testing.B) {
	payload, _ := json.Marshal(map[string]string{"data": string(make([]byte, 64))})
	record := storage.Record{Type: "bench", Data: payload}

	b.Run("per-append-fsync", func(b *testing.B) {
		w, err := storage.OpenWAL(filepath.Join(b.TempDir(), "wal"), 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.Append(record); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("append-group-64", func(b *testing.B) {
		w, err := storage.OpenWAL(filepath.Join(b.TempDir(), "wal"), 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		group := make([]storage.Record, 64)
		for i := range group {
			group[i] = record
		}
		b.ResetTimer()
		for i := 0; i < b.N; i += len(group) {
			if err := w.Append(group...); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("committer-parallel", func(b *testing.B) {
		w, err := storage.OpenWAL(filepath.Join(b.TempDir(), "wal"), 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		c := storage.NewCommitter(w, nil)
		defer c.Close()
		// Force real producer concurrency even on single-vCPU CI boxes —
		// group commit's whole point is concurrent writers sharing fsyncs.
		b.SetParallelism(16)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := <-c.Commit(record); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		st := c.Stats()
		if st.Batches > 0 {
			b.ReportMetric(float64(st.Records)/float64(st.Batches), "records/fsync")
		}
	})
}

// observeSystem builds a durable System (fsync on every commit) over an
// 8×8 grid with unit-cell boundaries and full grants for n subjects.
func observeSystem(b *testing.B, n int) (*core.System, []profile.SubjectID, []geometry.Point) {
	b.Helper()
	const side = 8
	g := gridGraph(side)
	// gridGraph names rooms r%03d_%03d in row-major order; UnitGrid's
	// centers use the same order, so centers[i] resolves to room (r, c).
	bounds, centers := geometry.UnitGrid(side, func(r, c int) string {
		return fmt.Sprintf("r%03d_%03d", r, c)
	})
	sys, err := core.Open(core.Config{Graph: g, Boundaries: bounds, DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = sys.Close() })
	subjects := make([]profile.SubjectID, n)
	for u := range subjects {
		subjects[u] = profile.SubjectID(fmt.Sprintf("u%04d", u))
		for _, room := range sys.Flat().Nodes {
			if _, err := sys.AddAuthorization(authz.New(
				interval.New(1, 1<<40), interval.New(1, 1<<41), subjects[u], room, authz.Unlimited)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return sys, subjects, centers
}

// BenchmarkObserveBatch is the write-side acceptance benchmark: durable
// movement ingest (fsync on) through N sequential ObserveReading calls
// versus one ObserveBatch of N, at batch size 64. ns/op is per reading in
// both variants; the batched path takes the write lock once and fsyncs
// once per 64 readings.
func BenchmarkObserveBatch(b *testing.B) {
	const batch = 64

	b.Run("sequential-64", func(b *testing.B) {
		sys, subjects, centers := observeSystem(b, batch)
		clock := interval.Time(2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sub := subjects[i%batch]
			at := centers[(i/batch)%2]
			if _, _, err := sys.ObserveReading(clock, sub, at); err != nil {
				b.Fatal(err)
			}
			if i%batch == batch-1 {
				clock++
			}
		}
	})

	b.Run("batch-64", func(b *testing.B) {
		sys, subjects, centers := observeSystem(b, batch)
		clock := interval.Time(2)
		readings := make([]core.Reading, batch)
		b.ResetTimer()
		for i := 0; i < b.N; i += batch {
			at := centers[(i/batch)%2]
			for j := range readings {
				readings[j] = core.Reading{Time: clock, Subject: subjects[j], At: at}
			}
			out, err := sys.ObserveBatch(readings)
			if err != nil {
				b.Fatal(err)
			}
			for k := range out {
				if out[k].Err != nil {
					b.Fatal(out[k].Err)
				}
			}
			clock++
		}
	})
}

// BenchmarkMovementRecord measures the movement database's enter/exit
// cycle.
func BenchmarkMovementRecord(b *testing.B) {
	db := movement.NewDB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := interval.Time(i*2 + 1)
		if _, err := db.RecordEnter(t, "u", "room", 0); err != nil {
			b.Fatal(err)
		}
		if _, _, err := db.RecordExit(t+1, "u"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowedFindInaccessible measures the §6-windowed variant of
// Algorithm 1 (same fixture as NL=256, bounded visit-start window).
func BenchmarkWindowedFindInaccessible(b *testing.B) {
	f := graph.Expand(gridGraph(16))
	st := authStore(rand.New(rand.NewSource(7)), f.Nodes, 2)
	window := interval.New(5, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query.FindInaccessible(f, st, "u", query.Options{Window: window})
	}
}

// BenchmarkCheckItinerary measures the front-desk schedule validation on
// a corridor walk of growing length.
func BenchmarkCheckItinerary(b *testing.B) {
	for _, length := range []int{4, 32} {
		b.Run(fmt.Sprintf("visits=%d", length), func(b *testing.B) {
			g := graph.New("corridor")
			var rooms []graph.ID
			for i := 0; i < length; i++ {
				id := graph.ID(fmt.Sprintf("c%03d", i))
				_ = g.AddLocation(id)
				if i > 0 {
					_ = g.AddEdge(rooms[i-1], id)
				}
				rooms = append(rooms, id)
			}
			_ = g.SetEntry(rooms[0], rooms[length-1])
			f := graph.Expand(g)
			st := authz.NewStore()
			for _, id := range rooms {
				_, _ = st.Add(authz.New(interval.New(1, 1<<20), interval.New(1, 1<<21), "u", id, authz.Unlimited))
			}
			var visits []query.Visit
			for i, id := range rooms {
				visits = append(visits, query.Visit{
					Location: id,
					Arrive:   interval.Time(i*10 + 1),
					Depart:   interval.Time(i*10 + 10),
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ic := query.CheckItinerary(f, st, "u", visits); !ic.Feasible {
					b.Fatal(ic.Reason)
				}
			}
		})
	}
}

// --- Concurrent read scaling ---------------------------------------------

// BenchmarkParallelInaccessible measures aggregate throughput of repeated
// Inaccessible queries. "serial" is the seed's path: every query re-runs
// the Algorithm-1 fixpoint, single-threaded. "parallel" is the System
// read path: read-locked, memoized in the epoch cache, one goroutine per
// CPU. The ratio demonstrates the reader/writer refactor: repeated
// administrator and enforcement queries stop re-paying O(N_L²·N_d·N_a).
func BenchmarkParallelInaccessible(b *testing.B) {
	sys, _ := benchSystem(b, 16)
	subject := profile.SubjectID("u0007")
	b.Run("serial-uncached", func(b *testing.B) {
		f, st := sys.Flat(), sys.AuthStore()
		for i := 0; i < b.N; i++ {
			if res := query.FindInaccessible(f, st, subject, query.Options{}); len(res.States) == 0 {
				b.Fatal("bad result")
			}
		}
	})
	b.Run("parallel-cached", func(b *testing.B) {
		sys.Inaccessible(subject) // warm one entry
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if sys.Inaccessible(subject) != nil {
					b.Fatal("grid with full grants must have no inaccessible rooms")
				}
			}
		})
	})
}

// BenchmarkParallelRequest measures Definition-7 decision throughput with
// every goroutine issuing requests at the same instant — the card-reader
// fan-in case. "serial" is one goroutine, uncontended. The two parallel
// runs carry the same concurrent load: "parallel-exclusive" funnels every
// request through one mutex, reproducing the seed's serialization, while
// "parallel-rwlock" is the refactored read-locked path.
func BenchmarkParallelRequest(b *testing.B) {
	sys, rooms := benchSystem(b, 16)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if d := sys.Request(2, "u0007", rooms[i%len(rooms)]); !d.Granted {
				b.Fatal(d.Reason)
			}
		}
	})
	b.Run("parallel-exclusive", func(b *testing.B) {
		var mu sync.Mutex
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				mu.Lock()
				d := sys.Request(2, "u0007", rooms[i%len(rooms)])
				mu.Unlock()
				if !d.Granted {
					b.Fatal(d.Reason)
				}
				i++
			}
		})
	})
	b.Run("parallel-rwlock", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if d := sys.Request(2, "u0007", rooms[i%len(rooms)]); !d.Granted {
					b.Fatal(d.Reason)
				}
				i++
			}
		})
	})
}

// BenchmarkParallelMixedReadWrite is the contended case: one writer
// ticking the clock and churning authorizations while readers stream
// Inaccessible queries — the traffic shape of a busy control station.
func BenchmarkParallelMixedReadWrite(b *testing.B) {
	sys, rooms := benchSystem(b, 8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a, err := sys.AddAuthorization(authz.New(interval.New(1, 1<<40), interval.New(1, 1<<41),
				"writer", rooms[i%len(rooms)], authz.Unlimited))
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := sys.RevokeAuthorization(a.ID); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_ = sys.Inaccessible("u0003")
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// --- Shape checks (run as tests) -----------------------------------------

// TestComplexityShape verifies the E5 claim structurally rather than by
// wall clock: Algorithm 1's update count grows at most quadratically in
// N_L on grids (the bound's N_L² term) and the per-update work is linear
// in N_d and N_a by construction. This keeps the complexity experiment
// meaningful even on noisy CI machines.
func TestComplexityShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var updates []int
	sides := []int{4, 8, 16}
	for _, side := range sides {
		f := graph.Expand(gridGraph(side))
		st := authStore(rng, f.Nodes, 2)
		res := query.FindInaccessible(f, st, "u", query.Options{})
		updates = append(updates, res.Updates)
	}
	for i := 1; i < len(updates); i++ {
		nlRatio := float64(sides[i]*sides[i]) / float64(sides[i-1]*sides[i-1])
		gotRatio := float64(updates[i]) / float64(updates[i-1])
		// Updates must grow no faster than quadratically in N_L.
		if gotRatio > nlRatio*nlRatio {
			t.Errorf("updates grew x%.1f for N_L x%.1f — exceeds the N_L² bound", gotRatio, nlRatio)
		}
	}
	t.Logf("grid sides %v -> updates %v", sides, updates)
}
