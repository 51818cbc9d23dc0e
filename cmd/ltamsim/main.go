// Command ltamsim drives an LTAM system with a synthetic crowd — the
// load generator behind the benchmark harness, usable standalone to watch
// the enforcement engine work at building scale. It builds a grid
// building, populates it with authorized staff, a fraction of visitors
// whose exit windows are short (overstay candidates), and a fraction of
// tailgaters with no authorizations at all, then random-walks everyone
// through the rooms while the monitor ticks.
//
// Usage:
//
//	ltamsim [-side 8] [-users 200] [-steps 500] [-seed 1]
//	        [-overstayers 0.1] [-tailgaters 0.05]
//	        [-batch 0] [-data dir]
//
// With -batch N the crowd is driven through the batched positioning
// pipeline: each step's movements become coordinate readings submitted
// via System.ObserveBatch in chunks of N, exercising the group-commit
// write path (one write-lock acquisition and one WAL fsync per chunk).
// With -data the system is durable, so the fsync amortization is real.
//
// With -stream <base-url> the crowd drives a RUNNING ltamd instead of
// an in-process system: subjects and grants are registered over the
// JSON API, then every movement rides one long-lived POST
// /v1/stream/observe connection as NDJSON frames, with the server's
// cumulative acks reporting the durable record sequence. The target
// daemon must serve the same grid site — write it first with
// -emit-site and boot ltamd with the produced graph.json/bounds.json.
//
// With -chaos (requires -stream) the ingest connection is routed
// through an in-process chaos TCP proxy (internal/fault) that hard-cuts
// it every -chaos-interval, and the observer is the resumable session
// client: each cut reconnects, re-sends the un-acked suffix, and the
// server deduplicates — the run must end with every frame applied
// exactly once, which is exactly what the final ack asserts. Control
// requests (populate, ticks) go directly to the daemon and are retried,
// so the run also survives the daemon itself being killed and
// restarted mid-flight.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"repro/internal/audit"
	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/stream"
	"repro/internal/wire"
)

// logger tags every diagnostic line; results still print to stdout.
var logger = obs.NewLogger("ltamsim")

func main() {
	side := flag.Int("side", 8, "grid building side (side*side rooms)")
	users := flag.Int("users", 200, "number of users")
	steps := flag.Int("steps", 500, "movement steps per user")
	seed := flag.Int64("seed", 1, "random seed (deterministic runs)")
	overstayers := flag.Float64("overstayers", 0.1, "fraction of users with short exit windows")
	tailgaters := flag.Float64("tailgaters", 0.05, "fraction of users with no authorizations")
	batch := flag.Int("batch", 0, "readings per ObserveBatch call (0 = direct Enter path)")
	data := flag.String("data", "", "data directory (enables WAL durability + group commit)")
	streamURL := flag.String("stream", "", "drive a running ltamd over POST /v1/stream/observe at this base URL (comma-separated list enables client-side failover)")
	wireFmt := flag.String("wire", "ndjson", "stream framing: ndjson or binary")
	emitSite := flag.String("emit-site", "", "write the grid site (graph.json, bounds.json) for ltamd to this directory and exit")
	chaos := flag.Bool("chaos", false, "with -stream: route ingest through a connection-killing chaos proxy and use the resumable session client")
	chaosInterval := flag.Duration("chaos-interval", 500*time.Millisecond, "with -chaos: how often the proxy hard-cuts every connection")
	sustain := flag.Duration("sustain", 0, "with -stream: sustained-load mode — drive the ingest stream for this long and emit an SLO report (throughput + per-stage p50/p95/p99) as JSON")
	sloOut := flag.String("slo-out", "", "with -sustain: write the SLO report to this file instead of stdout")
	logLevel := flag.String("log-level", "info", "minimum log level (debug|info|warn|error)")
	flag.Parse()

	lv, lvErr := obs.ParseLevel(*logLevel)
	if lvErr != nil {
		logger.Fatalf("%v", lvErr)
	}
	obs.SetLevel(lv)

	if *emitSite != "" {
		if err := EmitSite(*emitSite, *side); err != nil {
			logger.Fatalf("%v", err)
		}
		fmt.Printf("site files for the %dx%d grid written to %s\n", *side, *side, *emitSite)
		return
	}
	if *streamURL != "" {
		wf, err := wire.ParseWireFormat(*wireFmt)
		if err != nil {
			logger.Fatalf("%v", err)
		}
		if *sustain > 0 {
			runSustain(*streamURL, wf, *side, *users, *seed, *overstayers, *tailgaters, *sustain, *sloOut)
			return
		}
		runStream(*streamURL, wf, *side, *users, *steps, *seed, *overstayers, *tailgaters, *chaos, *chaosInterval)
		return
	}
	if *chaos {
		logger.Fatalf("-chaos requires -stream")
	}
	if *sustain > 0 {
		logger.Fatalf("-sustain requires -stream")
	}

	g, rooms := GridBuilding(*side)
	cfg := core.Config{Graph: g, DataDir: *data}
	if *batch > 0 {
		cfg.Boundaries = GridBoundaries(*side)
	}
	sys, err := core.Open(cfg)
	if err != nil {
		logger.Fatalf("%v", err)
	}
	defer sys.Close()

	rng := rand.New(rand.NewSource(*seed))
	horizon := interval.Time(int64(*steps) * 4)
	stats := Populate(sys, rng, rooms, *users, *overstayers, *tailgaters, horizon)

	start := time.Now()
	var granted, denied int
	if *batch > 0 {
		granted, denied = RunCrowdBatch(sys, rng, rooms, stats.Walkers, *steps, *batch)
	} else {
		granted, denied = RunCrowd(sys, rng, rooms, stats.Walkers, *steps)
	}
	elapsed := time.Since(start)

	events := sys.Movements().Len()
	fmt.Printf("building: %dx%d grid (%d rooms)\n", *side, *side, len(rooms))
	fmt.Printf("users: %d (%d overstay-prone, %d tailgaters)\n", *users, stats.Overstayers, stats.Tailgaters)
	if *batch > 0 {
		fmt.Printf("ingest: batched positioning readings, %d per ObserveBatch\n", *batch)
	} else {
		fmt.Printf("ingest: direct Enter calls\n")
	}
	fmt.Printf("movements: %d events in %v (%.0f events/sec)\n",
		events, elapsed.Round(time.Millisecond), float64(events)/elapsed.Seconds())
	fmt.Printf("entries granted: %d, denied: %d\n", granted, denied)
	counts := sys.Alerts().Counts()
	fmt.Printf("alerts: overstay=%d unauthorized=%d illegal=%d denied=%d exhausted=%d\n",
		counts[audit.Overstay], counts[audit.UnauthorizedEntry],
		counts[audit.IllegalMovement], counts[audit.DeniedRequest], counts[audit.EntryExhausted])
	if *data != "" {
		cs := sys.CommitStats()
		if cs.Batches > 0 {
			fmt.Printf("wal: %d records in %d fsync batches (mean batch %.1f)\n",
				cs.Records, cs.Batches, float64(cs.Records)/float64(cs.Batches))
		}
	}
}

// EmitSite writes the grid site's graph.json and bounds.json into dir,
// ready for `ltamd -graph dir/graph.json -bounds dir/bounds.json` —
// the deployment half of -stream mode.
func EmitSite(dir string, side int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g, _ := GridBuilding(side)
	spec, err := json.MarshalIndent(graph.ToSpec(g), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "graph.json"), spec, 0o644); err != nil {
		return err
	}
	bounds, err := json.MarshalIndent(GridBoundaries(side), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "bounds.json"), bounds, 0o644)
}

// observer is the ingest-stream surface runStream drives: the plain
// StreamObserver, or the resumable session client in -chaos mode.
type observer interface {
	Send(wire.Reading) error
	Flush() error
	Ack() stream.Ack
	Err() error
	Close() (stream.Ack, error)
}

// runStream drives a running ltamd: populate over the JSON API, then
// stream the random walk down one long-lived ingest connection,
// flushing once per simulation step and closing for the final durable
// ack. In chaos mode the connection goes through a kill-happy proxy and
// the resumable client repairs it; the final ack must still cover every
// frame exactly once.
func runStream(base string, wf wire.WireFormat, side, users, steps int, seed int64, overstayFrac, tailgateFrac float64, chaos bool, chaosInterval time.Duration) {
	// A comma-separated -stream list arms client-side failover: the
	// resumable ingest session re-probes the fleet on every repair, so
	// the walk rides through a primary promotion mid-stream.
	endpoints := wire.SplitEndpoints(base)
	if len(endpoints) == 0 {
		logger.Fatalf("empty -stream url")
	}
	base = endpoints[0]
	var fc *wire.FailoverClient
	client := wire.NewClient(base)
	if len(endpoints) > 1 {
		var err error
		if fc, err = wire.NewFailoverClient(endpoints...); err != nil {
			logger.Fatalf("failover client: %v", err)
		}
		if c, err := fc.Probe(context.Background()); err == nil {
			client = c
		}
	}
	g, rooms := GridBuilding(side)
	rng := rand.New(rand.NewSource(seed))
	horizon := interval.Time(int64(steps) * 4)

	stats, err := PopulateRemote(client, rng, rooms, users, overstayFrac, tailgateFrac, horizon)
	if err != nil {
		logger.Fatalf("populate %s: %v (does the daemon serve the -emit-site grid?)", base, err)
	}

	var obs observer
	var prox *fault.Proxy
	ackDeadline := 30 * time.Second
	if chaos {
		u, err := url.Parse(base)
		if err != nil || u.Host == "" {
			logger.Fatalf("parse -stream url %q: %v", base, err)
		}
		prox, err = fault.NewProxy("127.0.0.1:0", u.Host)
		if err != nil {
			logger.Fatalf("start chaos proxy: %v", err)
		}
		defer prox.Close()
		stopKills := make(chan struct{})
		defer close(stopKills)
		go func() {
			t := time.NewTicker(chaosInterval)
			defer t.Stop()
			for {
				select {
				case <-stopKills:
					return
				case <-t.C:
					prox.KillAll()
				}
			}
		}()
		ro, err := wire.NewClient("http://"+prox.Addr()).StreamObserveResumable(context.Background(), wf)
		if err != nil {
			logger.Fatalf("open resumable ingest stream: %v", err)
		}
		obs = ro
		ackDeadline = 90 * time.Second // rides out daemon kills/restarts too
		fmt.Printf("chaos: proxy %s -> %s, cutting every connection every %s\n", prox.Addr(), u.Host, chaosInterval)
	} else if fc != nil {
		ro, err := fc.StreamObserveResumable(context.Background(), wf)
		if err != nil {
			logger.Fatalf("open failover ingest stream: %v", err)
		}
		obs = ro
		ackDeadline = 90 * time.Second // rides out a failover window too
	} else {
		o, err := client.StreamObserveWire(context.Background(), wf)
		if err != nil {
			logger.Fatalf("open ingest stream: %v", err)
		}
		obs = o
	}
	// tick advances the monitor clock on its own request, directly
	// against the daemon. Chaos mode retries it: the daemon may be down
	// mid-restart when the tick fires.
	tick := func(t interval.Time) error {
		_, err := client.Tick(t)
		if !chaos && fc == nil {
			return err
		}
		// Tick is idempotent (the clock only moves forward), so retrying
		// across a restart or a failover cannot double-apply anything.
		deadline := time.Now().Add(ackDeadline)
		for err != nil && time.Now().Before(deadline) {
			time.Sleep(200 * time.Millisecond)
			if fc != nil {
				if c, perr := fc.Probe(context.Background()); perr == nil {
					client = c
				}
			}
			_, err = client.Tick(t)
		}
		return err
	}
	centers := RoomCenters(side, rooms)
	start := time.Now()
	clock := interval.Time(1)
	var sent uint64
	for s := 0; s < steps; s++ {
		for i := range stats.Walkers {
			w := &stats.Walkers[i]
			var target graph.ID
			if w.Room < 0 {
				target = rooms[0] // enter at the entry room
			} else {
				ns := g.Neighbors(rooms[w.Room])
				target = ns[rng.Intn(len(ns))]
			}
			at := centers[target]
			if err := obs.Send(wire.Reading{Time: clock, Subject: w.ID, X: at.X, Y: at.Y}); err != nil {
				logger.Fatalf("send: %v", err)
			}
			sent++
			for j, room := range rooms {
				if room == target {
					w.Room = j
					break
				}
			}
		}
		// One flush per step: frames pipeline to the server while the
		// walk keeps generating — acks flow back asynchronously.
		if err := obs.Flush(); err != nil {
			logger.Fatalf("flush: %v", err)
		}
		clock++
		if s%16 == 15 {
			// Tick travels on its own request, racing the pipelined
			// frames; advancing the monitor clock past queued readings
			// would make their times regress. The cumulative ack says
			// exactly when the stream has drained.
			if err := waitForAck(obs, sent, ackDeadline); err != nil {
				logger.Fatalf("await acks before tick: %v", err)
			}
			if err := tick(clock); err != nil {
				logger.Fatalf("tick: %v", err)
			}
			clock++
		}
	}
	ack, err := obs.Close()
	if err != nil {
		logger.Fatalf("close stream: %v (last ack %+v)", err, ack)
	}
	elapsed := time.Since(start)

	fmt.Printf("building: %dx%d grid (%d rooms), remote daemon %s\n", side, side, len(rooms), base)
	fmt.Printf("users: %d (%d overstay-prone, %d tailgaters)\n", users, stats.Overstayers, stats.Tailgaters)
	fmt.Printf("ingest: one streaming connection (%s wire), %d frames in %v (%.0f frames/sec)\n",
		wf, sent, elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds())
	fmt.Printf("acked: %d frames durable up to record seq %d\n", ack.Acked, ack.Seq)
	fmt.Printf("entries granted: %d, denied: %d, errors: %d\n", ack.Granted, ack.Denied, ack.Errors)
	if prox != nil {
		ro := obs.(*wire.ResumableObserver)
		fmt.Printf("chaos: %d connections cut by the proxy, %d reconnects, session %s\n",
			prox.Killed(), ro.Reconnects(), ro.Session())
	} else if fc != nil {
		ro := obs.(*wire.ResumableObserver)
		fmt.Printf("failover: %d reconnects, session %s, final primary %s\n",
			ro.Reconnects(), ro.Session(), fc.Current().BaseURL)
	}
	if st, err := client.Stats(); err == nil && st.Stream != nil {
		ing := st.Stream.Ingest
		if ing.Chunks > 0 {
			fmt.Printf("server chunking: %d frames in %d ObserveBatch calls (mean chunk %.1f)\n",
				ing.Frames, ing.Chunks, float64(ing.Frames)/float64(ing.Chunks))
		}
	}
}

// waitForAck blocks until the server's cumulative ack covers the first
// n frames of the stream (or the stream dies, or patience runs out).
func waitForAck(obs observer, n uint64, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for obs.Ack().Acked < n {
		if err := obs.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("acks stalled at %d of %d", obs.Ack().Acked, n)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// PopulateRemote is Populate against a running daemon: same crowd
// composition, same RNG draw order, registered over the JSON API.
func PopulateRemote(c *wire.Client, rng *rand.Rand, rooms []graph.ID, users int, overstayFrac, tailgateFrac float64, horizon interval.Time) (PopulateStats, error) {
	var st PopulateStats
	for i := 0; i < users; i++ {
		w := Walker{ID: profile.SubjectID(fmt.Sprintf("u%04d", i)), Room: -1}
		if err := c.PutSubject(profile.Subject{ID: w.ID}); err != nil {
			return st, err
		}
		roll := rng.Float64()
		switch {
		case roll < tailgateFrac:
			st.Tailgaters++
		case roll < tailgateFrac+overstayFrac:
			st.Overstayers++
			for _, room := range rooms {
				if _, err := c.AddAuthorization(authz.New(interval.New(1, horizon/4), interval.New(1, horizon/4), w.ID, room, authz.Unlimited)); err != nil {
					return st, err
				}
			}
		default:
			for _, room := range rooms {
				if _, err := c.AddAuthorization(authz.New(interval.New(1, horizon), interval.New(1, horizon), w.ID, room, authz.Unlimited)); err != nil {
					return st, err
				}
			}
		}
		st.Walkers = append(st.Walkers, w)
	}
	return st, nil
}

// GridBuilding builds a side×side grid of rooms with 4-neighbour
// corridors and the corner room as the entry location.
func GridBuilding(side int) (*graph.Graph, []graph.ID) {
	g := graph.New("grid")
	var rooms []graph.ID
	id := func(r, c int) graph.ID { return graph.ID(fmt.Sprintf("r%02d_%02d", r, c)) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			rooms = append(rooms, id(r, c))
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
	if err := g.SetEntry(id(0, 0)); err != nil {
		panic(err)
	}
	return g, rooms
}

// gridRoomName matches GridBuilding's room naming.
func gridRoomName(r, c int) string { return fmt.Sprintf("r%02d_%02d", r, c) }

// GridBoundaries gives every room of the grid building a unit-square
// physical boundary (geometry.UnitGrid's layout). Index order matches
// GridBuilding's rooms slice.
func GridBoundaries(side int) []geometry.Boundary {
	bounds, _ := geometry.UnitGrid(side, gridRoomName)
	return bounds
}

// RoomCenters maps each room to a reading coordinate strictly inside its
// unit cell, matching GridBoundaries' layout.
func RoomCenters(side int, rooms []graph.ID) map[graph.ID]geometry.Point {
	_, centers := geometry.UnitGrid(side, gridRoomName)
	byRoom := make(map[graph.ID]geometry.Point, len(rooms))
	for i, room := range rooms {
		byRoom[room] = centers[i]
	}
	return byRoom
}

// Walker is one synthetic user.
type Walker struct {
	ID   profile.SubjectID
	Room int // index into rooms; -1 = outside
}

// PopulateStats reports the crowd composition.
type PopulateStats struct {
	Walkers     []Walker
	Overstayers int
	Tailgaters  int
}

// Populate registers subjects and their authorizations. Regular users get
// unlimited entries over the whole horizon; overstay-prone users get an
// exit window that closes at horizon/4; tailgaters get nothing.
func Populate(sys *core.System, rng *rand.Rand, rooms []graph.ID, users int, overstayFrac, tailgateFrac float64, horizon interval.Time) PopulateStats {
	var st PopulateStats
	for i := 0; i < users; i++ {
		w := Walker{ID: profile.SubjectID(fmt.Sprintf("u%04d", i)), Room: -1}
		if err := sys.PutSubject(profile.Subject{ID: w.ID}); err != nil {
			panic(err)
		}
		roll := rng.Float64()
		switch {
		case roll < tailgateFrac:
			st.Tailgaters++
		case roll < tailgateFrac+overstayFrac:
			// Overstay-prone: both windows close at horizon/4 (the
			// paper requires toe >= tie), so anyone still inside after
			// that trips the monitor.
			st.Overstayers++
			for _, room := range rooms {
				mustAdd(sys, authz.New(interval.New(1, horizon/4), interval.New(1, horizon/4), w.ID, room, authz.Unlimited))
			}
		default:
			for _, room := range rooms {
				mustAdd(sys, authz.New(interval.New(1, horizon), interval.New(1, horizon), w.ID, room, authz.Unlimited))
			}
		}
		st.Walkers = append(st.Walkers, w)
	}
	return st
}

func mustAdd(sys *core.System, a authz.Authorization) {
	if _, err := sys.AddAuthorization(a); err != nil {
		panic(err)
	}
}

// RunCrowd random-walks every walker for steps rounds, ticking the
// monitor every 16 rounds, and returns granted/denied entry counts.
func RunCrowd(sys *core.System, rng *rand.Rand, rooms []graph.ID, walkers []Walker, steps int) (granted, denied int) {
	flat := sys.Flat()
	clock := interval.Time(1)
	for s := 0; s < steps; s++ {
		for i := range walkers {
			w := &walkers[i]
			var target graph.ID
			if w.Room < 0 {
				target = rooms[0] // enter at the entry room
			} else {
				ns := flat.Adj[w.Room]
				target = flat.Nodes[ns[rng.Intn(len(ns))]]
			}
			d, err := sys.Enter(clock, w.ID, target)
			if err != nil {
				panic(err)
			}
			if d.Granted {
				granted++
			} else {
				denied++
			}
			w.Room = flat.MustIndex(target)
		}
		clock++
		if s%16 == 15 {
			if _, err := sys.Tick(clock); err != nil {
				panic(err)
			}
			clock++
		}
	}
	return granted, denied
}

// RunCrowdBatch drives the same random walk as RunCrowd, but through the
// positioning pipeline: each step's movements become coordinate readings
// submitted via ObserveBatch in chunks of batchSize — one write-lock
// acquisition and one WAL group (one fsync, when durable) per chunk. It
// draws the same random sequence as RunCrowd, so the two modes produce
// identical granted/denied counts and alerts for a given seed.
func RunCrowdBatch(sys *core.System, rng *rand.Rand, rooms []graph.ID, walkers []Walker, steps, batchSize int) (granted, denied int) {
	if batchSize <= 0 {
		batchSize = len(walkers)
	}
	flat := sys.Flat()
	side := 1
	for side*side < len(rooms) {
		side++
	}
	centers := RoomCenters(side, rooms)
	clock := interval.Time(1)
	readings := make([]core.Reading, 0, batchSize)
	flush := func() {
		if len(readings) == 0 {
			return
		}
		out, err := sys.ObserveBatch(readings)
		if err != nil {
			panic(err)
		}
		for _, o := range out {
			if o.Err != nil {
				panic(o.Err)
			}
			if o.Decision.Granted {
				granted++
			} else {
				denied++
			}
		}
		readings = readings[:0]
	}
	for s := 0; s < steps; s++ {
		for i := range walkers {
			w := &walkers[i]
			var target graph.ID
			if w.Room < 0 {
				target = rooms[0] // enter at the entry room
			} else {
				ns := flat.Adj[w.Room]
				target = flat.Nodes[ns[rng.Intn(len(ns))]]
			}
			readings = append(readings, core.Reading{Time: clock, Subject: w.ID, At: centers[target]})
			w.Room = flat.MustIndex(target)
			if len(readings) >= batchSize {
				flush()
			}
		}
		flush() // a step's readings never straddle a clock tick
		clock++
		if s%16 == 15 {
			if _, err := sys.Tick(clock); err != nil {
				panic(err)
			}
			clock++
		}
	}
	return granted, denied
}
