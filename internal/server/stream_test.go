package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/stream"
	"repro/internal/wire"
)

// streamSite is observeSite with the system and server handle exposed,
// for asserting server-side state behind the streaming endpoints.
func streamSite(t testing.TB, side int, dataDir string, subjects ...string) (*core.System, *Server, *wire.Client, []graph.ID, []geometry.Point) {
	t.Helper()
	g := graph.New("grid")
	id := func(r, c int) graph.ID { return graph.ID(fmt.Sprintf("r%02d_%02d", r, c)) }
	bounds, centers := geometry.UnitGrid(side, func(r, c int) string { return string(id(r, c)) })
	var rooms []graph.ID
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			rooms = append(rooms, id(r, c))
			if err := g.AddLocation(id(r, c)); err != nil {
				t.Fatal(err)
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
	sys, err := core.Open(core.Config{Graph: g, Boundaries: bounds, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	for _, sub := range subjects {
		for _, room := range rooms {
			if _, err := sys.AddAuthorization(authz.New(
				interval.New(1, 1<<40), interval.New(1, 1<<41),
				profile.SubjectID(sub), room, authz.Unlimited)); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv := New(sys)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return sys, srv, wire.NewClient(ts.URL), rooms, centers
}

// TestStreamObserveEndpoint drives the long-lived ingest connection end
// to end: pipelined frames, cumulative acks, a per-reading error, a
// denial, and the final durable position.
func TestStreamObserveEndpoint(t *testing.T) {
	sys, _, client, _, centers := streamSite(t, 2, t.TempDir(), "alice")

	obs, err := client.StreamObserve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []wire.Reading{
		{Time: 2, Subject: "alice", X: centers[0].X, Y: centers[0].Y},
		{Time: 4, Subject: "alice", X: centers[1].X, Y: centers[1].Y},
		{Time: 1, Subject: "alice", X: centers[0].X, Y: centers[0].Y}, // time regression: per-reading error
		{Time: 5, Subject: "eve", X: centers[1].X, Y: centers[1].Y},   // tailgater: denied
	} {
		if err := obs.Send(r); err != nil {
			t.Fatal(err)
		}
	}
	ack, err := obs.Close()
	if err != nil {
		t.Fatalf("stream close: %v (ack %+v)", err, ack)
	}
	if !ack.Final {
		t.Fatalf("final ack not marked final: %+v", ack)
	}
	if ack.Acked != 4 {
		t.Fatalf("acked = %d, want 4", ack.Acked)
	}
	if ack.Granted != 2 || ack.Denied != 1 || ack.Errors != 1 {
		t.Fatalf("ack counters = %+v, want granted 2 denied 1 errors 1", ack)
	}
	if got := sys.ReplicationInfo().TotalSeq; ack.Seq != got {
		t.Fatalf("ack.Seq = %d, durable frontier %d", ack.Seq, got)
	}
	if loc, inside := sys.WhereIs("alice"); !inside || string(loc) != "r00_01" {
		t.Fatalf("alice at %q (inside=%v), want r00_01", loc, inside)
	}

	// The counters surface in /v1/stats.
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stream == nil {
		t.Fatal("stats missing stream section")
	}
	ing := stats.Stream.Ingest
	if ing.TotalConns != 1 || ing.Frames != 4 || ing.Chunks == 0 {
		t.Fatalf("ingest stats = %+v, want 1 conn, 4 frames, >0 chunks", ing)
	}
	if ing.Granted != 2 || ing.Denied != 1 || ing.Errors != 1 {
		t.Fatalf("ingest outcome stats = %+v", ing)
	}
}

// TestStreamObserveAckPrefixIsDurable cuts the connection without an
// End frame and proves the final flush still acked — and persisted —
// every complete frame.
func TestStreamObserveTornConnectionFlushes(t *testing.T) {
	sys, _, client, _, centers := streamSite(t, 2, t.TempDir(), "alice")

	obs, err := client.StreamObserve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Send(wire.Reading{Time: 2, Subject: "alice", X: centers[0].X, Y: centers[0].Y}); err != nil {
		t.Fatal(err)
	}
	obs.Abort() // flushes the buffered frame, then cuts the body
	// The server saw a torn stream; its last ack (which the aborted
	// client may or may not have read) covered the complete frame. The
	// durable state is what matters:
	deadline := time.Now().Add(5 * time.Second)
	for {
		if loc, inside := sys.WhereIs("alice"); inside && string(loc) == "r00_00" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("torn stream's complete frame never applied")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamEventsEndpoint subscribes over HTTP from sequence 0 and
// checks the catch-up replay, live delivery, filters, and the alert
// backlog.
func TestStreamEventsEndpoint(t *testing.T) {
	sys, _, client, rooms, centers := streamSite(t, 2, t.TempDir(), "alice")

	// History: the grants from streamSite, one enter, one denial alert.
	if _, err := sys.ObserveBatch([]core.Reading{
		{Time: 2, Subject: "alice", At: centers[0]},
		{Time: 3, Subject: "eve", At: centers[0]}, // denied -> alert
	}); err != nil {
		t.Fatal(err)
	}
	total := sys.ReplicationInfo().TotalSeq

	zero := uint64(0)
	es, err := client.Subscribe(context.Background(), wire.StreamSubscribeOptions{From: 0, AlertsSince: &zero})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()

	var records, grants, enters, alerts int
	for uint64(records) < total {
		ev, err := es.Next()
		if err != nil {
			t.Fatalf("feed ended early after %d records: %v", records, err)
		}
		switch ev.Kind {
		case stream.KindAlert:
			alerts++
			continue
		case stream.KindError:
			t.Fatalf("in-band error: %+v", ev)
		}
		if ev.Record == nil {
			t.Fatalf("record event without record: %+v", ev)
		}
		if ev.Seq != uint64(records) {
			t.Fatalf("event seq = %d, want %d (contiguous from 0)", ev.Seq, records)
		}
		records++
		switch ev.Kind {
		case stream.KindGrant:
			grants++
		case stream.KindEnter:
			enters++
		}
	}
	if grants != len(rooms) {
		t.Fatalf("grant events = %d, want %d", grants, len(rooms))
	}
	if enters != 2 {
		t.Fatalf("enter events = %d, want 2 (alice + tailgating eve)", enters)
	}
	// The retained-alert backlog is delivered when the subscription goes
	// live, which can be after the whole record history when catch-up
	// replayed it — keep reading until it lands.
	for alerts == 0 {
		ev, err := es.Next()
		if err != nil {
			t.Fatalf("awaiting alert backlog: %v", err)
		}
		if ev.Kind == stream.KindAlert {
			alerts++
		}
	}

	// Live phase: a new mutation arrives on the open feed.
	if _, err := sys.ObserveBatch([]core.Reading{{Time: 4, Subject: "alice", At: centers[1]}}); err != nil {
		t.Fatal(err)
	}
	for {
		ev, err := es.Next()
		if err != nil {
			t.Fatalf("live event: %v", err)
		}
		if ev.Kind == stream.KindEnter && ev.Subject == "alice" && string(ev.Location) == "r00_01" {
			break
		}
	}

	// Filtered subscription: only alice's enters.
	es2, err := client.Subscribe(context.Background(), wire.StreamSubscribeOptions{
		From: 0, Subject: "alice", Kinds: []stream.EventKind{stream.KindEnter},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer es2.Close()
	for i := 0; i < 2; i++ {
		ev, err := es2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != stream.KindEnter || ev.Subject != "alice" {
			t.Fatalf("filter leaked event %+v", ev)
		}
	}

	// The bus counters surface in /v1/stats.
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stream == nil || stats.Stream.Bus == nil {
		t.Fatal("stats missing bus section")
	}
	if stats.Stream.Bus.TotalSubscribers < 2 || stats.Stream.Bus.Published == 0 {
		t.Fatalf("bus stats = %+v", *stats.Stream.Bus)
	}
}

// TestStreamEventsCompactedFrom asserts the HTTP 410 contract for a
// subscription behind the compaction horizon.
func TestStreamEventsCompactedFrom(t *testing.T) {
	sys, _, client, _, centers := streamSite(t, 2, t.TempDir(), "alice")
	if _, err := sys.ObserveBatch([]core.Reading{{Time: 2, Subject: "alice", At: centers[0]}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if sys.ReplicationInfo().BaseSeq == 0 {
		t.Fatal("setup: compaction did not move the base")
	}
	// An explicit position inside the compacted prefix is HTTP 410.
	if _, err := client.Subscribe(context.Background(), wire.StreamSubscribeOptions{From: 1}); err == nil {
		t.Fatal("subscribe from 1 behind the horizon succeeded")
	} else if !strings.Contains(err.Error(), "compacted") {
		t.Fatalf("err = %v, want compaction 410", err)
	}
	// From 0 stays usable: it means "everything retained" and clamps to
	// the horizon.
	es, err := client.Subscribe(context.Background(), wire.StreamSubscribeOptions{From: 0})
	if err != nil {
		t.Fatalf("subscribe from 0 after compaction: %v", err)
	}
	defer es.Close()
	if _, err := sys.ObserveBatch([]core.Reading{{Time: 3, Subject: "alice", At: centers[1]}}); err != nil {
		t.Fatal(err)
	}
	ev, err := es.Next()
	if err != nil {
		t.Fatalf("clamped feed: %v", err)
	}
	if ev.Seq < sys.ReplicationInfo().BaseSeq {
		t.Fatalf("clamped feed delivered compacted seq %d", ev.Seq)
	}
}

// TestStreamEndpointsOnReplica: the follower serves neither half.
func TestStreamEndpointsOnReplica(t *testing.T) {
	sys, _, _, _, _ := streamSite(t, 2, t.TempDir(), "alice")
	rep, err := core.NewReplica(&core.LogSource{Node: sys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	rs := httptest.NewServer(NewReplica(rep))
	t.Cleanup(rs.Close)
	rclient := wire.NewClient(rs.URL)

	if _, err := rclient.StreamObserve(context.Background()); err == nil {
		t.Fatal("stream observe on a replica succeeded")
	}
	if _, err := rclient.Subscribe(context.Background(), wire.StreamSubscribeOptions{}); err == nil {
		t.Fatal("subscribe on a replica succeeded")
	}
}

// TestFollowLagMaxBarrier: queries on a stale follower 503 with a
// Retry-After while /v1/stats and /v1/replication/status stay
// servable.
func TestFollowLagMaxBarrier(t *testing.T) {
	sys, _, _, _, _ := streamSite(t, 2, t.TempDir(), "alice")
	rep, err := core.NewReplica(&core.LogSource{Node: sys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	srv := NewReplica(rep)
	srv.SetFollowLagMax(60 * time.Millisecond)
	rs := httptest.NewServer(srv)
	t.Cleanup(rs.Close)

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(rs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	// Freshly bootstrapped: within the bound.
	if code := get("/v1/queries/inaccessible?subject=alice"); code != http.StatusOK {
		t.Fatalf("fresh replica query: HTTP %d", code)
	}
	// No tail loop is running, so the follower cannot re-prove freshness;
	// staleness grows past the bound.
	time.Sleep(150 * time.Millisecond)
	resp, err := http.Get(rs.URL + "/v1/queries/inaccessible?subject=alice")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stale replica query: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
	// Operator endpoints stay open.
	if code := get("/v1/stats"); code != http.StatusOK {
		t.Fatalf("/v1/stats barred: HTTP %d", code)
	}
	if code := get("/v1/replication/status"); code != http.StatusOK {
		t.Fatalf("/v1/replication/status barred: HTTP %d", code)
	}

	// A primary never trips the barrier even with the knob set.
	psrv := New(sys)
	psrv.SetFollowLagMax(time.Nanosecond)
	ps := httptest.NewServer(psrv)
	t.Cleanup(ps.Close)
	presp, err := http.Get(ps.URL + "/v1/queries/inaccessible?subject=alice")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	_, _ = io.Copy(io.Discard, presp.Body)
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("primary with lag knob: HTTP %d", presp.StatusCode)
	}
}
