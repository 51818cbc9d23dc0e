package server

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/stream"
	"repro/internal/wire"
)

// TestCascadeOverHTTP boots the full three-tier topology over real
// HTTP — primary → cascading follower (-relay) → leaf — and checks:
//
//   - the leaf bootstraps from and tails the FOLLOWER, converging on
//     the primary's answers with zero leaf connections on the primary
//     (the primary's wal_conns counter never exceeds the one follower);
//   - promotion terms propagate through the extra hop (status role/term
//     agree end to end);
//   - the follower serves the committed-event feed from its relay, and
//     a durable cursor on it survives a subscriber restart: kill the
//     stream, resubscribe with only the token, resume exactly after the
//     last ack.
func TestCascadeOverHTTP(t *testing.T) {
	sys, _, client, _, centers := streamSite(t, 2, t.TempDir(), "alice")

	// Pre-replication history.
	if _, err := sys.ObserveBatch([]core.Reading{{Time: 2, Subject: "alice", At: centers[0]}}); err != nil {
		t.Fatal(err)
	}

	// Tier 2: follower of the primary, cascade armed.
	rep, err := core.NewReplica(client.ReplicationSource())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if err := rep.EnableRelay(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	repDone := make(chan error, 1)
	go func() {
		repDone <- rep.Run(ctx, core.RunConfig{RetryMin: time.Millisecond, RetryMax: 10 * time.Millisecond})
	}()
	fsrv := NewReplica(rep)
	defer fsrv.Close()
	fts := httptest.NewServer(fsrv)
	defer fts.Close()
	fclient := wire.NewClient(fts.URL)

	// Tier 3: leaf follower whose ONLY upstream is the follower.
	leaf, err := core.NewReplica(fclient.ReplicationSource())
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	leafDone := make(chan error, 1)
	go func() {
		leafDone <- leaf.Run(ctx, core.RunConfig{RetryMin: time.Millisecond, RetryMax: 10 * time.Millisecond})
	}()
	lsrv := NewReplica(leaf)
	defer lsrv.Close()
	lts := httptest.NewServer(lsrv)
	defer lts.Close()
	lclient := wire.NewClient(lts.URL)

	// Post-bootstrap traffic flows primary → follower → leaf.
	for i := 0; i < 6; i++ {
		if _, err := sys.ObserveBatch([]core.Reading{
			{Time: interval.Time(3 + i), Subject: "alice", At: centers[i%len(centers)]},
		}); err != nil {
			t.Fatal(err)
		}
	}
	total := sys.ReplicationInfo().TotalSeq

	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := lclient.ReplicationStatus()
		if err != nil {
			t.Fatal(err)
		}
		if st.Role == "replica" && st.AppliedSeq == total && st.Lag == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaf stalled: %+v (primary at %d)", st, total)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Answers agree end to end.
	want, err := client.Where("alice")
	if err != nil {
		t.Fatal(err)
	}
	got, err := lclient.Where("alice")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("leaf presence %+v != primary %+v", got, want)
	}

	// Fan-out accounting: the leaf tier adds zero primary load. Exactly
	// one WAL connection on the primary (the follower); the leaf's is on
	// the follower, whose status also flags the relay.
	pst, err := client.ReplicationStatus()
	if err != nil {
		t.Fatal(err)
	}
	if pst.WalConns != 1 {
		t.Fatalf("primary wal_conns = %d, want 1 (follower only)", pst.WalConns)
	}
	fst, err := fclient.ReplicationStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !fst.Relay || fst.WalConns != 1 || fst.WalBytes == 0 {
		t.Fatalf("follower status = %+v, want relay with 1 wal conn and bytes shipped", fst)
	}
	// Terms agree across the tree (no promotion has happened).
	if pst.Term != fst.Term {
		t.Fatalf("term diverged across the hop: primary %d, follower %d", pst.Term, fst.Term)
	}

	// The committed-event feed off the FOLLOWER's relay, with a durable
	// cursor: consume a prefix, ack it, kill the stream. An unknown
	// cursor subscribes from everything retained, which on a relay means
	// its base — the follower's applied position when the relay was
	// armed (records below it live in the state a downstream bootstrap
	// captures).
	start := fst.BaseSeq
	es, err := fclient.Subscribe(ctx, wire.StreamSubscribeOptions{Cursor: "leafwatch"})
	if err != nil {
		t.Fatal(err)
	}
	var lastAcked uint64
	for n := 0; n < 3; {
		ev, err := es.Next()
		if err != nil {
			t.Fatalf("follower feed: %v", err)
		}
		if ev.Kind == stream.KindAlert || ev.Kind == stream.KindError {
			continue
		}
		if ev.Seq != start+uint64(n) {
			t.Fatalf("feed seq %d, want %d", ev.Seq, start+uint64(n))
		}
		if _, err := fclient.AckCursor("leafwatch", ev.Seq); err != nil {
			t.Fatalf("ack: %v", err)
		}
		lastAcked = ev.Seq
		n++
	}
	es.Close()

	// Restart with only the token: delivery resumes exactly after the
	// last ack — no from=, no duplicates, no gap.
	es2, err := fclient.Subscribe(ctx, wire.StreamSubscribeOptions{Cursor: "leafwatch"})
	if err != nil {
		t.Fatal(err)
	}
	defer es2.Close()
	for {
		ev, err := es2.Next()
		if err != nil {
			t.Fatalf("resumed feed: %v", err)
		}
		if ev.Kind == stream.KindAlert || ev.Kind == stream.KindError {
			continue
		}
		if ev.Seq != lastAcked+1 {
			t.Fatalf("resumed at seq %d, want %d (acked %d)", ev.Seq, lastAcked+1, lastAcked)
		}
		break
	}

	// An explicit from= wins over the cursor (the resumable client's
	// redials carry exact positions).
	es3, err := fclient.Subscribe(ctx, wire.StreamSubscribeOptions{From: start + 1, Cursor: "leafwatch"})
	if err != nil {
		t.Fatal(err)
	}
	defer es3.Close()
	for {
		ev, err := es3.Next()
		if err != nil {
			t.Fatalf("explicit-from feed: %v", err)
		}
		if ev.Kind == stream.KindAlert || ev.Kind == stream.KindError {
			continue
		}
		if ev.Seq != start+1 {
			t.Fatalf("explicit from=%d started at %d", start+1, ev.Seq)
		}
		break
	}

	cancel()
	if err := <-repDone; err != nil {
		t.Fatalf("follower run: %v", err)
	}
	if err := <-leafDone; err != nil {
		t.Fatalf("leaf run: %v", err)
	}
}

// TestCascadeRequiresRelay: a follower without -relay refuses the
// replication surface and the event feed with a clear error instead of
// serving nothing.
func TestCascadeRequiresRelay(t *testing.T) {
	sys, _, _, _, _ := streamSite(t, 2, t.TempDir(), "alice")
	rep, err := core.NewReplica(&core.LogSource{Node: sys})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	fsrv := NewReplica(rep)
	defer fsrv.Close()
	fts := httptest.NewServer(fsrv)
	defer fts.Close()
	fclient := wire.NewClient(fts.URL)

	if _, err := core.NewReplica(fclient.ReplicationSource()); err == nil ||
		!strings.Contains(err.Error(), "cascade") {
		t.Fatalf("bootstrap from relay-less follower: %v, want cascade hint", err)
	}
	if _, err := fclient.Subscribe(context.Background(), wire.StreamSubscribeOptions{}); err == nil ||
		!strings.Contains(err.Error(), "cascade") {
		t.Fatalf("subscribe on relay-less follower: %v, want cascade hint", err)
	}
}

// TestStreamAckEndpoint exercises POST /v1/stream/ack directly:
// monotonic advance, stale no-op, and the missing-token rejection. The
// session counters ride /v1/stats.
func TestStreamAckEndpoint(t *testing.T) {
	sys, srv, client, _, _ := streamSite(t, 2, t.TempDir(), "alice")

	if out, err := client.AckCursor("tok", 5); err != nil || out.Acked != 5 {
		t.Fatalf("ack 5 = (%+v, %v)", out, err)
	}
	if out, err := client.AckCursor("tok", 3); err != nil || out.Acked != 5 {
		t.Fatalf("stale ack = (%+v, %v), want acked 5", out, err)
	}
	if _, err := client.AckCursor("", 1); err == nil {
		t.Fatal("empty-token ack accepted")
	}

	// The registry persisted: a fresh registry over the same path (the
	// restarted-server stand-in) resumes the cursor. A durable primary
	// keeps cursors.json next to its WAL.
	reloaded := stream.OpenCursors(filepath.Join(filepath.Dir(sys.WALPath()), "cursors.json"))
	if acked, ok := reloaded.Resume("tok"); !ok || acked != 5 {
		t.Fatalf("reloaded cursor = (%d, %v), want (5, true)", acked, ok)
	}

	// Session-registry counters surface in /v1/stats.
	srv.stream.sessions.Get("ingest-tok")
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stream == nil || stats.Stream.Ingest.Sessions != 1 {
		t.Fatalf("stats ingest sessions = %+v, want 1", stats.Stream)
	}
}
