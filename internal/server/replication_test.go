package server

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/replicatest"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/wire"
)

// TestReplicaOverHTTP boots a durable primary behind an httptest
// server, bootstraps a follower THROUGH the HTTP replication protocol
// (wire.ReplicationSource), runs the tail loop against the chunked WAL
// stream, and checks that the follower's query endpoints serve exactly
// the primary's answers while its mutation endpoints return 403.
func TestReplicaOverHTTP(t *testing.T) {
	sys, err := core.Open(core.Config{Graph: graph.NTUCampus(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	primarySrv := New(sys)
	pts := httptest.NewServer(primarySrv)
	defer pts.Close()
	client := wire.NewClient(pts.URL)

	// Pre-replication history.
	if err := client.PutSubject(profile.Subject{ID: "Alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.AddAuthorization(authz.New(
		interval.New(1, 40), interval.New(2, 60), "Alice", graph.SCEGO, authz.Unlimited)); err != nil {
		t.Fatal(err)
	}

	// Bootstrap the follower over HTTP and start tailing.
	rep, err := core.NewReplica(client.ReplicationSource())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() {
		runDone <- rep.Run(ctx, core.RunConfig{RetryMin: time.Millisecond, RetryMax: 10 * time.Millisecond})
	}()

	rts := httptest.NewServer(NewReplica(rep))
	defer rts.Close()
	rclient := wire.NewClient(rts.URL)

	// Post-bootstrap traffic must flow down the stream.
	for _, l := range []graph.ID{graph.SCESectionA, graph.SCESectionB, graph.CAIS} {
		if _, err := client.AddAuthorization(authz.New(
			interval.New(1, 40), interval.New(2, 60), "Alice", l, authz.Unlimited)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Enter(3, "Alice", graph.SCEGO); err != nil {
		t.Fatal(err)
	}

	// Wait for the follower to report zero lag.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := rclient.ReplicationStatus()
		if err != nil {
			t.Fatal(err)
		}
		if st.Role != "replica" {
			t.Fatalf("replica status role = %q", st.Role)
		}
		if st.Lag == 0 && st.AppliedSeq > 0 && st.AppliedSeq == st.PrimarySeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stalled: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Query-for-query agreement over the wire.
	want, err := client.Inaccessible("Alice")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rclient.Inaccessible("Alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Inaccessible) != len(want.Inaccessible) || len(got.Accessible) != len(want.Accessible) {
		t.Fatalf("follower answers differ: %+v vs %+v", got, want)
	}
	for i := range want.Inaccessible {
		if got.Inaccessible[i] != want.Inaccessible[i] {
			t.Fatalf("inaccessible[%d]: %s != %s", i, got.Inaccessible[i], want.Inaccessible[i])
		}
	}
	wWhere, err := client.Where("Alice")
	if err != nil {
		t.Fatal(err)
	}
	rWhere, err := rclient.Where("Alice")
	if err != nil {
		t.Fatal(err)
	}
	if rWhere != wWhere {
		t.Fatalf("presence differs: %+v vs %+v", rWhere, wWhere)
	}

	// Mutations on the follower are forbidden, end to end.
	if err := rclient.PutSubject(profile.Subject{ID: "Bob"}); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("follower PutSubject err = %v, want read-only rejection", err)
	}
	if _, err := rclient.Enter(4, "Alice", graph.CAIS); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("follower Enter err = %v, want read-only rejection", err)
	}

	// The primary's role is visible too, and /v1/stats carries it.
	pst, err := client.ReplicationStatus()
	if err != nil {
		t.Fatal(err)
	}
	if pst.Role != "primary" || !pst.Durable || pst.TotalSeq == 0 {
		t.Fatalf("primary status = %+v", pst)
	}
	stats, err := rclient.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replication == nil || stats.Replication.Role != "replica" {
		t.Fatalf("replica stats.Replication = %+v", stats.Replication)
	}

	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run returned %v", err)
	}
}

// TestReplicationWALGone: a follower asking for a compacted sequence
// gets HTTP 410 (storage.ErrSeqGap through the wire source), the
// re-bootstrap signal.
func TestReplicationWALGone(t *testing.T) {
	sys, err := core.Open(core.Config{Graph: graph.NTUCampus(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ts := httptest.NewServer(New(sys))
	defer ts.Close()
	client := wire.NewClient(ts.URL)

	if err := client.PutSubject(profile.Subject{ID: "Alice"}); err != nil {
		t.Fatal(err)
	}
	if err := client.Snapshot(); err != nil {
		t.Fatal(err)
	}
	err = client.ReplicationSource().Tail(context.Background(), 0, nil)
	if !errors.Is(err, storage.ErrSeqGap) {
		t.Fatalf("Tail(0) after compaction: %v, want ErrSeqGap", err)
	}
}

// TestReplicationRequiresDurability: a memory-only primary cannot serve
// the replication endpoints.
func TestReplicationRequiresDurability(t *testing.T) {
	sys, err := core.Open(core.Config{Graph: graph.NTUCampus()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ts := httptest.NewServer(New(sys))
	defer ts.Close()
	client := wire.NewClient(ts.URL)
	if _, err := client.ReplicationSource().Bootstrap(); err == nil {
		t.Fatal("Bootstrap on non-durable primary succeeded")
	}
	if _, err := client.ReplicationStatus(); err == nil {
		t.Fatal("ReplicationStatus on non-durable primary succeeded")
	}
}

// TestBootstrapLargePrimary: a follower bootstraps over HTTP from a
// primary holding 200k authorizations. Their state is larger than the
// client's 16 MiB response bound would have allowed in JSON, so the
// bootstrap is streamed and decoded as it arrives.
func TestBootstrapLargePrimary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two nodes of 200k authorizations (~400 MB)")
	}
	g, _, _ := replicatest.GridSite(t, 16)
	sys, err := core.Open(core.Config{Graph: g, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	const subjects = 782 // × 256 rooms = 200,192 derived authorizations
	for i := range subjects {
		if err := sys.PutSubject(profile.Subject{ID: profile.SubjectID(fmt.Sprintf("s%04d", i)), Groups: []string{"staff"}}); err != nil {
			t.Fatal(err)
		}
	}
	base, err := sys.AddAuthorization(authz.New(interval.From(1), interval.From(1), "s0000", "r000_000", authz.Unlimited))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddRule(rules.Spec{Name: "staff-all", Base: base.ID, Subject: "Members_Of(staff)", Location: "all_in(grid)"}); err != nil {
		t.Fatal(err)
	}
	want := sys.Authorizations()
	if len(want) < 200_000 {
		t.Fatalf("primary holds %d authorizations, want >= 200,000", len(want))
	}
	ts := httptest.NewServer(New(sys))
	defer ts.Close()

	rep, err := core.NewReplica(wire.NewClient(ts.URL).ReplicationSource())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if got := rep.System().Authorizations(); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower holds %d authorizations, primary %d, or they differ", len(got), len(want))
	}
	if got, want := rep.AppliedSeq(), sys.ReplicationInfo().TotalSeq; got != want {
		t.Fatalf("follower positioned at %d, primary at %d", got, want)
	}
}
