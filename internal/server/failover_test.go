package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/replicatest"
	"repro/internal/wire"
)

// TestFailoverEndToEnd is the full failover story over real HTTP, once
// per wire codec: a resumable ingest session streams into the primary
// through a FailoverClient; the primary is killed; the follower is
// promoted through the admin endpoint; the SAME session repairs itself
// onto the new primary and finishes the workload; the resumable event
// feed rides across too. Afterwards the new primary must hold exactly
// the acked history (its battery byte-matches a fresh recomputation),
// and the resurrected old primary must be fenced: probes flip it to
// role "fenced", its mutations fail with 503, and a fresh fleet-aware
// follower refuses it in favor of the term-2 primary.
func TestFailoverEndToEnd(t *testing.T) {
	for _, wf := range []wire.WireFormat{wire.WireNDJSON, wire.WireBinary} {
		t.Run(string(wf), func(t *testing.T) { testFailoverEndToEnd(t, wf) })
	}
}

func testFailoverEndToEnd(t *testing.T, wf wire.WireFormat) {
	psys, psrv, _, rooms, centers := streamSite(t, 2, t.TempDir(), "alice", "bob")
	pts := httptest.NewServer(psrv)
	primaryURL := pts.URL
	primaryUp := true
	defer func() {
		if primaryUp {
			pts.Close()
		}
	}()

	// The follower tails the primary over HTTP and is armed to promote.
	rep, err := core.NewReplica(wire.NewClient(primaryURL).ReplicationSource())
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
	fsrv := NewReplica(rep)
	fsrv.SetPromoteDir(t.TempDir())
	defer fsrv.Close()
	fts := httptest.NewServer(fsrv)
	defer fts.Close()

	fc, err := wire.NewFailoverClient(primaryURL, fts.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: stream half the workload into the original primary and
	// wait until every frame is acked durable.
	ro, err := fc.StreamObserveResumable(ctx, wf)
	if err != nil {
		t.Fatal(err)
	}
	const half = 8
	sent := uint64(0)
	send := func(at int, clock int64, sub profile.SubjectID) {
		t.Helper()
		if err := ro.Send(wire.Reading{Time: interval.Time(clock), Subject: sub, X: centers[at].X, Y: centers[at].Y}); err != nil {
			t.Fatalf("send: %v", err)
		}
		sent++
	}
	for i := 0; i < half; i++ {
		send(i%len(centers), int64(2+i), "alice")
	}
	if err := ro.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "acks on the original primary", func() bool { return ro.Ack().Acked == sent })

	// A resumable subscriber watches the committed feed from the start.
	rs, err := fc.SubscribeResume(ctx, wire.StreamSubscribeOptions{Wire: wf})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	nextSeq := feedBase(t, psys)
	readFeed := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			ev, err := rs.Next()
			if err != nil {
				t.Fatalf("feed: %v", err)
			}
			if ev.Record == nil {
				i--
				continue
			}
			if ev.Seq != nextSeq {
				t.Fatalf("feed delivered seq %d, want %d (gap or duplicate)", ev.Seq, nextSeq)
			}
			nextSeq++
		}
	}

	// The acked prefix must be fully shipped before the primary dies:
	// acked-but-unshipped records die with it (the ltamctl staleness
	// guard bounds that window in production).
	preTotal := psys.ReplicationInfo().TotalSeq
	waitFor(t, "follower catch-up", func() bool { return rep.AppliedSeq() == preTotal })
	readFeed(int(preTotal - feedBase(t, psys)))

	// Phase 2: kill the primary and promote the follower.
	pts.CloseClientConnections()
	pts.Close()
	primaryUp = false
	pr, err := wire.NewClient(fts.URL).Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if pr.Role != "primary" || pr.Term != 2 || pr.Seq != preTotal {
		t.Fatalf("promote = %+v, want primary term 2 seq %d", pr, preTotal)
	}
	promoted := rep.System()
	pinfo := promoted.ReplicationInfo()
	if pinfo.BaseSeq != preTotal || pinfo.TotalSeq != preTotal || pinfo.Term != 2 {
		t.Fatalf("promoted info = %+v, want base=total=%d term 2", pinfo, preTotal)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("tail loop after promotion: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("tail loop did not exit after promotion")
	}
	if c, err := fc.Probe(ctx); err != nil || c.BaseURL != fts.URL {
		t.Fatalf("probe after failover: %v (picked %v)", err, c)
	}

	// Phase 3: the SAME ingest session finishes the workload on the new
	// primary. Everything acked before the kill was already applied
	// there, so the whole run stays exactly-once.
	for i := 0; i < half; i++ {
		send(i%len(centers), int64(20+i), "bob")
	}
	if err := ro.Flush(); err != nil {
		t.Fatal(err)
	}
	ack, err := ro.Close()
	if err != nil {
		t.Fatalf("close ingest session: %v (ack %+v)", err, ack)
	}
	if ack.Acked != sent {
		t.Fatalf("final ack covers %d of %d frames", ack.Acked, sent)
	}
	newTotal := promoted.ReplicationInfo().TotalSeq
	if ack.Seq != newTotal {
		t.Fatalf("final ack.Seq = %d, durable frontier %d", ack.Seq, newTotal)
	}
	if newTotal <= preTotal {
		t.Fatalf("new primary did not extend the history: %d <= %d", newTotal, preTotal)
	}
	// The subscriber rode the failover: the post-promotion records
	// arrive gaplessly and without duplicates.
	readFeed(int(newTotal - preTotal))

	// The acked history on the new primary is internally consistent:
	// cached answers byte-match a fresh recomputation over its state.
	subs := []profile.SubjectID{"alice", "bob"}
	want := replicatest.FreshAnswers(promoted, subs, rooms, 40)
	if got := replicatest.CachedAnswers(promoted, subs, rooms, 40); !bytes.Equal(got, want) {
		t.Fatalf("promoted primary inconsistent:\ncached: %s\nfresh:  %s", got, want)
	}

	// Phase 4: resurrect the old primary. The first probe that carries
	// the fleet's term gossip fences it: role flips, mutations 503.
	pts2 := httptest.NewServer(psrv)
	defer pts2.Close()
	fc2, err := wire.NewFailoverClient(pts2.URL, fts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc2.Probe(ctx); err != nil {
		t.Fatalf("probe with resurrected primary: %v", err)
	}
	// The first Probe learned term 2 from the new primary; the second
	// carries it to the old one.
	if _, err := fc2.Probe(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "old primary fenced", func() bool { return psys.Fenced() })
	oldClient := wire.NewClient(pts2.URL)
	ost, err := oldClient.ReplicationStatus()
	if err != nil {
		t.Fatal(err)
	}
	if ost.Role != "fenced" {
		t.Fatalf("resurrected primary role = %q, want fenced", ost.Role)
	}
	if err := oldClient.PutSubject(profile.Subject{ID: "zombie"}); err == nil || !strings.Contains(err.Error(), "fenced") {
		t.Fatalf("write on fenced primary: %v, want fenced rejection", err)
	}

	// A fleet-aware follower joining now must pick the term-2 primary,
	// not the fenced one.
	msrc, err := wire.NewMultiSource([]string{pts2.URL, fts.URL})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := core.NewReplica(msrc)
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	run2 := make(chan error, 1)
	go func() {
		run2 <- rep2.Run(ctx2, core.RunConfig{RetryMin: time.Millisecond, RetryMax: 10 * time.Millisecond})
	}()
	waitFor(t, "new follower of the term-2 primary", func() bool {
		return rep2.AppliedSeq() == newTotal && rep2.Term() == 2
	})
	if got := replicatest.CachedAnswers(rep2.System(), subs, rooms, 40); !bytes.Equal(got, want) {
		t.Fatalf("post-failover follower diverged:\nfollower: %s\nprimary:  %s", got, want)
	}
	cancel2()
	if err := <-run2; err != nil {
		t.Fatalf("post-failover follower run: %v", err)
	}
}

// feedBase reports the sequence the committed feed starts at (the
// compaction horizon of the serving node).
func feedBase(t *testing.T, sys *core.System) uint64 {
	t.Helper()
	return sys.ReplicationInfo().BaseSeq
}

// waitFor polls cond until true or a 10s deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
