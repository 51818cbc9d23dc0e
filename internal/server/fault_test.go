// End-to-end failure hardening, driven through the fault-injection
// layer (internal/fault): a poisoned primary degrading to read-only
// 503s, exactly-once ingest resume through a connection-killing chaos
// proxy (with a follower proving replica equivalence of the result),
// and the graceful-drain protocol.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wire"
)

// TestPoisonedPrimaryDegradesTo503 injects an fsync failure under a
// serving primary and checks the HTTP-level degradation contract:
// mutations 503 (+ Retry-After), queries 200, readyz 503, healthz 200 —
// alive for diagnosis, unready for traffic.
func TestPoisonedPrimaryDegradesTo503(t *testing.T) {
	sys, err := core.Open(core.Config{
		Graph:   graph.NTUCampus(),
		DataDir: t.TempDir(),
		WALWrap: func(f storage.File) storage.File {
			return fault.NewFile(f, fault.Rule{Op: fault.OpSync, Nth: 3, Err: fault.ErrIO})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := New(sys)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	putSubject := func(id string) *http.Response {
		body, _ := json.Marshal(profile.Subject{ID: profile.SubjectID(id)})
		resp, err := http.Post(ts.URL+"/v1/subjects", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	get := func(path string) *http.Response {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Healthy first: both probes green.
	if got := get("/v1/healthz").StatusCode; got != http.StatusOK {
		t.Fatalf("healthz on healthy primary = %d", got)
	}
	if got := get("/v1/readyz").StatusCode; got != http.StatusOK {
		t.Fatalf("readyz on healthy primary = %d", got)
	}

	// Drive mutations into the armed sync fault.
	var failed *http.Response
	for i := 0; i < 20; i++ {
		if resp := putSubject(string(rune('a' + i))); resp.StatusCode != http.StatusOK {
			failed = resp
			break
		}
	}
	if failed == nil {
		t.Fatal("sync fault never surfaced through a mutation")
	}
	if failed.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("poisoned mutation = %d, want 503", failed.StatusCode)
	}

	// Permanently degraded, not flapping: the next mutation is refused
	// up front with 503 + Retry-After (the operator's cue this needs a
	// restart, the client's cue to go elsewhere).
	resp := putSubject("late")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutation after poison = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// Reads keep serving the pre-fault state.
	if got := get("/v1/subjects").StatusCode; got != http.StatusOK {
		t.Fatalf("query on poisoned primary = %d, want 200", got)
	}
	if got := get("/v1/stats").StatusCode; got != http.StatusOK {
		t.Fatalf("stats on poisoned primary = %d, want 200", got)
	}
	// Liveness and readiness diverge: restartable is a balancer decision,
	// not a kubelet one.
	readyz, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	readyz.Body.Close()
	if readyz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz on poisoned primary = %d, want 503", readyz.StatusCode)
	}
	if readyz.Header.Get("X-Ready") != "false" {
		t.Fatal("readyz 503 without X-Ready: false")
	}
	if got := get("/v1/healthz").StatusCode; got != http.StatusOK {
		t.Fatalf("healthz on poisoned primary = %d, want 200 (alive for diagnosis)", got)
	}
}

// TestIngestResumeEquivalenceThroughChaos runs the SAME reading
// sequence into two identical sites — one over a direct streaming
// connection, one through a chaos proxy that repeatedly kills the
// connection mid-stream — and proves the resumable session made the
// chaos run indistinguishable: exactly one application per frame
// (server Frames counter), identical outcome counters, identical WAL
// record sequence, identical final position. A follower then bootstraps
// off the chaos-fed primary to prove the post-reconnect history
// replicates cleanly. Both wire codecs carry the session protocol, so
// the whole matrix runs once per framing.
func TestIngestResumeEquivalenceThroughChaos(t *testing.T) {
	for _, wf := range []wire.WireFormat{wire.WireNDJSON, wire.WireBinary} {
		t.Run(string(wf), func(t *testing.T) { testResumeEquivalence(t, wf) })
	}
}

func testResumeEquivalence(t *testing.T, wf wire.WireFormat) {
	sysA, _, clientA, _, centers := streamSite(t, 2, t.TempDir(), "alice")
	sysB, _, clientB, _, _ := streamSite(t, 2, t.TempDir(), "alice")

	const n = 600
	readings := make([]wire.Reading, n)
	for i := range readings {
		c := centers[i%2] // two adjacent rooms, back and forth
		readings[i] = wire.Reading{Time: interval.Time(i + 1), Subject: "alice", X: c.X, Y: c.Y}
	}

	// Direct run: the reference execution.
	obs, err := clientA.StreamObserve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range readings {
		if err := obs.Send(r); err != nil {
			t.Fatal(err)
		}
	}
	ackA, err := obs.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Chaos run: same traffic, but the proxy kills every connection a
	// handful of times mid-stream and the session resumes each time.
	prox, err := fault.NewProxy("127.0.0.1:0", strings.TrimPrefix(clientB.BaseURL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer prox.Close()
	ro, err := wire.NewClient("http://"+prox.Addr()).StreamObserveResumable(context.Background(), wf)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range readings {
		if i > 0 && i%150 == 0 {
			_ = ro.Flush() // surface the cut now, not at the next send
			prox.KillAll()
		}
		if err := ro.Send(r); err != nil {
			t.Fatalf("send %d through chaos: %v", i, err)
		}
	}
	ackB, err := ro.Close()
	if err != nil {
		t.Fatalf("close through chaos: %v (ack %+v)", err, ackB)
	}
	if prox.Killed() == 0 || ro.Reconnects() == 0 {
		t.Fatalf("chaos never bit: %d kills, %d reconnects", prox.Killed(), ro.Reconnects())
	}

	// Exactly-once: the server applied each frame once, despite the
	// client re-sending un-acked suffixes after every kill.
	statsB, err := clientB.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if statsB.Stream == nil || statsB.Stream.Ingest.Frames != n {
		t.Fatalf("chaos-fed server applied %d frames, want exactly %d", statsB.Stream.Ingest.Frames, n)
	}
	if ackA.Acked != n || ackB.Acked != n {
		t.Fatalf("acked: direct %d, chaos %d, want %d both", ackA.Acked, ackB.Acked, n)
	}

	// Equivalence of the two executions, counter for counter, record for
	// record.
	if ackA.Granted != ackB.Granted || ackA.Denied != ackB.Denied || ackA.Errors != ackB.Errors || ackA.Moved != ackB.Moved {
		t.Fatalf("outcome counters diverged:\ndirect %+v\nchaos  %+v", ackA, ackB)
	}
	// The chaos server's own tally counts every frame's outcome once,
	// however many connections the session spanned.
	if in := statsB.Stream.Ingest; in.Granted != ackA.Granted || in.Moved != ackA.Moved {
		t.Fatalf("chaos server stats granted/moved = %d/%d, direct acks %d/%d",
			in.Granted, in.Moved, ackA.Granted, ackA.Moved)
	}
	seqA, seqB := sysA.ReplicationInfo().TotalSeq, sysB.ReplicationInfo().TotalSeq
	if seqA != seqB {
		t.Fatalf("WAL record sequence diverged: direct %d, chaos %d", seqA, seqB)
	}
	locA, inA := sysA.WhereIs("alice")
	locB, inB := sysB.WhereIs("alice")
	if locA != locB || inA != inB {
		t.Fatalf("final position diverged: direct %v/%v, chaos %v/%v", locA, inA, locB, inB)
	}

	// Replica equivalence after the reconnects: a follower bootstrapped
	// from the chaos-fed primary converges to the same state.
	rep, err := core.NewReplica(clientB.ReplicationSource())
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rep.Run(ctx, core.RunConfig{RetryMin: time.Millisecond, RetryMax: 10 * time.Millisecond})
	deadline := time.Now().Add(10 * time.Second)
	for rep.AppliedSeq() < seqB {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at %d/%d", rep.AppliedSeq(), seqB)
		}
		time.Sleep(2 * time.Millisecond)
	}
	locR, inR := rep.System().WhereIs("alice")
	if locR != locB || inR != inB {
		t.Fatalf("replica diverged from chaos-fed primary: %v/%v vs %v/%v", locR, inR, locB, inB)
	}
}

// TestBeginDrainSealsStreams drives the graceful-drain protocol with a
// live ingest connection and a live subscriber attached: the ingest
// connection is sealed with a final ack naming the draining error, the
// subscriber feed ends with an in-band KindError frame carrying the
// resume sequence, readyz flips unready, and new streaming connections
// are refused — while liveness stays green.
func TestBeginDrainSealsStreams(t *testing.T) {
	sys, srv, client, _, centers := streamSite(t, 2, t.TempDir(), "alice")

	obs, err := client.StreamObserve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Send(wire.Reading{Time: 2, Subject: "alice", X: centers[0].X, Y: centers[0].Y}); err != nil {
		t.Fatal(err)
	}
	if err := obs.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait for the frame to apply so the drain finds an idle chunker.
	applyDeadline := time.Now().Add(5 * time.Second)
	for {
		if _, inside := sys.WhereIs("alice"); inside {
			break
		}
		if time.Now().After(applyDeadline) {
			t.Fatal("frame never applied")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// A subscriber caught up to the full history, waiting in the live
	// phase.
	total := sys.ReplicationInfo().TotalSeq
	es, err := client.Subscribe(context.Background(), wire.StreamSubscribeOptions{From: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	var caughtUp uint64
	for caughtUp < total {
		ev, err := es.Next()
		if err != nil {
			t.Fatalf("catch-up ended early: %v", err)
		}
		if ev.Record != nil {
			caughtUp++
		}
	}

	srv.BeginDrain()
	if !srv.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}

	// The ingest connection was sealed server-side with a terminal ack.
	ack, _ := obs.Close() // the error (if any) reflects the cut body; the ack is the contract
	if !ack.Final {
		t.Fatalf("drained connection's last ack not final: %+v", ack)
	}
	if !strings.Contains(ack.Error, "draining") {
		t.Fatalf("final ack error = %q, want the draining notice", ack.Error)
	}

	// The subscriber feed ends with the in-band resume frame.
	foundResume := false
	for !foundResume {
		ev, err := es.Next()
		if err != nil {
			t.Fatalf("feed ended without an in-band resume frame: %v", err)
		}
		if ev.Kind == stream.KindError {
			if ev.Seq < total {
				t.Fatalf("resume frame seq = %d, want >= %d (nothing may be skipped)", ev.Seq, total)
			}
			foundResume = true
		}
	}

	// Probes: unready, but alive; new streaming work refused.
	readyz, err := http.Get(client.BaseURL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	readyz.Body.Close()
	if readyz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", readyz.StatusCode)
	}
	healthz, err := http.Get(client.BaseURL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	healthz.Body.Close()
	if healthz.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", healthz.StatusCode)
	}
	if _, err := client.StreamObserve(context.Background()); err == nil {
		t.Fatal("new streaming connection accepted while draining")
	}
}

// TestOversizedMutationIs413: a profile that fits the request body limit
// but whose WAL record would not fit a frame (JSON escapes each '<' to
// six bytes) is refused with 413 before it applies. The node is not
// poisoned, the refused profile is not readable, and the next write
// succeeds.
func TestOversizedMutationIs413(t *testing.T) {
	sys, err := core.Open(core.Config{Graph: graph.NTUCampus(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := New(sys)
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/subjects", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// The body carries the '<'s unescaped: 3 MiB, within the body limit.
	if got := post(`{"ID":"u","Groups":["` + strings.Repeat("<", 3<<20) + `"]}`); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized profile = %d, want 413", got)
	}
	if sys.Poisoned() {
		t.Fatalf("the refused write poisoned the node: %v", sys.CommitErr())
	}
	resp, err := http.Get(ts.URL + "/v1/subjects/u")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of the refused profile = %d, want 404", resp.StatusCode)
	}
	if got := post(`{"ID":"v"}`); got/100 != 2 {
		t.Fatalf("the next write = %d, want 2xx", got)
	}
}
