package replicatest

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/storage"
)

// genesisSource replays a bootstrap captured earlier, so a test can
// build many identical followers positioned at the same past sequence.
type genesisSource struct {
	seq   uint64
	state []byte
}

func (g *genesisSource) Bootstrap() (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(g.state)), nil
}
func (g *genesisSource) PrimarySeq(context.Context) (uint64, error) { return g.seq, nil }
func (g *genesisSource) SourceTerm() uint64                         { return 0 }
func (g *genesisSource) Tail(ctx context.Context, from uint64, apply func(storage.Record) error) error {
	return errors.New("genesisSource does not stream")
}

// CaptureState returns node's bootstrap state as it is now, encoded —
// what a source replays to build followers positioned at this cut — and
// the sequence number the cut ends at.
func CaptureState(tb testing.TB, node core.LogNode) (uint64, []byte) {
	tb.Helper()
	c, err := node.CaptureBootstrap()
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return c.Seq(), buf.Bytes()
}

// TestReplicaCrashResumeEveryFrameBoundary kills the follower's tailer
// at EVERY record boundary of a scripted history and restarts it from
// nothing but AppliedSeq (a brand-new tailer, as a restarted process
// would). At each fence the run must end with every record applied
// exactly once and the follower's answers byte-matching the primary's.
func TestReplicaCrashResumeEveryFrameBoundary(t *testing.T) {
	g, bounds, centers := GridSite(t, 3)
	h := New(t, g, bounds)

	// Capture genesis BEFORE the history, so every fenced follower
	// starts from sequence 0 of the scripted records.
	seq0, state := CaptureState(t, h.Primary)
	genesis := &genesisSource{seq: seq0, state: state}

	subs := []profile.SubjectID{"a", "b"}
	rooms := h.Primary.Flat().Nodes
	for _, sub := range subs {
		if err := h.Primary.PutSubject(profile.Subject{ID: sub}); err != nil {
			t.Fatal(err)
		}
	}
	for i, room := range rooms {
		if _, err := h.Primary.AddAuthorization(authz.New(
			interval.New(1, 100), interval.New(1, 200), subs[i%2], room, authz.Unlimited)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := h.Primary.ObserveReading(2, "a", centers[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Primary.ObserveReading(3, "a", centers[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Primary.ObserveBatch([]core.Reading{
		{Time: 4, Subject: "b", At: centers[0]},
		{Time: 5, Subject: "b", At: centers[2]},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Primary.Tick(6); err != nil {
		t.Fatal(err)
	}
	auths := h.Primary.Authorizations()
	if _, err := h.Primary.RevokeAuthorization(auths[len(auths)/2].ID); err != nil {
		t.Fatal(err)
	}

	info := h.Primary.ReplicationInfo()
	total := info.TotalSeq - seq0
	if total < 10 {
		t.Fatalf("script produced only %d records", total)
	}
	want := FreshAnswers(h.Primary, subs, rooms, 7)

	for fence := uint64(0); fence <= total; fence++ {
		rep, err := core.NewReplica(genesis)
		if err != nil {
			t.Fatal(err)
		}
		// Phase 1: run up to the fence, then "crash" (drop the reader).
		applies := applyFrom(t, h.Primary, rep, seq0+fence)

		// Phase 2: restart from nothing but AppliedSeq.
		if got := rep.AppliedSeq(); got != seq0+fence {
			t.Fatalf("fence %d: applied %d, want %d", fence, got, seq0+fence)
		}
		applies += applyFrom(t, h.Primary, rep, seq0+total)

		// Exactly once: the apply counter saw every record once, and the
		// answers match the primary byte for byte (a double-applied
		// grant or movement would change them).
		if applies != total {
			t.Fatalf("fence %d: %d applies, want %d", fence, applies, total)
		}
		got := CachedAnswers(rep.System(), subs, rooms, 7)
		if !bytes.Equal(got, want) {
			t.Fatalf("fence %d: replica diverged:\nreplica: %s\nprimary: %s", fence, got, want)
		}
		rep.Close()
	}
}

// TestReplicaGapRequiresBootstrap: a follower that falls behind a WAL
// compaction cannot resume the stream — with self-heal disabled, Run
// must surface ErrBootstrapRequired, and a fresh bootstrap recovers.
// (The self-heal default is covered by TestReplicaRunSelfHeals in
// internal/core.)
func TestReplicaGapRequiresBootstrap(t *testing.T) {
	g, bounds, _ := GridSite(t, 2)
	h := New(t, g, bounds)
	rooms := h.Primary.Flat().Nodes
	if err := h.Primary.PutSubject(profile.Subject{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	for _, room := range rooms {
		if _, err := h.Primary.AddAuthorization(authz.New(
			interval.New(1, 50), interval.New(1, 60), "a", room, authz.Unlimited)); err != nil {
			t.Fatal(err)
		}
	}
	// The follower is still at its bootstrap seq; compaction moves the
	// base past it.
	if err := h.Primary.Snapshot(); err != nil {
		t.Fatal(err)
	}
	info := h.Primary.ReplicationInfo()
	if h.Replica.AppliedSeq() >= info.BaseSeq {
		t.Fatalf("test setup: applied %d not behind base %d", h.Replica.AppliedSeq(), info.BaseSeq)
	}

	src := &core.LogSource{Node: h.Primary}
	err := src.Tail(context.Background(), h.Replica.AppliedSeq(), func(storage.Record) error { return nil })
	if !errors.Is(err, storage.ErrSeqGap) {
		t.Fatalf("Tail behind base: err = %v, want ErrSeqGap", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rerr := make(chan error, 1)
	go func() {
		r2, err := core.NewReplica(src)
		if err != nil {
			rerr <- err
			return
		}
		defer r2.Close()
		rerr <- nil
	}()
	select {
	case err := <-rerr:
		if err != nil {
			t.Fatalf("re-bootstrap failed: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("re-bootstrap timed out")
	}

	if err := h.Replica.Run(ctx, core.RunConfig{RetryMin: time.Millisecond, DisableSelfHeal: true}); !errors.Is(err, core.ErrBootstrapRequired) {
		t.Fatalf("Run = %v, want ErrBootstrapRequired", err)
	}
}

// TestReplicaRunLoopFollowsLive exercises the asynchronous tail loop
// (the daemon path, not the harness pump): mutations land on the
// follower without any synchronous pumping, across reconnects.
func TestReplicaRunLoopFollowsLive(t *testing.T) {
	g, bounds, centers := GridSite(t, 3)
	h := New(t, g, bounds)
	subs := []profile.SubjectID{"a", "b"}
	rooms := h.Primary.Flat().Nodes
	for _, sub := range subs {
		if err := h.Primary.PutSubject(profile.Subject{ID: sub}); err != nil {
			t.Fatal(err)
		}
	}

	rep := h.NewFollower()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- rep.Run(ctx, core.RunConfig{RetryMin: time.Millisecond, RetryMax: 5 * time.Millisecond})
	}()

	for i, room := range rooms {
		if _, err := h.Primary.AddAuthorization(authz.New(
			interval.New(1, 70), interval.New(1, 90), subs[i%2], room, authz.Unlimited)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Primary.ObserveBatch([]core.Reading{
		{Time: 2, Subject: "a", At: centers[0]},
		{Time: 3, Subject: "b", At: centers[0]},
	}); err != nil {
		t.Fatal(err)
	}

	target := h.Primary.ReplicationInfo().TotalSeq
	deadline := time.Now().Add(10 * time.Second)
	for rep.AppliedSeq() < target {
		if time.Now().After(deadline) {
			t.Fatalf("run loop stalled at %d of %d", rep.AppliedSeq(), target)
		}
		time.Sleep(time.Millisecond)
	}
	st := rep.Status(context.Background())
	if st.Lag != 0 || st.AppliedSeq != target {
		t.Fatalf("status = %+v, want lag 0 at %d", st, target)
	}

	want := FreshAnswers(h.Primary, subs, rooms, 4)
	got := CachedAnswers(rep.System(), subs, rooms, 4)
	if !bytes.Equal(got, want) {
		t.Fatalf("run-loop follower diverged:\nreplica: %s\nprimary: %s", got, want)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v", err)
	}
}

// applyFrom applies the primary's served log to rep from rep's applied
// sequence up to upto, through a fresh reader, and returns how many
// records it applied.
func applyFrom(t *testing.T, primary *core.System, rep *core.Replica, upto uint64) uint64 {
	t.Helper()
	lg, err := primary.ServedLog()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := lg.Open(rep.AppliedSeq())
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var applies uint64
	for rep.AppliedSeq() < upto {
		batch, err := rd.Read(nil, upto)
		if err != nil || len(batch) == 0 {
			t.Fatalf("read at seq %d: %d bytes, %v", rep.AppliedSeq(), len(batch), err)
		}
		for len(batch) > 0 {
			var body []byte
			body, batch = storage.NextFrame(batch)
			rec, err := storage.DecodeRecord(body)
			if err != nil {
				t.Fatalf("decode at seq %d: %v", rep.AppliedSeq(), err)
			}
			if err := rep.ApplyRecord(rec); err != nil {
				t.Fatalf("apply at seq %d: %v", rep.AppliedSeq(), err)
			}
			applies++
		}
	}
	return applies
}
