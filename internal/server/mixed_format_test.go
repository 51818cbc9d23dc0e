package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/movement"
	"repro/internal/profile"
	"repro/internal/replicatest"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wire"
)

// legacyMove is the JSON payload movement records carried before the
// binary body: the shape logs written by earlier versions hold.
type legacyMove struct {
	T interval.Time
	S profile.SubjectID
	L graph.ID
}

// legacySnapshot is the JSON document a snapshot file held before the
// binary snapshot encoding.
type legacySnapshot struct {
	Seq        uint64                `json:"seq"`
	Term       uint64                `json:"term,omitempty"`
	Graph      graph.Spec            `json:"graph"`
	Profiles   []profile.Subject     `json:"profiles"`
	Auths      []authz.Authorization `json:"auths"`
	NextAuthID authz.ID              `json:"next_auth_id"`
	Rules      []rules.Spec          `json:"rules"`
	Events     []movement.Event      `json:"events"`
	Clock      interval.Time         `json:"clock"`
	Boundaries []geometry.Boundary   `json:"boundaries,omitempty"`
}

// genesisOver is a replica source that bootstraps from a state captured
// earlier and tails the wrapped source, so a follower replays the log
// from that cut instead of starting from the node's current state.
type genesisOver struct {
	core.ReplicaSource
	state []byte
}

func (g *genesisOver) Bootstrap() (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(g.state)), nil
}

// TestMixedFormatLogReplays: a data directory written by earlier
// versions — a JSON snapshot under a WAL whose movement records switch
// from the old JSON encoding to the binary body partway through —
// replays to the same state, and feeds the same events, through every
// reader of a log: recovery (core.Open), a same-process follower
// (core.LogSource), an HTTP follower (wire.ReplicationSource) and a bus
// subscriber. The next snapshot is binary, and the JSON one stays part
// of the same numbered sequence until it is pruned.
func TestMixedFormatLogReplays(t *testing.T) {
	g, bounds, centers := replicatest.GridSite(t, 3)
	dir := t.TempDir()
	open := func() *core.System {
		sys, err := core.Open(core.Config{Graph: g, Boundaries: bounds, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := open()

	subs := []profile.SubjectID{"a", "b"}
	rooms := sys.Flat().Nodes
	for i, room := range rooms {
		if _, err := sys.AddAuthorization(authz.New(
			interval.New(1, 100), interval.New(1, 200), subs[i%2], room, authz.Unlimited)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.ObserveBatch([]core.Reading{
		{Time: 2, Subject: "a", At: centers[0]},
		{Time: 3, Subject: "b", At: centers[0]},
	}); err != nil {
		t.Fatal(err)
	}
	// Compact the grants and the first moves into a snapshot, and put in
	// its place the JSON document earlier versions wrote.
	if err := sys.Snapshot(); err != nil {
		t.Fatal(err)
	}
	c, err := sys.CaptureBootstrap()
	if err != nil {
		t.Fatal(err)
	}
	base := c.Seq()
	var genesis bytes.Buffer
	if _, err := c.WriteTo(&genesis); err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(dir, "snapshots")
	writeLegacySnapshot(t, sys, bounds, snapDir, base)

	outside := geometry.Point{X: -50, Y: -50}
	if _, err := sys.ObserveBatch([]core.Reading{
		{Time: 4, Subject: "a", At: centers[1]},
		{Time: 5, Subject: "b", At: centers[3]},
		{Time: 6, Subject: "a", At: outside},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Enter(7, "a", rooms[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Tick(8); err != nil {
		t.Fatal(err)
	}
	if err := sys.Leave(9, "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Enter(10, "b", rooms[0]); err != nil {
		t.Fatal(err)
	}
	const at = interval.Time(11)
	total := sys.ReplicationInfo().TotalSeq
	want := stateOf(sys, subs, rooms, at)
	wantEvents := feedOf(t, sys, base, total)
	walPath := sys.WALPath()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	rewriteLeadingMoves(t, walPath)

	check := func(name string, got *core.System) {
		t.Helper()
		if state := stateOf(got, subs, rooms, at); !bytes.Equal(state, want) {
			t.Fatalf("%s diverged:\n got: %s\nwant: %s", name, state, want)
		}
	}

	rec := open()
	defer rec.Close()
	if got := rec.ReplicationInfo().TotalSeq; got != total {
		t.Fatalf("recovered %d records, want %d", got, total)
	}
	// The feed first: stateOf's requests advance the node's clock.
	events := feedOf(t, rec, base, total)
	for i := range wantEvents {
		if !bytes.Equal(events[i], wantEvents[i]) {
			t.Fatalf("event %d differs:\n got: %s\nwant: %s", i, events[i], wantEvents[i])
		}
	}

	follow := func(name string, src core.ReplicaSource) {
		t.Helper()
		rep, err := core.NewReplica(&genesisOver{ReplicaSource: src, state: genesis.Bytes()})
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			done <- rep.Run(ctx, core.RunConfig{RetryMin: time.Millisecond, RetryMax: 10 * time.Millisecond})
		}()
		deadline := time.Now().Add(10 * time.Second)
		for rep.AppliedSeq() < total && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		cancel()
		<-done
		if got := rep.AppliedSeq(); got != total {
			t.Fatalf("%s applied %d records, want %d", name, got, total)
		}
		check(name, rep.System())
	}
	follow("LogSource follower", &core.LogSource{Node: rec})
	ts := httptest.NewServer(New(rec))
	defer ts.Close()
	follow("HTTP follower", wire.NewClient(ts.URL).ReplicationSource())
	check("recovery", rec)

	// The next snapshot is binary and sorts after the JSON one; a
	// restart reads it.
	if err := rec.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := snapshotFiles(t, snapDir); len(got) != 2 || got[0] != fmt.Sprintf("snap-%016d.json", base) || got[1] != fmt.Sprintf("snap-%016d.bin", total) {
		t.Fatalf("snapshot files %q: want the JSON one at %d and a binary one at %d", got, base, total)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	again := open()
	defer again.Close()
	check("restart from the binary snapshot", again)
}

// writeLegacySnapshot replaces sys's snapshot at seq with the JSON
// document earlier versions wrote for the same state.
func writeLegacySnapshot(t *testing.T, sys *core.System, bounds []geometry.Boundary, dir string, seq uint64) {
	t.Helper()
	auths, next := sys.AuthStore().Snapshot()
	data, err := json.Marshal(legacySnapshot{
		Seq: seq, Term: sys.Term(), Graph: graph.ToSpec(sys.Graph()),
		Profiles: sys.Profiles().Snapshot(), Auths: auths, NextAuthID: next,
		Events: sys.Movements().Snapshot(), Clock: sys.Clock(), Boundaries: bounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotFiles(t, dir); len(got) != 1 || got[0] != fmt.Sprintf("snap-%016d.bin", seq) {
		t.Fatalf("snapshot files %q: want one binary snapshot at %d", got, seq)
	}
	if err := os.Remove(filepath.Join(dir, fmt.Sprintf("snap-%016d.bin", seq))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("snap-%016d.json", seq)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// snapshotFiles lists the snapshot directory's file names in order.
func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// stateOf renders what a node answers about subs: the replication
// battery's answers plus each subject's movement history.
func stateOf(sys *core.System, subs []profile.SubjectID, rooms []graph.ID, at interval.Time) []byte {
	history := map[profile.SubjectID]any{}
	for _, sub := range subs {
		history[sub] = sys.History(sub)
	}
	h, err := json.Marshal(history)
	if err != nil {
		panic(err)
	}
	return append(replicatest.CachedAnswers(sys, subs, rooms, at), h...)
}

// feedOf subscribes to sys's committed-event feed from sequence from and
// returns the JSON rendering of its record events before sequence to.
func feedOf(t *testing.T, sys *core.System, from, to uint64) [][]byte {
	t.Helper()
	lg, err := sys.ServedLog()
	if err != nil {
		t.Fatal(err)
	}
	bus := stream.NewBus(lg)
	defer bus.Close()
	sub, err := bus.Subscribe(stream.SubscribeOptions{From: from})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	timeout := make(chan struct{})
	timer := time.AfterFunc(10*time.Second, func() { close(timeout) })
	defer timer.Stop()
	var out [][]byte
	for n := to - from; uint64(len(out)) < n; {
		ev, err := sub.Next(timeout)
		if err != nil {
			t.Fatalf("feed ended after %d of %d events: %v", len(out), n, err)
		}
		if ev.Kind == stream.KindAlert {
			continue
		}
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, line)
	}
	return out
}

// rewriteLeadingMoves rewrites the log at path with its first half of
// movement records in the old JSON encoding, and checks that the result
// holds both encodings, old ones first.
func rewriteLeadingMoves(t *testing.T, path string) {
	t.Helper()
	var recs []storage.Record
	moves := 0
	if _, err := storage.Replay(path, func(r storage.Record) error {
		if r.Type == storage.TypeMoveEnter || r.Type == storage.TypeMoveLeave {
			moves++
		}
		recs = append(recs, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	converted := 0
	for i, r := range recs {
		if (r.Type != storage.TypeMoveEnter && r.Type != storage.TypeMoveLeave) || converted == moves/2 {
			continue
		}
		m, err := storage.DecodeMove(r.Data)
		if err != nil {
			t.Fatal(err)
		}
		if recs[i].Data, err = json.Marshal(legacyMove{T: interval.Time(m.T), S: profile.SubjectID(m.S), L: graph.ID(m.L)}); err != nil {
			t.Fatal(err)
		}
		converted++
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	w, err := storage.OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The file's movement frames: JSON envelopes, then binary bodies.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var formats []byte
	for len(data) > 0 {
		var body []byte
		body, data = storage.NextFrame(data)
		if r, err := storage.DecodeRecord(body); err == nil && (r.Type == storage.TypeMoveEnter || r.Type == storage.TypeMoveLeave) {
			if body[0] == '{' {
				formats = append(formats, 'j')
			} else {
				formats = append(formats, 'b')
			}
		}
	}
	if n := bytes.IndexByte(formats, 'b'); n != moves/2 || bytes.IndexByte(formats[n:], 'j') >= 0 || moves < 4 {
		t.Fatalf("movement frames in %s are %q: want %d JSON then binary", filepath.Base(path), formats, moves/2)
	}
}
