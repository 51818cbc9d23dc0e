package stream

import (
	"testing"
	"time"

	"repro/internal/core"
)

// TestBusAlertOnlyDecodeFastPath: when every live subscriber filters to
// kinds=alert, the pump skips decoding committed records entirely (the
// skipped-decode counter moves), alerts still arrive, and the moment a
// record-hungry subscriber joins, records are decoded and delivered
// again — the skip is an optimization, never a loss.
func TestBusAlertOnlyDecodeFastPath(t *testing.T) {
	sys, rooms, centers := gridSystem(t, 2, t.TempDir(), "alice")
	b := newTestBus(t, sys)

	alertSub, err := b.Subscribe(SubscribeOptions{
		From:   sys.ReplicationInfo().TotalSeq,
		Filter: Filter{Kinds: []EventKind{KindAlert}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer alertSub.Close()
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().Subscribers == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.Stats().Subscribers == 0 {
		t.Fatal("alert-only subscription never went live")
	}

	// Records land while only the alert-only subscriber watches: their
	// decode must be skipped.
	if _, err := sys.Enter(2, "alice", rooms[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Enter(3, "alice", rooms[1]); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for b.Stats().DecodeSkips == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := b.Stats().DecodeSkips; got == 0 {
		t.Fatal("no decodes skipped with an alert-only-subscriber bus")
	}

	// Alerts still flow: eve tailgates, the alert-only feed gets it.
	if _, err := sys.ObserveBatch([]core.Reading{{Time: 4, Subject: "eve", At: centers[0]}}); err != nil {
		t.Fatal(err)
	}
	timeout := make(chan struct{})
	go func() { time.Sleep(10 * time.Second); close(timeout) }()
	ev, err := alertSub.Next(timeout)
	if err != nil {
		t.Fatalf("alert after skipped records: %v", err)
	}
	if ev.Kind != KindAlert || ev.Subject != "eve" {
		t.Fatalf("alert feed delivered %+v", ev)
	}

	// A record-hungry subscriber from 0 replays everything the fast path
	// skipped — the records were never lost, only their live decode.
	total := sys.ReplicationInfo().TotalSeq
	recSub, err := b.Subscribe(SubscribeOptions{From: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer recSub.Close()
	records, _ := collect(t, recSub, int(total))
	for i, ev := range records {
		if ev.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d: gap in the replay of skipped records", i, ev.Seq)
		}
		if ev.Record == nil {
			t.Fatalf("record %d delivered without its WAL record: %+v", i, ev)
		}
	}

	// Live delivery with a mixed population: the fast path must stand
	// down (the record-hungry subscriber needs the decode). Wait for the
	// catch-up → live splice first — until then the subscriber drains the
	// log itself and the pump may legitimately keep skipping.
	deadline = time.Now().Add(5 * time.Second)
	for b.Stats().Subscribers < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.Stats().Subscribers < 2 {
		t.Fatal("record subscriber never spliced to live")
	}
	skipsBefore := b.Stats().DecodeSkips
	if _, err := sys.Enter(5, "alice", rooms[2]); err != nil {
		t.Fatal(err)
	}
	live, _ := collect(t, recSub, 1)
	if live[0].Kind != KindEnter || live[0].Location != rooms[2] || live[0].Record == nil {
		t.Fatalf("live event after fast path stood down = %+v", live[0])
	}
	if got := b.Stats().DecodeSkips; got != skipsBefore {
		t.Fatalf("decode skipped (%d -> %d) while a record-hungry subscriber was live", skipsBefore, got)
	}
}

// TestBusDecodeSkipsNeedLiveAlertWatcher: a record the pump passes
// while its only subscriber is still catching up is not a decode skip —
// no alert-only watcher is live, and the catch-up decodes the record
// from the log anyway.
func TestBusDecodeSkipsNeedLiveAlertWatcher(t *testing.T) {
	sys, rooms, _ := gridSystem(t, 2, t.TempDir(), "alice")
	b := newTestBus(t, sys)
	// A one-slot queue that nobody reads parks the catch-up on its
	// second send, before it can go live.
	sub, err := b.Subscribe(SubscribeOptions{From: 0, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	total := sys.ReplicationInfo().TotalSeq
	if _, err := sys.Enter(2, "alice", rooms[0]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		passed := b.nextSeq > total
		b.mu.Unlock()
		if passed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the pump never passed the new record")
		}
		time.Sleep(time.Millisecond)
	}
	if st := b.Stats(); st.Subscribers != 0 || st.DecodeSkips != 0 {
		t.Fatalf("stats = %+v: want the subscriber still catching up and no decode skips", st)
	}
	records, _ := collect(t, sub, int(total)+1)
	if last := records[len(records)-1]; last.Seq != total || last.Kind != KindEnter {
		t.Fatalf("last event = %+v, want the enter at seq %d", last, total)
	}
}
