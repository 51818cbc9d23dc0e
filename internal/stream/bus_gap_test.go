package stream

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interval"
)

// TestBusAlertBacklogGapNotice is the silent-truncation regression: when
// the bounded audit log has dropped alerts a backlog subscriber asked
// for, the feed must say so IN BAND — a non-terminal KindError frame
// naming the oldest alert seq the replay can resume at — before the
// surviving backlog, instead of skipping the gap silently. The frame
// must not end the stream: the retained backlog and live alerts follow.
func TestBusAlertBacklogGapNotice(t *testing.T) {
	g, bounds, _, centers := gridParts(t, 2)
	sys, err := core.Open(core.Config{
		Graph:      g,
		Boundaries: bounds,
		DataDir:    t.TempDir(),
		AlertLimit: 2, // tiny backlog so a handful of alerts truncates it
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })

	// Unauthorized movement by eve raises alerts until the bounded log
	// provably dropped some (OldestRetained moves past seq 1).
	for i := 0; sys.Alerts().OldestRetained() <= 1; i++ {
		if i >= 16 {
			t.Fatal("setup: alert log never truncated")
		}
		if _, err := sys.ObserveBatch([]core.Reading{
			{Time: interval.Time(2 + i), Subject: "eve", At: centers[i%len(centers)]},
		}); err != nil {
			t.Fatal(err)
		}
	}
	oldest := sys.Alerts().OldestRetained()
	retained := sys.Alerts().All()
	if len(retained) == 0 {
		t.Fatal("setup: no retained alerts")
	}

	b := newTestBus(t, sys)
	zero := uint64(0)
	sub, err := b.Subscribe(SubscribeOptions{
		From:        sys.ReplicationInfo().TotalSeq,
		AlertsSince: &zero, // asks for alert seq 1.. — provably truncated
		Filter:      Filter{Kinds: []EventKind{KindAlert}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	timeout := make(chan struct{})
	go func() { time.Sleep(10 * time.Second); close(timeout) }()

	// First frame: the gap notice. Seq 0 + AlertSeq distinguish it from
	// the terminal KindError shapes (eviction, shutdown), which carry a
	// record Seq.
	ev, err := sub.Next(timeout)
	if err != nil {
		t.Fatalf("gap notice: %v", err)
	}
	if ev.Kind != KindError || ev.Seq != 0 || ev.AlertSeq != oldest {
		t.Fatalf("first frame = %+v, want KindError with Seq 0, AlertSeq %d", ev, oldest)
	}
	if ev.Error == "" {
		t.Fatal("gap notice carries no explanation")
	}

	// The surviving backlog follows, in order, starting exactly at the
	// seq the notice promised.
	for i, want := range retained {
		got, err := sub.Next(timeout)
		if err != nil {
			t.Fatalf("backlog alert %d: %v", i, err)
		}
		if got.Kind != KindAlert || got.AlertSeq != want.Seq {
			t.Fatalf("backlog alert %d = %+v, want AlertSeq %d", i, got, want.Seq)
		}
	}

	// Non-terminal: a live alert still arrives on the same subscription.
	if _, err := sys.ObserveBatch([]core.Reading{
		{Time: 60, Subject: "eve", At: centers[0]},
	}); err != nil {
		t.Fatal(err)
	}
	live, err := sub.Next(timeout)
	if err != nil {
		t.Fatalf("live alert after gap notice: %v", err)
	}
	if live.Kind != KindAlert || live.AlertSeq <= retained[len(retained)-1].Seq {
		t.Fatalf("live alert = %+v: duplicate or out of order", live)
	}
	if sub.Err() != nil {
		t.Fatalf("gap notice terminated the subscription: %v", sub.Err())
	}
}
