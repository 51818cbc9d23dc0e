package stream

import (
	"strings"
	"testing"
	"time"

	"repro/internal/interval"
)

// TestBusCatchUpRacingCompaction is the validate-after-read regression
// for the catch-up path. A catch-up subscriber is parked on a full queue
// mid-log while the primary compacts its WAL and regrows it with
// same-size frames, so the file reaches the subscriber's byte offset
// again. Every record is written at a time chosen so that Time-1000 ==
// Seq-base: a new-epoch frame read under old-epoch coordinates breaks
// that equation. The feed may instead end with the ErrCompacted frame.
func TestBusCatchUpRacingCompaction(t *testing.T) {
	sys, rooms, _ := gridSystem(t, 2, t.TempDir(), "alice")
	if err := sys.Snapshot(); err != nil {
		t.Fatal(err)
	}
	base := sys.ReplicationInfo().BaseSeq
	// pairs appends 100 enter/leave pairs at 4-digit times from `from`:
	// one record per time step, every frame the same size.
	pairs := func(from interval.Time) {
		t.Helper()
		for i := interval.Time(0); i < 100; i++ {
			if _, err := sys.Enter(from+2*i, "alice", rooms[0]); err != nil {
				t.Fatal(err)
			}
			if err := sys.Leave(from+2*i+1, "alice"); err != nil {
				t.Fatal(err)
			}
		}
	}
	pairs(1000)
	if got := sys.ReplicationInfo().TotalSeq - base; got != 200 {
		t.Fatalf("setup: %d records after the snapshot, want 200", got)
	}

	b := newTestBus(t, sys)
	sub, err := b.Subscribe(SubscribeOptions{From: base, Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// The one-slot queue is full once the catch-up delivered its first
	// event; it is then blocked sending the second, holding a read
	// position inside the log.
	deadline := time.Now().Add(10 * time.Second)
	for sub.Pending() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("catch-up never filled its queue")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := sys.Snapshot(); err != nil {
		t.Fatal(err)
	}
	pairs(1200)

	done := make(chan struct{})
	timer := time.AfterFunc(10*time.Second, func() { close(done) })
	defer timer.Stop()
	last := base + 400 - 1
	var bad, seen int
	for {
		ev, err := sub.Next(done)
		if err != nil {
			t.Fatalf("after %d events: %v", seen, err)
		}
		if ev.Kind == KindError {
			if !strings.Contains(ev.Error, ErrCompacted.Error()) {
				t.Fatalf("in-band error %+v, want only ErrCompacted", ev)
			}
			break
		}
		if ev.Kind == KindAlert {
			continue
		}
		seen++
		if uint64(ev.Time)-1000 != ev.Seq-base {
			if bad == 0 {
				t.Errorf("seq %d carries the record written at time %d (seq %d)",
					ev.Seq, ev.Time, base+uint64(ev.Time)-1000)
			}
			bad++
		}
		if ev.Seq == last {
			break
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d events delivered under the wrong sequence number", bad, seen)
	}
}
