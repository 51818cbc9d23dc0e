package stream

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/obs"
)

// collect reads n record events (alerts ride alongside and are returned
// separately), failing on timeout or an in-band error frame.
func collect(t testing.TB, sub *Subscription, n int) (records, alerts []Event) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	done := make(chan struct{})
	go func() {
		<-timeout
		close(done)
	}()
	for len(records) < n {
		ev, err := sub.Next(done)
		if err != nil {
			t.Fatalf("collect: %v after %d records", err, len(records))
		}
		switch ev.Kind {
		case KindAlert:
			alerts = append(alerts, ev)
		case KindError:
			t.Fatalf("collect: in-band error %+v", ev)
		default:
			records = append(records, ev)
		}
	}
	return records, alerts
}

func newTestBus(t testing.TB, sys *core.System) *Bus {
	t.Helper()
	lg, err := sys.ServedLog()
	if err != nil {
		t.Fatal(err)
	}
	b := NewBus(lg)
	t.Cleanup(b.Close)
	return b
}

// TestBusReplayThenLive: a subscriber from sequence 0 receives the full
// retained history in order, gap-free, then splices into live delivery
// without missing the next mutation.
func TestBusReplayThenLive(t *testing.T) {
	sys, rooms, _ := gridSystem(t, 2, t.TempDir(), "alice")
	if _, err := sys.Enter(2, "alice", rooms[0]); err != nil {
		t.Fatal(err)
	}
	total := sys.ReplicationInfo().TotalSeq

	b := newTestBus(t, sys)
	sub, err := b.Subscribe(SubscribeOptions{From: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	records, _ := collect(t, sub, int(total))
	for i, ev := range records {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d: not contiguous from 0", i, ev.Seq)
		}
	}
	last := records[len(records)-1]
	if last.Kind != KindEnter || last.Subject != "alice" {
		t.Fatalf("last replayed event = %+v, want alice's enter", last)
	}

	// Live: the next mutation must arrive on the already-open feed.
	if _, err := sys.Enter(3, "alice", rooms[1]); err != nil {
		t.Fatal(err)
	}
	live, _ := collect(t, sub, 1)
	if live[0].Seq != total || live[0].Kind != KindEnter || live[0].Location != rooms[1] {
		t.Fatalf("live event = %+v, want the enter at seq %d", live[0], total)
	}

	st := b.Stats()
	if st.Delivered == 0 || st.Published == 0 || st.TotalSubscribers != 1 {
		t.Fatalf("bus stats = %+v", st)
	}
}

// TestBusFilters: subject and kind predicates drop everything else.
func TestBusFilters(t *testing.T) {
	sys, rooms, _ := gridSystem(t, 2, t.TempDir(), "alice", "bob")
	if _, err := sys.Enter(2, "alice", rooms[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Enter(2, "bob", rooms[0]); err != nil {
		t.Fatal(err)
	}
	if err := sys.Leave(3, "alice"); err != nil {
		t.Fatal(err)
	}

	b := newTestBus(t, sys)
	sub, err := b.Subscribe(SubscribeOptions{From: 0, Filter: Filter{Subject: "alice", Kinds: []EventKind{KindEnter}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	records, _ := collect(t, sub, 1)
	if records[0].Kind != KindEnter || records[0].Subject != "alice" {
		t.Fatalf("filtered feed delivered %+v", records[0])
	}
	// Nothing else may arrive: bob's enter and alice's leave are filtered.
	done := make(chan struct{})
	go func() { time.Sleep(50 * time.Millisecond); close(done) }()
	if ev, err := sub.Next(done); err == nil {
		t.Fatalf("filter leaked %+v", ev)
	}
}

// TestBusSlowConsumerEvicted: a subscriber that stops draining is
// evicted rather than stalling the pump, and its terminal error names
// the condition.
func TestBusSlowConsumerEvicted(t *testing.T) {
	sys, rooms, _ := gridSystem(t, 2, t.TempDir(), "alice")
	b := newTestBus(t, sys)
	sub, err := b.Subscribe(SubscribeOptions{From: sys.ReplicationInfo().TotalSeq, Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Wait until the subscription is live (it counts as a subscriber).
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().Subscribers == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Burst more events than the queue holds, draining nothing.
	for i := 0; i < 6; i++ {
		loc := rooms[i%2]
		if _, err := sys.Enter(interval.Time(2+i), "alice", loc); err != nil {
			t.Fatal(err)
		}
	}
	// Eviction latches a terminal error; queued events still drain first.
	deadline = time.Now().Add(5 * time.Second)
	for sub.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := sub.Err(); !errors.Is(err, ErrSlowConsumer) {
		t.Fatalf("terminal err = %v, want ErrSlowConsumer", err)
	}
	// Drain: the queued events come first, then — guaranteed, not
	// best-effort — the in-band KindError frame naming the first
	// UNDELIVERED sequence, then the terminal error.
	var delivered []uint64
	var frame *Event
	for {
		// nil done: the closed quit channel already bounds the wait.
		ev, err := sub.Next(nil)
		if err != nil {
			break
		}
		if ev.Kind == KindError {
			ev := ev
			frame = &ev
			continue
		}
		delivered = append(delivered, ev.Seq)
	}
	if len(delivered) == 0 {
		t.Fatal("queued events discarded on eviction")
	}
	if frame == nil {
		t.Fatal("in-band eviction frame never delivered")
	}
	if want := delivered[len(delivered)-1] + 1; frame.Seq != want {
		t.Fatalf("eviction frame says resubscribe from %d; first undelivered is %d", frame.Seq, want)
	}
	if b.Stats().Evicted != 1 {
		t.Fatalf("evicted = %d, want 1", b.Stats().Evicted)
	}

	// "An evicted client loses nothing": resubscribing from the frame's
	// coordinate yields exactly the missed events, gap-free.
	sub2, err := b.Subscribe(SubscribeOptions{From: frame.Seq})
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	missed := int(sys.ReplicationInfo().TotalSeq - frame.Seq)
	records, _ := collect(t, sub2, missed)
	for i, ev := range records {
		if ev.Seq != frame.Seq+uint64(i) {
			t.Fatalf("resubscribe gap: record %d has seq %d, want %d", i, ev.Seq, frame.Seq+uint64(i))
		}
	}
}

// TestBusAlertBacklogAndLive: AlertsSince replays the retained alert
// backlog, live alerts follow exactly once, and the alert cursor
// deduplicates across the splice.
func TestBusAlertBacklogAndLive(t *testing.T) {
	sys, _, centers := gridSystem(t, 2, t.TempDir(), "alice")
	// One retained alert: eve tailgates (unauthorized entry).
	if _, err := sys.ObserveBatch([]core.Reading{{Time: 2, Subject: "eve", At: centers[0]}}); err != nil {
		t.Fatal(err)
	}
	if sys.Alerts().Len() == 0 {
		t.Fatal("setup: no alert raised")
	}

	b := newTestBus(t, sys)
	zero := uint64(0)
	sub, err := b.Subscribe(SubscribeOptions{
		From:        sys.ReplicationInfo().TotalSeq,
		AlertsSince: &zero,
		Filter:      Filter{Kinds: []EventKind{KindAlert}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	timeout := make(chan struct{})
	go func() { time.Sleep(10 * time.Second); close(timeout) }()
	ev, err := sub.Next(timeout)
	if err != nil {
		t.Fatalf("backlog alert: %v", err)
	}
	if ev.Kind != KindAlert || ev.Alert == nil || ev.Subject != "eve" {
		t.Fatalf("backlog alert = %+v", ev)
	}
	firstSeq := ev.AlertSeq

	// A live alert arrives once, after the backlog.
	if _, err := sys.ObserveBatch([]core.Reading{{Time: 3, Subject: "eve", At: centers[1]}}); err != nil {
		t.Fatal(err)
	}
	ev2, err := sub.Next(timeout)
	if err != nil {
		t.Fatalf("live alert: %v", err)
	}
	if ev2.Kind != KindAlert || ev2.AlertSeq <= firstSeq {
		t.Fatalf("live alert = %+v (backlog seq %d): duplicate or out of order", ev2, firstSeq)
	}
}

// TestBusSubscribeBehindHorizon: a From inside the compacted prefix is
// refused with ErrCompacted and the resume coordinate.
func TestBusSubscribeBehindHorizon(t *testing.T) {
	sys, rooms, _ := gridSystem(t, 2, t.TempDir(), "alice")
	if _, err := sys.Enter(2, "alice", rooms[0]); err != nil {
		t.Fatal(err)
	}
	if err := sys.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if sys.ReplicationInfo().BaseSeq == 0 {
		t.Fatal("setup: compaction did not move the base")
	}
	b := newTestBus(t, sys)
	// An explicit position inside the compacted prefix is a real gap.
	if _, err := b.Subscribe(SubscribeOptions{From: 1}); !errors.Is(err, ErrCompacted) {
		t.Fatalf("subscribe behind horizon: %v, want ErrCompacted", err)
	}
	// At the horizon is fine.
	sub, err := b.Subscribe(SubscribeOptions{From: sys.ReplicationInfo().BaseSeq})
	if err != nil {
		t.Fatalf("subscribe at horizon: %v", err)
	}
	sub.Close()
	// From 0 means "everything retained": it clamps to the horizon
	// instead of failing, so the default watch invocation keeps working
	// on a compacted primary.
	sub0, err := b.Subscribe(SubscribeOptions{From: 0})
	if err != nil {
		t.Fatalf("subscribe from 0 after compaction: %v", err)
	}
	defer sub0.Close()
	if _, err := sys.Enter(3, "alice", rooms[1]); err != nil {
		t.Fatal(err)
	}
	records, _ := collect(t, sub0, 1)
	if records[0].Seq < sys.ReplicationInfo().BaseSeq {
		t.Fatalf("clamped subscription delivered compacted seq %d", records[0].Seq)
	}
}

// TestBusCatchUpSplicesGapFree: a subscriber that starts from 0 while
// the primary keeps mutating sees every record event exactly once, in
// order, across the catch-up→live handoff. Run with -race.
func TestBusCatchUpSplicesGapFree(t *testing.T) {
	sys, rooms, _ := gridSystem(t, 2, t.TempDir(), "alice")
	b := newTestBus(t, sys)

	const moves = 300
	errc := make(chan error, 1)
	go func() {
		defer close(errc)
		for i := 0; i < moves; i++ {
			if _, err := sys.Enter(interval.Time(2+i), "alice", rooms[i%2]); err != nil {
				errc <- err
				return
			}
		}
	}()

	sub, err := b.Subscribe(SubscribeOptions{From: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	grants := len(rooms) // gridSystem's setup records
	records, _ := collect(t, sub, grants+moves)
	for i, ev := range records {
		if ev.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d: gap or duplicate across the splice", i, ev.Seq)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestBusCloseTerminatesSubscribers: Close fails every subscription
// with ErrBusClosed.
func TestBusCloseTerminatesSubscribers(t *testing.T) {
	sys, _, _ := gridSystem(t, 2, t.TempDir(), "alice")
	b := newTestBus(t, sys)
	sub, err := b.Subscribe(SubscribeOptions{From: sys.ReplicationInfo().TotalSeq})
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	done := make(chan struct{})
	go func() { time.Sleep(5 * time.Second); close(done) }()
	for {
		_, err := sub.Next(done)
		if err != nil {
			if !errors.Is(err, ErrBusClosed) {
				t.Fatalf("terminal err = %v, want ErrBusClosed", err)
			}
			break
		}
	}
	if _, err := b.Subscribe(SubscribeOptions{}); !errors.Is(err, ErrBusClosed) {
		t.Fatalf("subscribe after close: %v, want ErrBusClosed", err)
	}
}

// TestBusDeliverStampCorrelation: the deliver stamp must land on the
// record that was delivered. The feed's seq space is 0-based while
// trace sequences are 1-based, so feed seq S is trace seq S+1 —
// stamping S instead would annotate the previous record (regression).
func TestBusDeliverStampCorrelation(t *testing.T) {
	sys, rooms, _ := gridSystem(t, 2, t.TempDir(), "alice")
	b := newTestBus(t, sys)
	sub, err := b.Subscribe(SubscribeOptions{From: sys.ReplicationInfo().TotalSeq})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// A record committed while the subscriber is still catching up is
	// delivered by the catch-up path, which never stamps deliver — only
	// live fan-out does. Keep mutating until a delivered record carries
	// the stamp (the subscriber has spliced to live by then).
	var e obs.TraceEntry
	for i := 0; ; i++ {
		if _, err := sys.Enter(interval.Time(2+i), "alice", rooms[i%2]); err != nil {
			t.Fatal(err)
		}
		live, _ := collect(t, sub, 1)
		var ok bool
		if e, ok = sys.Trace().Trace(live[0].Seq + 1); !ok {
			t.Fatalf("no trace for delivered seq %d", live[0].Seq)
		}
		if e.Stamps[obs.StageDeliver] != 0 {
			break
		}
		if i >= 500 {
			t.Fatalf("no live delivery stamped after %d mutations: %+v", i+1, e.Stamps)
		}
	}
	// The stamp rides the delivered record itself, after its publish —
	// a stamp keyed on the 0-based feed seq would land one record early.
	if pub := e.Stamps[obs.StagePublish]; e.Stamps[obs.StageDeliver] < pub {
		t.Fatalf("deliver %d precedes publish %d", e.Stamps[obs.StageDeliver], pub)
	}
}
