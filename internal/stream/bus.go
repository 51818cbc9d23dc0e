// The committed-event bus: one shared pump follows the node's served log
// (core.ServedLog: a primary's WAL or a cascading follower's relay) —
// the committed history, in exactly the order every replica applies it —
// decodes each durable record into an Event, and fans it out to
// subscribers. Alerts from the audit log ride the same feed in their own
// sequence space.
//
// Fan-out discipline:
//
//   - One shared pump serves every subscriber's live phase; it wakes on
//     the log's wakeup (core.ServedLog.Changed), so feed latency is
//     bounded by the commit barrier, not a poll interval.
//   - Each subscriber owns a bounded queue. The pump never blocks on a
//     subscriber: a queue that is full when a live event arrives gets
//     the subscriber EVICTED (ErrSlowConsumer, with an in-band KindError
//     frame naming the sequence to resubscribe from). The log is the
//     buffer of record — an evicted client loses nothing by
//     resubscribing from its last seen sequence.
//   - A subscriber behind the live position catches up from the log
//     itself on its own goroutine (the log IS the replay buffer), then
//     splices into the live feed under the bus lock with no gap and no
//     duplicate. Only the compaction horizon limits how far back a
//     subscription can start (ErrCompacted → HTTP 410).
//   - The pump and every catch-up read through storage.LogReader, which
//     hands out a batch only after re-reading the log's base: a
//     compaction racing the reads can never surface a new-epoch record
//     under an old-epoch sequence number.
package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/storage"
)

// retryJitter sleeps roughly a millisecond, randomized over [0.5ms,
// 1.5ms), before a catch-up retry. The jitter de-synchronizes the many
// catch-up goroutines that all miss the same tail flush at once, so
// they do not re-stampede the log in lockstep.
func retryJitter() {
	time.Sleep(500*time.Microsecond + time.Duration(rand.Int63n(int64(time.Millisecond))))
}

// DefaultSubscriberBuffer is the per-subscriber queue length when
// SubscribeOptions.Buffer is 0. A subscriber whose queue is full when a
// live event arrives is evicted.
const DefaultSubscriberBuffer = 1024

// ErrSlowConsumer reports an eviction: the subscriber's queue was full
// when a live event arrived. Resubscribe from the last seen sequence.
var ErrSlowConsumer = errors.New("stream: slow consumer evicted")

// ErrCompacted reports that the requested range starts before the
// compaction horizon: those records live only inside a snapshot now.
var ErrCompacted = errors.New("stream: requested events compacted into a snapshot")

// ErrBusClosed reports a subscription ended by Bus.Close or
// Subscription.Close.
var ErrBusClosed = errors.New("stream: subscription closed")

// BusStats is a point-in-time snapshot of the bus counters.
type BusStats struct {
	// Subscribers is the live fan-out width; CatchingUp counts
	// subscriptions still replaying history from the log (backpressured,
	// not evictable); TotalSubscribers counts every subscription ever
	// accepted.
	Subscribers      int    `json:"subscribers"`
	CatchingUp       int    `json:"catching_up,omitempty"`
	TotalSubscribers uint64 `json:"total_subscribers"`
	// Published counts committed records the pump decoded onto the feed;
	// Alerts the audit alerts that joined it; Delivered the events
	// actually handed to subscriber queues (catch-up and live).
	Published uint64 `json:"published"`
	Alerts    uint64 `json:"alerts"`
	Delivered uint64 `json:"delivered"`
	// Evicted counts slow-consumer evictions; Lost counts events a
	// compaction removed before the pump could read them.
	Evicted uint64 `json:"evicted"`
	Lost    uint64 `json:"lost,omitempty"`
	// DecodeSkips counts committed records whose event decode was
	// skipped entirely because every consumer at that moment was
	// filtered to alerts only (the monitoring fast path: alert-only
	// watchers cost no record decodes).
	DecodeSkips uint64 `json:"decode_skips,omitempty"`
}

// Bus fans the committed-event feed out to subscribers.
type Bus struct {
	log core.ServedLog
	// alerts is the node's audit log, whose alerts ride the feed; trace
	// receives the deliver stamp for every record fanned out.
	alerts *audit.Log
	trace  *obs.PipelineTrace

	mu      sync.Mutex
	subs    map[*Subscription]struct{}
	nextSeq uint64 // the live pump's next record sequence
	pumping bool
	pumpGen uint64
	feeds   int // subscriptions still in their catch-up phase
	closed  bool

	cancelAlerts func()

	totalSubs, published, alertsPub atomic.Uint64
	delivered, evicted, lost        atomic.Uint64
	decodeSkips                     atomic.Uint64
}

// NewBus builds a bus over a node's served log: a durable primary's WAL
// or a cascading follower's relay. Alerts come from the node the log
// belongs to: a follower re-raises every alert deterministically as it
// applies the shipped records, so they ride the relay-backed feed in the
// same sequence space as on the primary.
func NewBus(lg core.ServedLog) *Bus {
	sys := lg.System()
	b := &Bus{log: lg, alerts: sys.Alerts(), trace: sys.Trace(), subs: make(map[*Subscription]struct{})}
	b.cancelAlerts = b.alerts.Subscribe(b.publishAlert)
	return b
}

// Close detaches the alert feed and terminates every subscription.
func (b *Bus) Close() {
	b.mu.Lock()
	b.closed = true
	b.pumpGen++ // retire the pump
	b.pumping = false
	subs := make([]*Subscription, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	b.subs = make(map[*Subscription]struct{})
	b.mu.Unlock()
	if b.cancelAlerts != nil {
		b.cancelAlerts()
	}
	for _, s := range subs {
		s.fail(ErrBusClosed, Event{Kind: KindError, Seq: s.next, Error: ErrBusClosed.Error()})
	}
}

// Closed reports whether Close has run (readiness: a closed bus serves
// no feeds).
func (b *Bus) Closed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

// Stats reports the bus counters.
func (b *Bus) Stats() BusStats {
	b.mu.Lock()
	live, feeds := len(b.subs), b.feeds
	b.mu.Unlock()
	return BusStats{
		Subscribers:      live,
		CatchingUp:       feeds,
		TotalSubscribers: b.totalSubs.Load(),
		Published:        b.published.Load(),
		Alerts:           b.alertsPub.Load(),
		Delivered:        b.delivered.Load(),
		Evicted:          b.evicted.Load(),
		Lost:             b.lost.Load(),
		DecodeSkips:      b.decodeSkips.Load(),
	}
}

// alertOnly reports a filter that can never match a record event: an
// explicit kind list containing only KindAlert. (KindError frames are
// not pump events, and alerts ride publishAlert — so a subscriber
// behind such a filter needs no record decodes at all.)
func alertOnly(f Filter) bool {
	if len(f.Kinds) == 0 {
		return false
	}
	for _, k := range f.Kinds {
		if k != KindAlert {
			return false
		}
	}
	return true
}

// SubscribeOptions positions and filters one subscription.
type SubscribeOptions struct {
	// From is the first record sequence to deliver. 0 is the
	// start-of-retained-history sentinel: it subscribes from the
	// compaction horizon, wherever it is (never ErrCompacted). An
	// explicit nonzero From below the horizon IS refused — that client
	// tracked a position, and silently skipping the compacted gap would
	// hide real loss from it. The current TotalSeq delivers only new
	// events.
	From uint64
	// Filter drops events the subscriber does not want.
	Filter Filter
	// AlertsSince, when non-nil, additionally delivers the audit log's
	// retained alerts with AlertSeq > *AlertsSince at attach time (the
	// log is bounded, so this is best effort). Nil delivers live alerts
	// only. Either way, alert delivery still requires the filter to
	// admit KindAlert.
	AlertsSince *uint64
	// Buffer overrides the per-subscriber queue length (0 selects
	// DefaultSubscriberBuffer).
	Buffer int
}

// Subscribe attaches a subscriber. An explicit From before the
// compaction horizon fails with ErrCompacted (the state up to the
// horizon lives in snapshots; bootstrap a replica instead); From 0
// means "everything retained" and clamps to the horizon.
func (b *Bus) Subscribe(opts SubscribeOptions) (*Subscription, error) {
	base, total, err := b.log.Window()
	if err != nil {
		return nil, err
	}
	if opts.From == 0 {
		opts.From = base
	}
	if opts.From < base {
		return nil, fmt.Errorf("%w: seq %d precedes the horizon %d; resubscribe from %d",
			ErrCompacted, opts.From, base, base)
	}
	buf := opts.Buffer
	if buf <= 0 {
		buf = DefaultSubscriberBuffer
	}
	s := &Subscription{
		bus:    b,
		filter: opts.Filter,
		q:      make(chan Event, buf),
		quit:   make(chan struct{}),
		next:   opts.From,
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrBusClosed
	}
	b.feeds++
	b.totalSubs.Add(1)
	if !b.pumping {
		// The pump serves only the LIVE edge: it resumes at the durable
		// head, and a subscriber behind it catches up from the log itself
		// (blocking sends — backpressure), so a long replay can never
		// flood the live queues and evict its own subscriber.
		b.startPumpLocked(total)
	}
	b.mu.Unlock()
	go s.feed(opts.AlertsSince)
	return s, nil
}

// startPumpLocked boots the shared live pump at record sequence `at`.
// Callers hold b.mu.
func (b *Bus) startPumpLocked(at uint64) {
	b.pumping = true
	b.nextSeq = at
	b.pumpGen++
	go b.pump(b.pumpGen)
}

// pump is the shared live loop: follow the durable frontier of the log,
// decode each record once, fan it out. It exits when the bus goes idle
// (no subscribers, no catch-ups) or a newer generation replaces it.
func (b *Bus) pump(gen uint64) {
	var rd *storage.LogReader
	defer func() {
		if rd != nil {
			rd.Close()
		}
	}()
	var batch []byte
	for {
		b.mu.Lock()
		if b.pumpGen != gen {
			b.mu.Unlock()
			return
		}
		if len(b.subs) == 0 && b.feeds == 0 {
			b.pumping = false
			b.mu.Unlock()
			return
		}
		next := b.nextSeq
		b.mu.Unlock()

		changed := b.log.Changed()
		if rd == nil {
			rd = b.openLive(gen, next)
		}
		var err error
		batch = batch[:0]
		if rd != nil {
			seq := rd.Seq()
			if batch, err = rd.Read(batch, math.MaxUint64); err != nil {
				rd.Close()
				rd = nil
			}
			for rest := batch; len(rest) > 0; seq++ {
				var body []byte
				body, rest = storage.NextFrame(rest)
				b.publishFrame(gen, seq, body)
			}
		}
		// A compaction re-resolves at once; anything else (caught up, a
		// log that cannot be served right now) waits for the log to move.
		if len(batch) == 0 && !errors.Is(err, storage.ErrWALReset) {
			b.log.Wait(changed, nil)
		}
	}
}

// openLive positions a reader at the pump's next sequence, or nil when
// the log cannot be read right now (the caller waits and retries).
// Records a compaction removed before the pump read them are gone from
// the feed — the state they built is in the snapshot — so they are
// counted lost and the pump resumes at the new base.
func (b *Bus) openLive(gen, next uint64) *storage.LogReader {
	base, _, err := b.log.Window()
	if err != nil {
		return nil
	}
	if next < base {
		b.lost.Add(base - next)
		b.mu.Lock()
		if b.pumpGen == gen && b.nextSeq < base {
			b.nextSeq = base
		}
		b.mu.Unlock()
		next = base
	}
	rd, err := b.log.Open(next)
	if err != nil {
		return nil
	}
	return rd
}

// publishFrame publishes the record frame at seq. Undecodable records
// still occupy their sequence slot: they are counted lost and skipped
// rather than stalling the feed.
func (b *Bus) publishFrame(gen, seq uint64, body []byte) {
	if b.publishSkipped(gen, seq) {
		// Alert-only fast path: nobody live can match a record event, so
		// neither the record nor the event was decoded.
		return
	}
	ev, err := decodeFrame(seq, body)
	if err != nil {
		b.lost.Add(1)
	}
	b.publishRecord(gen, seq, ev, err == nil)
}

// decodeFrame decodes one record frame body into its feed event.
func decodeFrame(seq uint64, body []byte) (Event, error) {
	rec, err := storage.DecodeRecord(body)
	if err != nil {
		return Event{}, err
	}
	return DecodeEvent(seq, rec)
}

// publishSkipped is the alert-only fast path: when every live
// subscriber is filtered to alerts only, a record event can match no
// one — so the pump advances past seq WITHOUT decoding the record at
// all. The check and the advance happen under one lock acquisition
// (publishAlert and Subscribe take the same lock), so a record-hungry
// subscriber can never register between them; it returns false when
// such a subscriber exists and the caller must decode and publish
// normally.
func (b *Bus) publishSkipped(gen, seq uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pumpGen != gen {
		return true // retired pump: the replacement re-reads this record
	}
	for sub := range b.subs {
		if !alertOnly(sub.filter) {
			return false
		}
	}
	b.nextSeq = seq + 1
	for sub := range b.subs {
		if seq >= sub.next {
			sub.next = seq + 1
		}
	}
	if len(b.subs) > 0 {
		// Only a live alert-only watcher makes this a skip; with nobody
		// live there is no decode to save.
		b.decodeSkips.Add(1)
	}
	return true
}

// publishRecord advances the live position past seq and fans ev out to
// every live subscriber (when ok). Delivery never blocks: a full queue
// evicts its subscriber.
func (b *Bus) publishRecord(gen, seq uint64, ev Event, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pumpGen != gen {
		return
	}
	b.nextSeq = seq + 1
	if !ok {
		return
	}
	b.published.Add(1)
	// The feed's seq space is 0-based; trace sequences are 1-based
	// (seq 0 is the untraced sentinel), so feed seq N is trace seq N+1.
	b.trace.Stamp(seq+1, obs.StageDeliver, obs.Now())
	for sub := range b.subs {
		if seq < sub.next {
			continue // its catch-up already delivered this one
		}
		if !sub.filter.Match(ev) {
			sub.next = seq + 1
			continue
		}
		select {
		case sub.q <- ev:
			sub.next = seq + 1
			b.delivered.Add(1)
		default:
			// The cursor must NOT advance past the dropped event: the
			// eviction notice names sub.next as the resume point, and seq
			// is the first sequence this subscriber never received.
			sub.next = seq
			b.evictLocked(sub)
		}
	}
}

// publishAlert fans one audit alert out to the live subscribers. It runs
// synchronously on the raising goroutine (inside the mutation), so an
// alert always precedes the record event of the movement that raised it.
func (b *Bus) publishAlert(a audit.Alert) {
	ev := alertEvent(a)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.alertsPub.Add(1)
	for sub := range b.subs {
		if sub.alertGate || a.Seq <= sub.lastAlert {
			// Gated: the subscription is still delivering its retained
			// backlog; this alert is in the log and the backlog loop will
			// pick it up in order.
			continue
		}
		sub.lastAlert = a.Seq
		if !sub.filter.Match(ev) {
			continue
		}
		select {
		case sub.q <- ev:
			b.delivered.Add(1)
		default:
			b.evictLocked(sub)
		}
	}
}

// alertEvent is the feed shape of one audit alert.
func alertEvent(a audit.Alert) Event {
	return Event{
		Kind:     KindAlert,
		Time:     a.Time,
		Subject:  a.Subject,
		Location: a.Location,
		AlertSeq: a.Seq,
		Alert:    &a,
	}
}

// evictLocked removes a slow consumer. Callers hold b.mu and must have
// left sub.next at the first UNDELIVERED sequence — it is the resume
// coordinate the terminal frame promises.
func (b *Bus) evictLocked(sub *Subscription) {
	delete(b.subs, sub)
	b.evicted.Add(1)
	err := fmt.Errorf("%w at seq %d; resubscribe from there", ErrSlowConsumer, sub.next)
	go sub.fail(err, Event{Kind: KindError, Seq: sub.next, Error: err.Error()})
}

// remove detaches sub (Subscription.Close).
func (b *Bus) remove(sub *Subscription) {
	b.mu.Lock()
	delete(b.subs, sub)
	b.mu.Unlock()
}

// --- Subscription --------------------------------------------------------

// Subscription is one subscriber's end of the feed.
type Subscription struct {
	bus    *Bus
	filter Filter
	q      chan Event
	quit   chan struct{}

	failOnce sync.Once
	err      atomic.Pointer[error]
	// terminal holds the latched in-band closing frame (eviction notice,
	// bus shutdown); Next hands it out after the queue drains, so it can
	// never be lost to a full queue.
	terminal atomic.Pointer[Event]

	// next is the next record sequence this subscriber needs. Owned by
	// the feed goroutine during catch-up, by the pump (under bus.mu)
	// once live. lastAlert is the same cursor for the alert space;
	// alertGate suppresses live alert delivery while the retained
	// backlog is still being replayed (both under bus.mu).
	next      uint64
	lastAlert uint64
	alertGate bool
}

// fail terminates the subscription: latch the error and the in-band
// terminal frame, wake every reader. The frame is handed out by Next
// after the queued events drain — NOT enqueued, because the queue being
// full is exactly how evictions happen.
func (s *Subscription) fail(err error, terminal Event) {
	s.failOnce.Do(func() {
		s.err.Store(&err)
		if terminal.Kind != "" {
			s.terminal.Store(&terminal)
		}
		close(s.quit)
	})
}

// Err returns the terminal error once the subscription has ended.
func (s *Subscription) Err() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Close detaches the subscription. Pending events are discarded; a
// Close during catch-up stops the feed goroutine via quit, which also
// releases its pending-feed count.
func (s *Subscription) Close() {
	s.bus.remove(s)
	s.fail(ErrBusClosed, Event{})
}

// Next returns the next event. Queued events are always drained before a
// terminal error is reported, so an evicted subscriber still sees its
// in-band KindError frame. done, when non-nil, aborts the wait (e.g. an
// HTTP request's Context().Done()).
func (s *Subscription) Next(done <-chan struct{}) (Event, error) {
	// Drain before reporting termination.
	select {
	case ev := <-s.q:
		return ev, nil
	default:
	}
	select {
	case ev := <-s.q:
		return ev, nil
	case <-s.quit:
		// Raced delivery: drain once more.
		select {
		case ev := <-s.q:
			return ev, nil
		default:
		}
		// The queue is dry: hand out the latched terminal frame (once),
		// then the terminal error.
		if t := s.terminal.Swap(nil); t != nil {
			return *t, nil
		}
		if err := s.Err(); err != nil {
			return Event{}, err
		}
		return Event{}, ErrBusClosed
	case <-done:
		return Event{}, errors.New("stream: subscriber canceled")
	}
}

// Pending reports how many events are queued — the HTTP handler flushes
// its response when the queue drains.
func (s *Subscription) Pending() int { return len(s.q) }

// closedNow reports whether the subscription already terminated.
func (s *Subscription) closedNow() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// feed is the catch-up goroutine: read [next, live) straight from the
// log — the log is the replay buffer — then splice into the live feed
// under the bus lock with no gap and no duplicate.
func (s *Subscription) feed(alertsSince *uint64) {
	b := s.bus
	var rd *storage.LogReader
	var batch []byte
	defer func() {
		if rd != nil {
			rd.Close()
		}
		b.mu.Lock()
		b.feeds--
		b.mu.Unlock()
	}()

	send := func(ev Event) bool {
		select {
		case s.q <- ev:
			b.delivered.Add(1)
			return true
		case <-s.quit:
			return false
		}
	}

	for {
		if s.closedNow() {
			return
		}
		// Try to go live: if the shared pump's position is at (or before)
		// ours, registration is gap-free — the pump skips below s.next.
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			s.fail(ErrBusClosed, Event{})
			return
		}
		if s.next >= b.nextSeq {
			// Position the alert cursor: explicit resume point (backlog
			// replay, gated below), or "live only" = everything already
			// retained is old news.
			alerts := b.alerts
			var cursor uint64
			if alertsSince != nil {
				cursor = *alertsSince
				s.alertGate = true
			} else {
				s.lastAlert = alerts.LastSeq()
			}
			b.subs[s] = struct{}{}
			b.mu.Unlock()
			if alertsSince == nil {
				return
			}
			// Replay the retained-alert backlog in order. The gate makes
			// live alerts wait their turn: while it is up, publishAlert
			// skips this subscription, and anything raised meanwhile is in
			// the log for the next round. The gate drops only in a round
			// that proved (under the bus lock, where publishAlert runs)
			// that the log holds nothing past the cursor — so the splice
			// to live delivery has no gap, no duplicate, and no reordering.
			for {
				// The audit log is bounded: a cursor behind its retention
				// horizon has provably lost alerts. Unlike the record
				// path — where ErrCompacted/410 refuses the subscription —
				// the alert backlog is documented as best-effort, so the
				// loss is reported IN BAND: a non-terminal KindError frame
				// (Seq 0, AlertSeq = the oldest seq the replay can resume
				// at) precedes the surviving backlog instead of the gap
				// being skipped silently.
				if oldest := alerts.OldestRetained(); cursor+1 < oldest {
					err := fmt.Errorf("stream: alert backlog truncated: alerts %d..%d dropped by the bounded audit log; replay resumes at alert seq %d",
						cursor+1, oldest-1, oldest)
					if !send(Event{Kind: KindError, AlertSeq: oldest, Error: err.Error()}) {
						return
					}
					cursor = oldest - 1
				}
				for _, a := range alerts.Since(cursor) {
					cursor = a.Seq
					if ev := alertEvent(a); s.filter.Match(ev) && !send(ev) {
						return
					}
				}
				b.mu.Lock()
				if alerts.LastSeq() <= cursor {
					s.lastAlert = cursor
					s.alertGate = false
					b.mu.Unlock()
					return
				}
				b.mu.Unlock()
			}
		}
		target := b.nextSeq
		b.mu.Unlock()

		// Catch up from the log: every record below target is durable and
		// on disk (the pump read it from this same file), unless a
		// compaction truncated it away — then the reader reports it and
		// the position is re-resolved.
		if rd == nil {
			var err error
			if rd, err = b.log.Open(s.next); err != nil {
				if base, _, werr := b.log.Window(); werr == nil && s.next < base {
					err := fmt.Errorf("%w: seq %d precedes the horizon %d; resubscribe from %d",
						ErrCompacted, s.next, base, base)
					s.fail(err, Event{Kind: KindError, Seq: base, Error: err.Error()})
					return
				}
				retryJitter()
				continue
			}
		}
		var err error
		if batch, err = rd.Read(batch[:0], target); err != nil || len(batch) == 0 {
			// Interference (or a log that cannot be served right now):
			// re-resolve from the top of the loop, which also re-checks
			// closedNow.
			if err != nil {
				rd.Close()
				rd = nil
			}
			retryJitter()
			continue
		}
		skipDecodes := alertOnly(s.filter)
		for rest := batch; len(rest) > 0; {
			var body []byte
			body, rest = storage.NextFrame(rest)
			seq := s.next
			s.next++
			if skipDecodes {
				// Alert-only subscriber: no record event can match its
				// filter, so the frame is consumed without decoding.
				b.decodeSkips.Add(1)
				continue
			}
			ev, err := decodeFrame(seq, body)
			if err != nil || !s.filter.Match(ev) {
				continue // an undecodable record skips its slot, as in the pump
			}
			if !send(ev) {
				return
			}
		}
	}
}
