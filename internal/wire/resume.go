// Resumable streaming: the client half of exactly-once ingest and
// gapless subscription across connection failures.
//
// ResumableObserver wraps StreamObserver with a resume session: every
// frame gets a session-scoped sequence number and stays buffered until
// an ack's Resume covers it. When the connection dies — mid-send, or
// silently while idle — the observer redials with the same session
// token, reads the server's hello (Resume = the durable frame
// high-water), re-sends only the un-acked suffix, and the server
// deduplicates whatever of that overlap it had in fact applied. The
// caller sees one uninterrupted stream with exactly-once application.
//
// ResumableEventStream does the mirror image for the committed-event
// feed: it tracks the last delivered record sequence and redials
// From=last+1 on any transport failure or in-band KindError frame
// (eviction, compaction), so the caller iterates a gapless, duplicate-
// free feed across server restarts. The WAL is the replay buffer that
// makes this exact.
package wire

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	mrand "math/rand"
	"time"

	"repro/internal/stream"
)

// Resume-dial defaults: how long a resumable connection keeps retrying
// (long enough to ride out a server restart) and the backoff bounds.
const (
	DefaultResumePatience = 45 * time.Second
	resumeBackoffMin      = 50 * time.Millisecond
	resumeBackoffMax      = 2 * time.Second
)

// backoffJitter returns d randomized over [d/2, d] (equal jitter), so a
// fleet of clients cut by the same failure does not redial in lockstep.
func backoffJitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(mrand.Int63n(int64(d/2)+1))
}

// newSessionToken returns a fresh random session token.
func newSessionToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the math/rand stream — the token only needs to be
		// unique among this server's live sessions, not unguessable.
		return fmt.Sprintf("sess-%016x", mrand.Uint64())
	}
	return hex.EncodeToString(b[:])
}

// ResumableObserver is a self-healing ingest stream. All methods must
// be called from ONE goroutine (Ack repairs a dead connection, so even
// it mutates). It presents the same surface as StreamObserver, plus the
// exactly-once resume machinery underneath.
type ResumableObserver struct {
	c       *Client
	wf      WireFormat
	ctx     context.Context
	session string
	// pick, when set (FailoverClient), re-resolves the endpoint before
	// every redial: after a failover the repair lands on the promoted
	// primary instead of hammering the dead one. The session token is
	// kept — but a new primary has no memory of it, so its hello resumes
	// at 0 and the whole un-acked suffix is re-sent: the un-acked window
	// degrades to at-least-once across promotion (DESIGN.md D15), and the
	// outcome totals restart at the new primary's count.
	pick func() *Client

	// Patience bounds how long one repair (redial + hello + re-send)
	// may keep retrying before the observer gives up and surfaces the
	// error. Set before the first Send.
	Patience time.Duration

	obs     *StreamObserver
	nextSeq uint64                // last assigned frame sequence
	buf     []stream.ObserveFrame // un-acked suffix, ascending Seq
	durable uint64                // session durable high-water (max of hellos and acks)
	// last is the latest ack of an abandoned connection. Every ack of a
	// session connection carries the session's outcome totals, so the
	// newest ack seen is the running total — no client-side summing.
	last stream.Ack

	reconnects uint64
	closed     bool
	err        error
}

// StreamObserveResumable opens an exactly-once ingest stream: a fresh
// resume session over the given framing. Canceling ctx tears the
// current connection and stops any repair in progress.
func (c *Client) StreamObserveResumable(ctx context.Context, wf WireFormat) (*ResumableObserver, error) {
	ro := &ResumableObserver{
		c:        c,
		wf:       wf,
		ctx:      ctx,
		session:  newSessionToken(),
		Patience: DefaultResumePatience,
	}
	if err := ro.redial(); err != nil {
		return nil, err
	}
	return ro, nil
}

// Session returns the resume token (diagnostics).
func (ro *ResumableObserver) Session() string { return ro.session }

// Reconnects returns how many times the observer has repaired its
// connection.
func (ro *ResumableObserver) Reconnects() uint64 { return ro.reconnects }

// redial opens one connection for the session, waits for the hello, and
// re-sends the buffered frames the hello's Resume does not cover. One
// attempt — repair() wraps it in the backoff loop.
func (ro *ResumableObserver) redial() error {
	if ro.pick != nil {
		if c := ro.pick(); c != nil {
			ro.c = c
		}
	}
	obs, err := ro.c.streamObserveSession(ro.ctx, ro.wf, ro.session)
	if err != nil {
		return err
	}
	var hello stream.Ack
	select {
	case hello = <-obs.hello:
	case <-obs.done:
		obs.Abort()
		if obs.err != nil {
			return obs.err
		}
		return errors.New("wire: resumable observe: connection ended before hello")
	case <-ro.ctx.Done():
		obs.Abort()
		return ro.ctx.Err()
	}
	if hello.Final {
		// Refused (draining, poisoned): terminal for this connection,
		// retryable for the session.
		obs.Abort()
		if hello.Error != "" {
			return fmt.Errorf("wire: resumable observe: refused: %s", hello.Error)
		}
		return errors.New("wire: resumable observe: refused before any frame")
	}
	ro.noteDurable(hello.Resume)
	ro.trim()
	for i := range ro.buf {
		if err := obs.sendSeq(&ro.buf[i]); err != nil {
			obs.Abort()
			return err
		}
	}
	if err := obs.Flush(); err != nil {
		obs.Abort()
		return err
	}
	ro.obs = obs
	return nil
}

// repair replaces a dead connection, retrying with jittered exponential
// backoff until Patience runs out. Called with a nil (or abandoned)
// ro.obs.
func (ro *ResumableObserver) repair() error {
	ro.drop()
	ro.reconnects++
	deadline := time.Now().Add(ro.Patience)
	backoff := resumeBackoffMin
	for {
		err := ro.redial()
		if err == nil {
			return nil
		}
		if ro.ctx.Err() != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wire: resumable observe: gave up after %v: %w", ro.Patience, err)
		}
		select {
		case <-time.After(backoffJitter(backoff)):
		case <-ro.ctx.Done():
			return ro.ctx.Err()
		}
		if backoff *= 2; backoff > resumeBackoffMax {
			backoff = resumeBackoffMax
		}
	}
}

// drop abandons the current connection, keeping its latest ack.
func (ro *ResumableObserver) drop() {
	if ro.obs == nil {
		return
	}
	ro.last = ro.obs.Ack()
	ro.noteDurable(ro.last.Resume)
	ro.obs = nil
}

func (ro *ResumableObserver) noteDurable(r uint64) {
	if r > ro.durable {
		ro.durable = r
	}
}

// trim drops buffered frames the durable high-water covers.
func (ro *ResumableObserver) trim() {
	if ro.obs != nil {
		ro.noteDurable(ro.obs.Ack().Resume)
	}
	i := 0
	for i < len(ro.buf) && ro.buf[i].Seq <= ro.durable {
		i++
	}
	if i > 0 {
		ro.buf = append(ro.buf[:0], ro.buf[i:]...)
	}
}

// live reports whether the current connection is still usable.
func (ro *ResumableObserver) live() bool {
	if ro.obs == nil {
		return false
	}
	select {
	case <-ro.obs.done:
		return false
	default:
		return true
	}
}

// Send numbers and buffers one reading, then streams it. A transport
// failure triggers a transparent repair: the frame is already buffered,
// so the redial re-sends it (and the server dedupes any overlap).
func (ro *ResumableObserver) Send(r Reading) error {
	if ro.closed {
		return errors.New("wire: resumable observe: send after Close")
	}
	ro.nextSeq++
	f := stream.ObserveFrame{Time: r.Time, Subject: r.Subject, X: r.X, Y: r.Y, Seq: ro.nextSeq}
	ro.buf = append(ro.buf, f)
	ro.trim()
	if ro.live() {
		if err := ro.obs.sendSeq(&f); err == nil {
			return nil
		}
	}
	return ro.repair()
}

// Flush pushes buffered frames to the server, repairing a dead
// connection first (the repair itself re-sends and flushes).
func (ro *ResumableObserver) Flush() error {
	if !ro.live() {
		if ro.closed {
			return errors.New("wire: resumable observe: flush after Close")
		}
		return ro.repair()
	}
	if err := ro.obs.Flush(); err != nil {
		return ro.repair()
	}
	return nil
}

// Ack returns the latest cumulative position. Acked is the number of
// this session's frames durably applied (== the resume high-water,
// since sequences are dense from 1); Seq is the primary's durable
// record sequence; the outcome counters are the session's totals, as
// the server reports them on every ack.
// A connection found dead while polling is repaired in place (the
// redial re-sends the un-acked suffix), so an idle wait-for-ack loop
// makes progress across kills too.
func (ro *ResumableObserver) Ack() stream.Ack {
	if !ro.closed && !ro.live() {
		_ = ro.repair() // best effort; the next poll retries
	}
	a := ro.last
	if ro.obs != nil {
		a = ro.obs.Ack() // at least the hello, which is newer than last
	}
	ro.noteDurable(a.Resume)
	a.Final, a.Error = false, ""
	a.Acked = ro.durable
	a.Resume = ro.durable
	return a
}

// Err returns the terminal error (set by a failed Close or an exhausted
// repair).
func (ro *ResumableObserver) Err() error { return ro.err }

// Close finishes the session: End frame, final ack, and — if the
// connection dies before the final ack covers every sent frame —
// repair-and-retry until it does or Patience runs out. On success every
// frame ever Sent is durably applied exactly once.
func (ro *ResumableObserver) Close() (stream.Ack, error) {
	if ro.closed {
		return ro.Ack(), ro.err
	}
	ro.closed = true
	deadline := time.Now().Add(ro.Patience)
	for {
		if !ro.live() {
			if err := ro.repair(); err != nil {
				ro.err = err
				return ro.Ack(), err
			}
		}
		a, err := ro.obs.Close()
		ro.noteDurable(a.Resume)
		ro.drop()
		if err == nil {
			if ro.durable >= ro.nextSeq {
				ro.trim()
				fin := ro.Ack()
				fin.Final = true
				return fin, nil
			}
			err = fmt.Errorf("wire: resumable observe: final ack covers %d of %d frames", ro.durable, ro.nextSeq)
		}
		if time.Now().After(deadline) {
			ro.err = err
			return ro.Ack(), err
		}
		select {
		case <-time.After(backoffJitter(resumeBackoffMin)):
		case <-ro.ctx.Done():
			ro.err = ro.ctx.Err()
			return ro.Ack(), ro.err
		}
	}
}

// ResumableEventStream is a self-healing subscription: EventStream's
// Next, but any transport failure or in-band KindError frame triggers a
// redial from the exact next sequence, so the caller sees a gapless,
// duplicate-free feed. Safe for one goroutine.
type ResumableEventStream struct {
	c    *Client
	ctx  context.Context
	opts StreamSubscribeOptions
	// pick, when set (FailoverClient), re-resolves the endpoint before
	// every redial attempt, so the feed resumes from the new primary
	// after a failover — gapless, because the redial position is the
	// client-tracked next sequence, not server state.
	pick func() *Client

	// Patience bounds how long one repair may keep retrying.
	Patience time.Duration

	es         *EventStream
	next       uint64 // next record sequence to request
	alertsSeen uint64 // highest AlertSeq delivered
	reconnects uint64
	// stalledSince is when repairs started making no progress (no event
	// delivered, no resume coordinate advanced); zero while progressing.
	// It bounds the otherwise-unbounded repair loop in Next: each redial
	// gets a fresh Patience, so a server that accepts subscriptions but
	// fails every delivery would spin forever without it.
	stalledSince time.Time
}

// SubscribeResume opens a self-healing subscription. opts.From seeds
// the position; after that the stream tracks its own.
func (c *Client) SubscribeResume(ctx context.Context, opts StreamSubscribeOptions) (*ResumableEventStream, error) {
	rs := &ResumableEventStream{
		c:        c,
		ctx:      ctx,
		opts:     opts,
		Patience: DefaultResumePatience,
		next:     opts.From,
	}
	if opts.AlertsSince != nil {
		rs.alertsSeen = *opts.AlertsSince
	}
	es, err := c.Subscribe(ctx, opts)
	if err != nil {
		return nil, err
	}
	rs.es = es
	return rs, nil
}

// Reconnects returns how many times the stream has repaired itself.
func (rs *ResumableEventStream) Reconnects() uint64 { return rs.reconnects }

// redial resubscribes from the tracked position, with backoff, until it
// succeeds or Patience runs out.
func (rs *ResumableEventStream) redial() error {
	rs.reconnects++
	opts := rs.opts
	opts.From = rs.next
	if rs.opts.AlertsSince != nil {
		since := rs.alertsSeen
		opts.AlertsSince = &since
	}
	deadline := time.Now().Add(rs.Patience)
	backoff := resumeBackoffMin
	for {
		if rs.pick != nil {
			if c := rs.pick(); c != nil {
				rs.c = c
			}
		}
		es, err := rs.c.Subscribe(rs.ctx, opts)
		if err == nil {
			rs.es = es
			return nil
		}
		if rs.ctx.Err() != nil || time.Now().After(deadline) {
			return err
		}
		select {
		case <-time.After(backoffJitter(backoff)):
		case <-rs.ctx.Done():
			return rs.ctx.Err()
		}
		if backoff *= 2; backoff > resumeBackoffMax {
			backoff = resumeBackoffMax
		}
	}
}

// noteStall records one repair with nothing delivered since the last
// progress and reports whether the no-progress window has exhausted
// Patience (at which point Next surfaces the failure instead of
// spinning forever).
func (rs *ResumableEventStream) noteStall() bool {
	if rs.stalledSince.IsZero() {
		rs.stalledSince = time.Now()
		return false
	}
	return time.Since(rs.stalledSince) > rs.Patience
}

// Next returns the next event, transparently repairing the feed on
// failure. Terminal KindError frames (eviction, compaction) are
// consumed — they carry the resume coordinate, which Next honors —
// and never surface to the caller. The one KindError that DOES
// surface is the alert-gap notice (Seq 0, AlertSeq > 0): it is
// informational, the subscription stays open, and hiding it would
// reintroduce the silent alert loss it reports. Repairs that make no
// progress — no event delivered, no resume coordinate advanced — stop
// after a Patience-long window and return the underlying failure.
func (rs *ResumableEventStream) Next() (stream.Event, error) {
	for {
		if rs.es == nil {
			if err := rs.redial(); err != nil {
				return stream.Event{}, err
			}
		}
		ev, err := rs.es.Next()
		if err != nil {
			// Transport failure or server-side end of feed (drain,
			// restart): resubscribe from the exact next sequence.
			rs.es.Close()
			rs.es = nil
			if rs.noteStall() {
				return stream.Event{}, fmt.Errorf("wire: resumable subscribe: no progress after %v: %w", rs.Patience, err)
			}
			continue
		}
		switch {
		case ev.Kind == stream.KindError && ev.Seq == 0 && ev.AlertSeq > 0:
			// Alert-gap notice (NOT a stream end): the bounded audit log
			// dropped alerts behind the replay cursor, and AlertSeq is the
			// oldest alert still retained. The subscription stays open —
			// redialing here would loop forever, because the redial's
			// unchanged alerts_since re-detects the same gap. Advance the
			// alert cursor to just before the oldest retained (replay
			// resumes there) and surface the notice so the caller KNOWS
			// alerts were lost — silent truncation is the bug this frame
			// exists to fix.
			if ev.AlertSeq-1 > rs.alertsSeen {
				rs.alertsSeen = ev.AlertSeq - 1
			}
			rs.stalledSince = time.Time{}
			return ev, nil
		case ev.Kind == stream.KindError:
			// In-band failure frame: eviction or compaction. Its Seq is
			// the sequence to resubscribe from (for compaction, the
			// oldest retained — skipping ahead is the documented
			// contract; for eviction, the next undelivered).
			rs.es.Close()
			rs.es = nil
			if ev.Seq > rs.next {
				rs.next = ev.Seq
				rs.stalledSince = time.Time{} // the coordinate moved: progress
			} else if rs.noteStall() {
				return stream.Event{}, fmt.Errorf("wire: resumable subscribe: no progress after %v: %s", rs.Patience, ev.Error)
			}
			continue
		case ev.Kind == stream.KindAlert:
			if ev.AlertSeq > rs.alertsSeen {
				rs.alertsSeen = ev.AlertSeq
			}
		default:
			// A record event: the next subscription starts just past it.
			if ev.Seq >= rs.next {
				rs.next = ev.Seq + 1
			}
		}
		rs.stalledSince = time.Time{}
		return ev, nil
	}
}

// Close detaches the subscription.
func (rs *ResumableEventStream) Close() error {
	if rs.es == nil {
		return nil
	}
	err := rs.es.Close()
	rs.es = nil
	return err
}
