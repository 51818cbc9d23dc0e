// Streaming ingest: one long-lived connection replaces thousands of
// HTTP round-trips, and ONE shared chunker replaces per-connection
// chunkers — N concurrent connections feed a single gather loop that
// folds their queued readings into combined ObserveBatch calls, so the
// write-lock acquisition and the WAL group (one fsync) amortize across
// connections the same way the group committer amortizes fsyncs across
// writers.
//
// Per-connection anatomy:
//
//	FrameReader ──reader goroutine──▶ frames chan ──┐
//	                                                ├─▶ shared chunker ─▶ ObserveBatch
//	AckWriter  ◀──writer goroutine◀── cumulative Ack┘
//
// The chunker gathers round-robin — each gather round starts at the
// next connection, so a firehose connection cannot starve a trickle —
// and records which span of the combined batch belongs to which
// connection. After the batch's commit barrier it folds each span's
// outcomes into that connection's cumulative Ack (carrying the durable
// TotalSeq) and wakes its writer; a session connection's acks carry the
// session's outcome totals instead, so they stay exact across
// reconnects. Acks coalesce: a writer that falls behind delivers only
// the latest cumulative ack, which by construction covers every ack it
// skipped.
//
// Framing is crash-oriented by construction: a frame is applied if and
// only if it arrived complete (see codec.go). A connection cut mid-frame
// drops exactly the torn suffix; everything before it is flushed, acked
// and — because ObserveBatch's barrier acks after the shared fsync —
// durable. The torn-stream tests assert this at every byte offset, in
// both codecs, including two connections sharing one chunker.
package stream

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/obs"
)

// ErrDraining is the terminal ack error of connections ended by a
// graceful drain: everything gathered before the drain is applied,
// acked and durable; the client should reconnect (and, with a session,
// resume from Ack.Resume) once the server is back.
var ErrDraining = errors.New("stream: server draining")

// Ingest defaults.
const (
	DefaultMaxChunk = 1024
	// DefaultQueueLen is the decoded-frame buffer between each connection
	// reader and the shared chunker; a full queue applies backpressure to
	// that connection.
	DefaultQueueLen = 4096
)

// IngestTarget is what the ingestor drives: core.System satisfies it.
type IngestTarget interface {
	// ObserveBatch applies one chunk (one critical section, one WAL
	// group); the returned error is the batch durability/rejection error.
	ObserveBatch(readings []core.Reading) ([]core.ObserveOutcome, error)
	// ReplicationInfo supplies the durable record sequence for acks.
	ReplicationInfo() core.ReplicationInfo
}

// IngestConfig tunes the chunking policy. The zero value selects the
// defaults. A chunk never lingers for more frames: it is applied as soon
// as the queues momentarily drain, so batching comes from frames arriving
// during the previous chunk's fsync — the same natural batching stance as
// the group committer's commit_delay=0.
type IngestConfig struct {
	// MaxChunk caps the readings one ObserveBatch call (one fsync) may
	// cover (<= 0 selects DefaultMaxChunk).
	MaxChunk int
}

func (c IngestConfig) normalized() IngestConfig {
	if c.MaxChunk <= 0 {
		c.MaxChunk = DefaultMaxChunk
	}
	return c
}

// IngestStats is a point-in-time snapshot of the ingest counters.
type IngestStats struct {
	// Conns is the number of live ingest connections; TotalConns counts
	// every connection ever accepted.
	Conns      int64  `json:"conns"`
	TotalConns uint64 `json:"total_conns"`
	// Frames counts observation frames applied; Chunks the ObserveBatch
	// calls they were folded into — Frames/Chunks is the round-trip
	// amortization factor, and with concurrent connections one chunk may
	// span several of them.
	Frames uint64 `json:"frames"`
	Chunks uint64 `json:"chunks"`
	// Granted/Denied/Moved/Errors aggregate the per-reading outcomes.
	Granted uint64 `json:"granted"`
	Denied  uint64 `json:"denied"`
	Moved   uint64 `json:"moved"`
	Errors  uint64 `json:"errors,omitempty"`
	// Sessions is the live resume-session count and SessionEvictions the
	// sessions reclaimed so far (idle-TTL sweeps plus overflow). Filled by
	// the server from its SessionRegistry, not by IngestCounters.
	Sessions         int64  `json:"sessions,omitempty"`
	SessionEvictions uint64 `json:"session_evictions,omitempty"`
}

// IngestCounters aggregates ingest activity across connections (the
// server holds one for /v1/stats). All methods are safe for concurrent
// use; a nil receiver is a no-op sink.
type IngestCounters struct {
	conns                        atomic.Int64
	totalConns, frames, chunks   atomic.Uint64
	granted, denied, moved, errs atomic.Uint64
}

// Snapshot returns the current counter values.
func (c *IngestCounters) Snapshot() IngestStats {
	if c == nil {
		return IngestStats{}
	}
	return IngestStats{
		Conns:      c.conns.Load(),
		TotalConns: c.totalConns.Load(),
		Frames:     c.frames.Load(),
		Chunks:     c.chunks.Load(),
		Granted:    c.granted.Load(),
		Denied:     c.denied.Load(),
		Moved:      c.moved.Load(),
		Errors:     c.errs.Load(),
	}
}

// Ingestor runs ingest connections against one target. The exported
// fields configure it; the rest is the shared chunker's state, built
// lazily when the first connection registers — a struct literal is a
// ready-to-use Ingestor. The server holds ONE ingestor for all of its
// connections; each Run/RunFramed call registers one connection with
// the shared chunker.
type Ingestor struct {
	Target IngestTarget
	Config IngestConfig
	// Counters, when set, aggregates activity across this ingestor's
	// connections.
	Counters *IngestCounters

	mu      sync.Mutex
	conns   []*ingestConn
	rr      int // round-robin gather start, rotated every round
	running bool
	wake    chan struct{} // 1-buffered: frames queued or a reader finished
	// drainDone is closed when the chunker retires while a Drain waits.
	drainDone chan struct{}
	draining  atomic.Bool
}

// connFrame is one decoded reading plus its session frame sequence
// (zero without a session).
type connFrame struct {
	rd  core.Reading
	seq uint64
}

// ingestConn is one registered connection's chunker-facing state.
type ingestConn struct {
	// frames carries decoded readings from the connection's reader
	// goroutine to the shared chunker; the reader closes it at end of
	// input (End frame, clean EOF, or torn tail).
	frames chan connFrame
	// sess is the resume session, nil for sessionless connections.
	sess *IngestSession

	mu   sync.Mutex
	cum  Ack   // cumulative ack, folded by the chunker
	err  error // terminal error (batch failure), set before done closes
	dead bool  // ack delivery failed: discard instead of applying

	ackCh chan struct{} // 1-buffered: cum advanced, deliver it
	done  chan struct{} // closed by the chunker after the final fold

	// Chunker-local (never touched by other goroutines):
	srcClosed bool // frames observed closed and drained
	finalized bool
}

func (c *ingestConn) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// signal wakes the chunker (coalescing: a pending token is enough).
func (ing *Ingestor) signal() {
	select {
	case ing.wake <- struct{}{}:
	default:
	}
}

// register adds a connection, booting the shared chunker if idle.
func (ing *Ingestor) register(c *ingestConn) {
	ing.mu.Lock()
	if ing.wake == nil {
		ing.wake = make(chan struct{}, 1)
	}
	ing.conns = append(ing.conns, c)
	if !ing.running {
		ing.running = true
		go ing.chunker(ing.Config.normalized())
	}
	ing.mu.Unlock()
	ing.signal()
}

// Run services one NDJSON ingest connection: decode frames from r,
// hand them to the shared chunker, ack to w. See RunFramed for the
// lifecycle contract.
func (ing *Ingestor) Run(r io.Reader, w io.Writer) error {
	return ing.RunFramed(NewNDJSONFrameReader(r), NewNDJSONAckWriter(w))
}

// RunFramed services one ingest connection over an arbitrary codec. It
// returns when the stream ends — cleanly (an End frame), torn (EOF or a
// partial frame: the pending readings are still applied and acked, so
// the ack stream always states exactly what survived), or on a terminal
// target error (reported to the client in a final Ack and returned).
// Per-reading application errors are counted in the acks and do not end
// the stream.
func (ing *Ingestor) RunFramed(fr FrameReader, aw AckWriter) error {
	return ing.RunFramedSession(fr, aw, nil)
}

// RunFramedSession is RunFramed with an optional resume session. A
// non-nil sess attaches the connection to the session (stealing it from
// a dead predecessor) and writes the hello ack — Resume = the session's
// durable frame high-water — BEFORE reading any frame, so a resuming
// client learns what to re-send first. Frames then carry their session
// sequence and anything the session already gathered is deduplicated.
func (ing *Ingestor) RunFramedSession(fr FrameReader, aw AckWriter, sess *IngestSession) error {
	if ing.draining.Load() {
		a := Ack{Final: true, Error: ErrDraining.Error()}
		if sess != nil {
			sess.stamp(&a)
		}
		_ = aw.WriteAck(&a)
		return ErrDraining
	}
	if ing.Counters != nil {
		ing.Counters.conns.Add(1)
		ing.Counters.totalConns.Add(1)
		defer ing.Counters.conns.Add(-1)
	}

	c := &ingestConn{
		frames: make(chan connFrame, DefaultQueueLen),
		sess:   sess,
		ackCh:  make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	if sess != nil {
		sess.attach(c)
		defer sess.detach(c)
		hello := Ack{Seq: ing.Target.ReplicationInfo().TotalSeq}
		sess.stamp(&hello)
		if err := aw.WriteAck(&hello); err != nil {
			return err
		}
	}
	ing.register(c)

	// The reader goroutine owns the connection's read side: it decodes
	// frames into the connection's queue and stops at the first torn or
	// End frame. Decoupling decode from apply is what lets frames pile
	// up while a chunk's fsync is in flight — the natural batching.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		defer func() {
			close(c.frames)
			ing.signal()
		}()
		var f ObserveFrame
		for {
			if err := fr.ReadFrame(&f); err != nil {
				return // clean or torn end: the complete prefix stands
			}
			if f.End {
				return
			}
			c.frames <- connFrame{
				rd: core.Reading{
					Time: f.Time, Subject: f.Subject,
					At:     geometry.Point{X: f.X, Y: f.Y},
					Stamps: obs.FrameStamps{Decode: obs.Now()},
				},
				seq: f.Seq,
			}
			ing.signal()
		}
	}()
	// Never leave the reader goroutine behind: every exit path unblocks
	// any pending channel send and waits for the reader to let go of the
	// connection, so an HTTP handler returning can never race a leftover
	// body read against the server's connection reuse. (The chunker may
	// drain concurrently; a closed-and-drained channel satisfies both.)
	defer func() {
		go func() {
			for range c.frames {
			}
		}()
		<-readerDone
	}()

	// The writer loop: deliver each advance of the cumulative ack. The
	// chunker's final fold closes done; the terminal ack is written
	// exactly once, there (best effort — the peer of a torn stream is
	// usually gone).
	var werr error
	for {
		select {
		case <-c.ackCh:
			c.mu.Lock()
			a := c.cum
			c.mu.Unlock()
			if a.Final || werr != nil {
				continue // the done path owns the terminal ack
			}
			if err := aw.WriteAck(&a); err != nil {
				// The client cannot hear us: stop acking and have the
				// chunker discard (not apply) everything still queued.
				werr = err
				c.mu.Lock()
				c.dead = true
				c.mu.Unlock()
			}
		case <-c.done:
			c.mu.Lock()
			a, terr := c.cum, c.err
			c.mu.Unlock()
			if werr == nil {
				_ = aw.WriteAck(&a)
			}
			if terr != nil {
				return terr
			}
			return werr
		}
	}
}

// chunker is the shared gather/apply loop: one per Ingestor, running
// while any connection is registered.
func (ing *Ingestor) chunker(cfg IngestConfig) {
	type span struct {
		c *ingestConn
		n int
		// last is the highest session frame sequence gathered into this
		// span; skip the highest deduplicated (already-gathered) sequence
		// observed while building it. Both zero for sessionless frames.
		last, skip uint64
	}
	batch := make([]core.Reading, 0, cfg.MaxChunk)
	var spans []span

	// gather pulls queued readings into batch, round-robin across the
	// registered connections, recording which span belongs to whom and
	// which connections finished their input. Returns false when no
	// connection remains (the chunker retires). Called with ing.mu NOT
	// held.
	gather := func() bool {
		ing.mu.Lock()
		defer ing.mu.Unlock()
		n := len(ing.conns)
		if n == 0 {
			ing.retireLocked()
			return false
		}
		ing.rr++
		start := ing.rr % n
		for i := 0; i < n && len(batch) < cfg.MaxChunk; i++ {
			c := ing.conns[(start+i)%n]
			if c.srcClosed {
				continue
			}
			cnt, discard := 0, c.isDead()
			var last, skip uint64
		drain:
			for len(batch) < cfg.MaxChunk {
				select {
				case fr, ok := <-c.frames:
					if !ok {
						c.srcClosed = true
						break drain
					}
					if discard {
						continue
					}
					if c.sess != nil && fr.seq != 0 {
						if fr.seq <= c.sess.hw.Load() {
							// A resume overlap: an earlier connection's
							// batch already gathered (and, the chunker
							// being serial, already applied) this frame.
							// Record it so the ack still covers it.
							if fr.seq > skip {
								skip = fr.seq
							}
							continue
						}
						c.sess.hw.Store(fr.seq)
						last = fr.seq
					}
					batch = append(batch, fr.rd)
					cnt++
				default:
					break drain
				}
			}
			if cnt > 0 || skip > 0 {
				if len(spans) > 0 && spans[len(spans)-1].c == c {
					sp := &spans[len(spans)-1]
					sp.n += cnt
					if last > sp.last {
						sp.last = last
					}
					if skip > sp.skip {
						sp.skip = skip
					}
				} else {
					spans = append(spans, span{c, cnt, last, skip})
				}
			}
		}
		return true
	}

	for {
		// Consume a pending wake token before gathering: anything that
		// arrives after this point leaves a fresh token, so the blocking
		// wait below can never miss work.
		select {
		case <-ing.wake:
		default:
		}
		batch, spans = batch[:0], spans[:0]
		if !gather() {
			return
		}
		worked := len(batch) > 0 || len(spans) > 0
		if len(batch) > 0 || len(spans) > 0 {
			var outcomes []core.ObserveOutcome
			var err error
			if len(batch) > 0 {
				// One gather stamp covers the chunk: its readings leave
				// their queues for the write lock together.
				now := obs.Now()
				for i := range batch {
					batch[i].Stamps.Gather = now
				}
				outcomes, err = ing.Target.ObserveBatch(batch)
			}
			// A batch may be empty while spans exist: a resume overlap
			// deduplicated every gathered frame. The fold still runs so
			// the ack's Resume advances over the deduplicated suffix —
			// safe because the chunker is serial, so whatever batch first
			// gathered those frames has already committed and folded.
			if err != nil {
				// Terminal: the batch was rejected (or applied in memory
				// but not durably acknowledged). Every connection with a
				// span in it gets the error as its final ack, and every
				// session involved rolls its gather high-water back to the
				// durable mark — the frames gathered into this failed batch
				// were never durably applied, so when the client resumes and
				// re-sends them they must be re-gathered, not deduplicated
				// as already applied. (hw is chunker-local, and this IS the
				// chunker goroutine, so the write is race-free.)
				for _, sp := range spans {
					if sp.c.sess != nil {
						sp.c.sess.hw.Store(sp.c.sess.Applied())
					}
					ing.finalize(sp.c, err)
				}
			} else {
				seq := ing.Target.ReplicationInfo().TotalSeq
				off := 0
				for _, sp := range spans {
					outs := outcomes[off : off+sp.n]
					if sp.c.sess != nil {
						sp.c.sess.fold(max(sp.last, sp.skip), outs)
					}
					sp.c.mu.Lock()
					if sp.c.sess != nil {
						sp.c.sess.stamp(&sp.c.cum)
					} else {
						foldOutcomes(&sp.c.cum, outs)
					}
					sp.c.cum.Acked += uint64(sp.n)
					sp.c.cum.Seq = seq
					sp.c.mu.Unlock()
					select {
					case sp.c.ackCh <- struct{}{}:
					default:
					}
					off += sp.n
				}
				if ing.Counters != nil && len(batch) > 0 {
					// Tallied per fold, not per connection: each applied
					// frame's outcome counts exactly once, however many
					// connections its session spans.
					var t Ack
					foldOutcomes(&t, outcomes)
					ing.Counters.frames.Add(uint64(len(batch)))
					ing.Counters.chunks.Add(1)
					ing.Counters.granted.Add(t.Granted)
					ing.Counters.denied.Add(t.Denied)
					ing.Counters.moved.Add(t.Moved)
					ing.Counters.errs.Add(t.Errors)
				}
			}
		}

		// Finalize every connection whose input ended and whose last
		// frames (if any) were in the batch just folded.
		ing.mu.Lock()
		var finished []*ingestConn
		live := ing.conns[:0]
		for _, c := range ing.conns {
			if c.srcClosed && !c.finalized {
				c.finalized = true
				finished = append(finished, c)
			} else if !c.finalized {
				live = append(live, c)
			}
		}
		for i := len(live); i < len(ing.conns); i++ {
			ing.conns[i] = nil
		}
		ing.conns = live
		ing.mu.Unlock()
		for _, c := range finished {
			ing.finalize(c, nil)
			worked = true
		}

		if ing.draining.Load() && len(batch) == 0 {
			// Graceful drain: everything queued at drain time has been
			// gathered, applied and folded (the empty gather proves it).
			// Seal every remaining connection with ErrDraining — its
			// terminal ack carries the durable Seq and the session Resume,
			// exactly what a client needs to reconnect later — and retire.
			ing.mu.Lock()
			remaining := ing.conns
			ing.conns = nil
			ing.retireLocked()
			ing.mu.Unlock()
			for _, c := range remaining {
				if !c.finalized {
					c.finalized = true
					ing.finalize(c, ErrDraining)
				}
				// No chunker gathers these queues anymore: drain-and-discard
				// each until its reader closes it, so a reader mid-send on a
				// full queue can never stay blocked behind a retired chunker.
				go func(frames chan connFrame) {
					for range frames {
					}
				}(c.frames)
			}
			return
		}

		if !worked {
			// Nothing queued, nothing finished: sleep until a reader
			// signals. The token protocol above guarantees any frame
			// enqueued since the last gather left a token here.
			<-ing.wake
		}
	}
}

// retireLocked marks the chunker stopped and releases any Drain waiter.
// Caller holds ing.mu.
func (ing *Ingestor) retireLocked() {
	ing.running = false
	if ing.drainDone != nil {
		close(ing.drainDone)
		ing.drainDone = nil
	}
}

// Drain gracefully stops streaming ingest: new connections are refused
// with a terminal ErrDraining ack, everything already queued is
// gathered, applied and folded, every live connection receives a final
// ack (ErrDraining plus its durable Seq and session Resume coordinate),
// and Drain returns once the shared chunker has retired. Idempotent,
// and a no-op when the chunker is idle.
func (ing *Ingestor) Drain() {
	ing.draining.Store(true)
	ing.mu.Lock()
	if !ing.running {
		ing.mu.Unlock()
		return
	}
	if ing.drainDone == nil {
		ing.drainDone = make(chan struct{})
	}
	done := ing.drainDone
	ing.mu.Unlock()
	ing.signal()
	<-done
}

// finalize seals a connection's cumulative ack — the terminal Seq is the
// durable frontier even for a connection that shipped no frames, so an
// idle client still gets a resume coordinate — and releases the writer.
// Safe to call twice (batch failure then the closed-source sweep): only
// the first call acts.
func (ing *Ingestor) finalize(c *ingestConn, err error) {
	c.mu.Lock()
	if c.cum.Final {
		c.mu.Unlock()
		return
	}
	c.cum.Final = true
	if c.sess != nil {
		// The terminal ack always states the session's durable frame
		// high-water and totals — even for a connection whose every frame
		// was a deduplicated resend (no fold ever touched its cum), the
		// client must learn where to resume from.
		c.sess.stamp(&c.cum)
	}
	if err != nil {
		c.err = err
		c.cum.Error = err.Error()
		// Anything still queued on a failed connection is discarded,
		// not applied: the client was just told its stream is over.
		c.dead = true
	} else {
		c.cum.Seq = ing.Target.ReplicationInfo().TotalSeq
	}
	c.mu.Unlock()
	close(c.done)
}

// foldOutcomes accumulates one span's per-reading outcomes into a
// connection's cumulative ack.
func foldOutcomes(cum *Ack, outcomes []core.ObserveOutcome) {
	for _, o := range outcomes {
		switch {
		case o.Err != nil:
			cum.Errors++
			cum.LastError = o.Err.Error()
		case o.Entered && o.Decision.Granted:
			cum.Moved++
			cum.Granted++
		case o.Entered:
			cum.Moved++
			cum.Denied++
		case o.Moved:
			// An exit: a movement, but not an entry decision — it
			// counts in Moved only.
			cum.Moved++
		}
	}
}
