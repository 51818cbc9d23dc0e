// Group commit: an asynchronous committer that turns many small WAL
// appends into few large fsyncs.
//
// Callers enqueue records with Commit and receive a barrier channel that
// delivers exactly one error (nil on success) once their records are
// durably on disk. A dedicated committer goroutine drains the queue,
// writes everything it collected as one WAL Append — one frame sequence,
// one fsync — and then releases every waiter of the batch.
//
// Batching arises naturally from concurrency: while one fsync is in
// flight, new Commit calls pile up in the queue and are absorbed by the
// next batch. The committer never lingers for stragglers (no artificial
// latency, the same stance as PostgreSQL's commit_delay=0);
// DefaultMaxBatch bounds how many records a single fsync may cover.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// ErrCommitterClosed is returned to Commit calls issued after Close.
var ErrCommitterClosed = errors.New("storage: committer closed")

// ErrWALPoisoned is delivered to every commit barrier after a write or
// fsync failure has poisoned the committer. The failed batch itself gets
// the underlying error; everything after it gets this. The poisoning is
// permanent for the life of the committer: a failed fsync means the
// kernel may have dropped dirty pages while clearing the error state, so
// retrying the sync and seeing it "succeed" proves nothing about the
// earlier write (the fsyncgate lesson). The only safe recovery is to
// stop, scan the log from disk, and start over from what actually
// survived.
var ErrWALPoisoned = errors.New("storage: WAL poisoned by failed write or fsync")

// Committer bounds.
const (
	// DefaultMaxBatch caps the records one fsync may cover.
	DefaultMaxBatch = 1024
	// DefaultQueueLen is the enqueue buffer in groups; a full queue
	// applies backpressure to Commit.
	DefaultQueueLen = 4096
)

// group is one Commit call: its records plus its commit barrier. A
// Flush rides the queue as an empty group.
type group struct {
	recs []Record
	done chan error
}

// CommitterStats is a point-in-time snapshot of batching effectiveness.
type CommitterStats struct {
	// Batches is the number of fsync batches written; Records the total
	// records they covered. Records/Batches is the mean batch size — the
	// fsync amortization factor.
	Batches uint64 `json:"batches"`
	Records uint64 `json:"records"`
	// Poisoned reports that a write or fsync failed and the committer has
	// permanently stopped writing (see ErrWALPoisoned).
	Poisoned bool `json:"poisoned,omitempty"`
}

// Committer is the asynchronous group-commit front of a WAL. It is safe
// for concurrent use. Close drains the queue before returning.
type Committer struct {
	wal   *Log
	trace *obs.PipelineTrace

	ch     chan group
	loopWG sync.WaitGroup

	closeMu   sync.RWMutex
	closed    bool
	closeOnce sync.Once

	batches atomic.Uint64
	records atomic.Uint64
	lastErr atomic.Pointer[error]
}

// NewCommitter starts the committer goroutine over the durable log w.
// trace, when non-nil, receives the append/fsync/publish stage stamps of
// every record carrying a traced sequence (Record.Obs.Seq).
func NewCommitter(w *Log, trace *obs.PipelineTrace) *Committer {
	c := &Committer{
		wal:   w,
		trace: trace,
		ch:    make(chan group, DefaultQueueLen),
	}
	c.loopWG.Add(1)
	go c.run()
	return c
}

// Commit enqueues recs for the next batch and returns the commit barrier:
// the channel delivers one error once the records are durably written
// (nil) or the batch failed. An empty recs commits immediately. After
// Close, the barrier delivers ErrCommitterClosed.
//
// Callers that need WAL order to equal apply order must serialise their
// Commit calls themselves (core.System enqueues under its write lock).
func (c *Committer) Commit(recs ...Record) <-chan error {
	done := make(chan error, 1)
	if len(recs) == 0 {
		done <- nil
		return done
	}
	c.enqueue(group{recs: recs, done: done})
	return done
}

// Flush blocks until every group enqueued before the call is committed.
func (c *Committer) Flush() error {
	done := make(chan error, 1)
	c.enqueue(group{done: done}) // empty sentinel rides the FIFO
	return <-done
}

// enqueue queues g, or delivers ErrCommitterClosed to its barrier after
// Close.
func (c *Committer) enqueue(g group) {
	c.closeMu.RLock()
	defer c.closeMu.RUnlock()
	if c.closed {
		g.done <- ErrCommitterClosed
		return
	}
	c.ch <- g
}

// Close stops accepting new commits, drains and commits everything
// already enqueued, and waits for the committer goroutine to exit. It is
// idempotent. It does not close the underlying WAL. It returns the
// latched write error, if any: the poison that already failed every
// barrier since.
func (c *Committer) Close() error {
	c.closeOnce.Do(func() {
		c.closeMu.Lock()
		c.closed = true
		close(c.ch)
		c.closeMu.Unlock()
	})
	c.loopWG.Wait()
	return c.Err()
}

// Stats reports batching counters.
func (c *Committer) Stats() CommitterStats {
	return CommitterStats{
		Batches:  c.batches.Load(),
		Records:  c.records.Load(),
		Poisoned: c.Poisoned(),
	}
}

// Poisoned reports whether a write or fsync failure has permanently
// stopped the committer (see ErrWALPoisoned).
func (c *Committer) Poisoned() bool {
	return c.lastErr.Load() != nil
}

// Err returns the write failure that poisoned the committer (nil when
// every batch so far has been written).
func (c *Committer) Err() error {
	if p := c.lastErr.Load(); p != nil {
		return *p
	}
	return nil
}

// stamp records one pipeline stage for every traced record of a batch,
// all at the same instant (the batch shares one fsync, so its records
// share the stage clock).
func (c *Committer) stamp(recs []Record, st obs.Stage) {
	if c.trace == nil {
		return
	}
	now := obs.Now()
	for i := range recs {
		c.trace.Stamp(recs[i].Obs.Seq, st, now)
	}
}

// run is the committer goroutine: collect a batch, write it with one
// Append (one fsync), release the batch's waiters, repeat.
func (c *Committer) run() {
	defer c.loopWG.Done()
	for g := range c.ch {
		batch := []group{g}
		n := len(g.recs)
	collect:
		for n < DefaultMaxBatch {
			select {
			case g2, ok := <-c.ch:
				if !ok {
					break collect
				}
				batch = append(batch, g2)
				n += len(g2.recs)
			default:
				break collect
			}
		}

		recs := make([]Record, 0, n)
		for _, b := range batch {
			recs = append(recs, b.recs...)
		}
		// The first write failure latches and the committer stops
		// writing. Appending after a dropped batch would leave the WAL
		// with a hole, so once a batch is lost everything behind it is
		// dropped too: the survivors on disk are always a PREFIX of the
		// sequence handed to the committer. And a failed fsync is never
		// retried (fsyncgate): the kernel may have discarded the dirty
		// pages while clearing its error bit, so a "successful" retry
		// proves nothing. The in-flight barrier gets the underlying
		// error, every later barrier ErrWALPoisoned.
		var err error
		if p := c.lastErr.Load(); p != nil {
			err = fmt.Errorf("%w: %v", ErrWALPoisoned, *p)
		}
		if err == nil {
			c.stamp(recs, obs.StageAppend)
			err = c.wal.Append(recs...)
		}
		if err == nil && n > 0 {
			c.batches.Add(1)
			c.records.Add(uint64(n))
		} else if err != nil {
			c.lastErr.Store(&err)
		}
		if err == nil {
			// Fsync first, then publish: the publish stamp marks the
			// instant the durable commit is about to be released to its
			// barrier waiters, so it always precedes the bus delivery the
			// waiters' commit notification triggers.
			c.stamp(recs, obs.StageFsync)
			c.stamp(recs, obs.StagePublish)
		}
		for _, b := range batch {
			b.done <- err
		}
	}
}
