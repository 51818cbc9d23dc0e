package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/profile"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/wire/frame"
)

// ackAt is one cumulative ack and when the client read it.
type ackAt struct {
	at    time.Time
	acked uint64
}

// ingestConn is one binary POST /v1/stream/observe connection driven
// frame by frame through internal/wire/frame, so every ack is seen the
// moment it arrives.
type ingestConn struct {
	pw  *io.PipeWriter
	bw  *bufio.Writer
	enc []byte

	acked atomic.Uint64
	wake  chan struct{} // capacity 1: an ack advanced acked
	done  chan struct{} // closed when the ack stream ends

	// Written by the ack reader, read after done is closed.
	log   []ackAt
	final stream.Ack
	err   error
}

func openIngest(ctx context.Context, hc *http.Client, base string) (*ingestConn, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/stream/observe", pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", frame.ContentType)
	resp, err := hc.Do(req)
	if err != nil {
		pw.Close()
		return nil, fmt.Errorf("open ingest stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		pw.Close()
		return nil, fmt.Errorf("open ingest stream: HTTP %d", resp.StatusCode)
	}
	c := &ingestConn{pw: pw, bw: bufio.NewWriterSize(pw, 32<<10), wake: make(chan struct{}, 1), done: make(chan struct{})}
	go c.readAcks(resp.Body)
	return c, nil
}

func (c *ingestConn) readAcks(body io.ReadCloser) {
	defer close(c.done)
	defer body.Close()
	rr := frame.NewRawReader(bufio.NewReader(body))
	defer rr.Release()
	for {
		raw, err := rr.Next()
		if err != nil {
			c.err = fmt.Errorf("ack stream ended without a final ack: %w", err)
			return
		}
		var a stream.Ack
		if err := frame.DecodeAck(raw, &a); err != nil {
			c.err = fmt.Errorf("bad ack: %w", err)
			return
		}
		c.log = append(c.log, ackAt{at: time.Now(), acked: a.Acked})
		c.acked.Store(a.Acked)
		select {
		case c.wake <- struct{}{}:
		default:
		}
		if a.Final {
			c.final = a
			if a.Error != "" {
				c.err = fmt.Errorf("final ack: %s", a.Error)
			}
			return
		}
	}
}

func (c *ingestConn) send(f *stream.ObserveFrame) error {
	out, err := frame.AppendObserve(c.enc[:0], f)
	if err != nil {
		return err
	}
	c.enc = out[:0]
	_, err = c.bw.Write(out)
	return err
}

// finish sends the End frame and waits for the final ack.
func (c *ingestConn) finish(ctx context.Context) (stream.Ack, error) {
	werr := c.send(&stream.ObserveFrame{End: true})
	if werr == nil {
		werr = c.bw.Flush()
	}
	if werr != nil {
		c.pw.CloseWithError(werr)
	} else {
		c.pw.Close()
	}
	select {
	case <-c.done:
	case <-ctx.Done():
		c.pw.CloseWithError(ctx.Err())
		<-c.done
		return stream.Ack{}, ctx.Err()
	}
	if werr != nil {
		return c.final, werr
	}
	return c.final, c.err
}

// abort cuts the connection and waits for the ack reader.
func (c *ingestConn) abort(err error) {
	c.pw.CloseWithError(err)
	<-c.done
}

// firehoseResult is the closed-loop ingest outcome.
type firehoseResult struct {
	elapsed time.Duration
	final   stream.Ack
}

// runFirehose sends frames as a closed loop: at most firehoseWindow
// frames are un-acked at any time. The elapsed time runs from the first
// send to the final durable ack.
func runFirehose(ctx context.Context, hc *http.Client, base string, frames []stream.ObserveFrame) (firehoseResult, error) {
	c, err := openIngest(ctx, hc, base)
	if err != nil {
		return firehoseResult{}, err
	}
	start := time.Now()
	for i := range frames {
		for uint64(i)-c.acked.Load() >= firehoseWindow {
			if err := c.bw.Flush(); err != nil {
				c.abort(err)
				return firehoseResult{}, err
			}
			select {
			case <-c.wake:
			case <-c.done:
				err := fmt.Errorf("ingest stream ended early: %v", c.err)
				c.abort(err)
				return firehoseResult{}, err
			case <-ctx.Done():
				c.abort(ctx.Err())
				return firehoseResult{}, ctx.Err()
			}
		}
		if err := c.send(&frames[i]); err != nil {
			c.abort(err)
			return firehoseResult{}, err
		}
	}
	final, err := c.finish(ctx)
	if err != nil {
		return firehoseResult{}, err
	}
	return firehoseResult{elapsed: time.Since(start), final: final}, nil
}

// pacedResult is the open-loop ingest outcome: per-frame due times and
// the ack log they are matched against.
type pacedResult struct {
	due      []time.Time
	acks     []ackAt
	final    stream.Ack
	lateness []float64 // ms past each tick's due time when it was sent
}

// runPaced sends pacedRate frames/s in 1 ms ticks, whatever the acks do.
// Each frame's latency is timed from its tick's due time.
func runPaced(ctx context.Context, hc *http.Client, base string, frames []stream.ObserveFrame) (pacedResult, error) {
	const perTick = pacedRate / 1000
	c, err := openIngest(ctx, hc, base)
	if err != nil {
		return pacedResult{}, err
	}
	res := pacedResult{due: make([]time.Time, len(frames))}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	start := time.Now().Add(time.Millisecond)
	for tick := 0; tick*perTick < len(frames); tick++ {
		due := start.Add(time.Duration(tick) * time.Millisecond)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C: // the schedule, not a wait on the system
			case <-ctx.Done():
				c.abort(ctx.Err())
				return pacedResult{}, ctx.Err()
			}
		}
		res.lateness = append(res.lateness, ms(time.Since(due)))
		for i := tick * perTick; i < (tick+1)*perTick && i < len(frames); i++ {
			res.due[i] = due
			if err := c.send(&frames[i]); err != nil {
				c.abort(err)
				return pacedResult{}, err
			}
		}
		if err := c.bw.Flush(); err != nil {
			c.abort(err)
			return pacedResult{}, err
		}
	}
	final, err := c.finish(ctx)
	if err != nil {
		return pacedResult{}, err
	}
	res.final, res.acks = final, c.log
	return res, nil
}

// ackLatencies returns, for every frame, the time from its due time to
// the first ack covering it, in ms.
func ackLatencies(due []time.Time, acks []ackAt) ([]float64, error) {
	out := make([]float64, len(due))
	j := 0
	for i := range due {
		for j < len(acks) && acks[j].acked < uint64(i+1) {
			j++
		}
		if j == len(acks) {
			return nil, fmt.Errorf("frame %d never acked", i)
		}
		out[i] = ms(acks[j].at.Sub(due[i]))
	}
	return out, nil
}

// subscriberBuffer is the server-side queue the subscriber asks for:
// about a second of paced events, so a scheduling stall of the
// in-process reader is absorbed instead of evicting it.
const subscriberBuffer = 16384

// subscriber reads the move events of one paced phase.
type subscriber struct {
	es     *wire.EventStream
	cancel context.CancelFunc // ends the feed request
	from   uint64
	want   int

	done chan struct{}
	seqs []uint64
	subs []profile.SubjectID
	recv []time.Time
	err  error
}

func subscribe(ctx context.Context, client *wire.Client, from uint64, want int) (*subscriber, error) {
	ctx, cancel := context.WithCancel(ctx)
	es, err := client.Subscribe(ctx, wire.StreamSubscribeOptions{
		From: from, Wire: wire.WireBinary, Buffer: subscriberBuffer,
		Kinds: []stream.EventKind{stream.KindEnter, stream.KindLeave},
	})
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	s := &subscriber{es: es, cancel: cancel, from: from, want: want, done: make(chan struct{})}
	go s.read()
	return s, nil
}

func (s *subscriber) read() {
	defer close(s.done)
	for len(s.seqs) < s.want {
		ev, err := s.es.Next()
		if err != nil {
			s.err = err
			return
		}
		if ev.Kind == stream.KindError {
			s.err = fmt.Errorf("feed error at seq %d: %s", ev.Seq, ev.Error)
			return
		}
		s.recv = append(s.recv, time.Now())
		s.seqs = append(s.seqs, ev.Seq)
		s.subs = append(s.subs, ev.Subject)
	}
}

// stop ends the feed request, waits for the reader and detaches.
func (s *subscriber) stop() {
	s.cancel()
	<-s.done
	s.es.Close()
}

// wait blocks until every wanted event arrived (or ctx ends), then
// detaches.
func (s *subscriber) wait(ctx context.Context) error {
	select {
	case <-s.done:
	case <-ctx.Done():
	}
	s.stop()
	if s.err != nil && !errors.Is(s.err, io.EOF) {
		return s.err
	}
	if len(s.seqs) < s.want {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("feed ended after %d of %d events", len(s.seqs), s.want)
	}
	return nil
}

// check verifies the feed against the frames: every move record exactly
// once, in sequence order, about the frame's subject.
func (s *subscriber) check(frames []stream.ObserveFrame) error {
	if len(s.seqs) != len(frames) {
		return fmt.Errorf("subscriber saw %d events for %d frames", len(s.seqs), len(frames))
	}
	for i, seq := range s.seqs {
		if seq != s.from+uint64(i) {
			return fmt.Errorf("event %d has seq %d, want %d", i, seq, s.from+uint64(i))
		}
		if s.subs[i] != frames[i].Subject {
			return fmt.Errorf("event seq %d is about %s, frame %d about %s", seq, s.subs[i], i, frames[i].Subject)
		}
	}
	return nil
}

// deliverLatencies returns each frame's due time → event receipt, ms.
func (s *subscriber) deliverLatencies(due []time.Time) []float64 {
	out := make([]float64, len(s.recv))
	for i, at := range s.recv {
		out[i] = ms(at.Sub(due[i]))
	}
	return out
}
