// Client-side failover: the endpoint-list layer over the typed client
// and the follower source.
//
// MultiSource makes a follower failover-aware: `-replica-of` takes a
// comma-separated fleet list, and every (re)connect re-resolves which
// endpoint is the highest-term live primary. The probe itself carries
// the term gossip, so merely looking for the new primary is what fences
// the old one.
//
// FailoverClient does the same for API clients: it probes /v1/readyz
// across the fleet (role and term ride the X-Ltam-Role / X-Ltam-Term
// headers), points writes and streams at the current primary, retries
// idempotent reads on any reachable secondary, and re-points the
// resumable ingest/subscribe machinery at the new primary after a
// promotion.
package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// probeTimeout bounds one per-endpoint probe; a dead endpoint must cost
// one timeout, not a hung failover.
const probeTimeout = 2 * time.Second

// SplitEndpoints parses a comma-separated endpoint list, trimming
// whitespace and dropping empties.
func SplitEndpoints(list string) []string {
	var out []string
	for _, u := range strings.Split(list, ",") {
		if u = strings.TrimSpace(u); u != "" {
			out = append(out, strings.TrimRight(u, "/"))
		}
	}
	return out
}

// MultiSource is a core.ReplicaSource over a fleet of candidate
// primaries. Every Bootstrap and Tail re-resolves the target: each
// endpoint's replication status is probed (with the term gossip
// attached), and the live primary with the highest term wins. A stale
// primary that answers the probe is fenced by it; a stream that ends in
// a term change or a 410 lands back here and re-resolves.
type MultiSource struct {
	srcs []*ReplicationSource
	urls []string
	high *atomic.Uint64 // term gossip, shared by every per-endpoint source
	cur  atomic.Int32
}

// NewMultiSource builds the failover-aware source. The list order only
// matters as a tiebreak before the first successful probe.
func NewMultiSource(urls []string) (*MultiSource, error) {
	if len(urls) == 0 {
		return nil, errors.New("wire: failover source needs at least one endpoint")
	}
	high := new(atomic.Uint64)
	m := &MultiSource{urls: urls, high: high}
	for _, u := range urls {
		m.srcs = append(m.srcs, &ReplicationSource{c: NewClient(u), high: high})
	}
	return m, nil
}

// Endpoints returns the configured endpoint list.
func (m *MultiSource) Endpoints() []string { return m.urls }

// PrimaryURL returns the endpoint currently believed to be the primary.
func (m *MultiSource) PrimaryURL() string { return m.urls[m.cur.Load()] }

// pick probes the fleet and selects the live primary with the highest
// term, falling back to the current choice when nothing answers as a
// primary (the caller's retry loop will come back). Probing every
// endpoint — including ones believed dead or stale — is deliberate:
// the probe carries the term gossip that fences a resurrected stale
// primary.
func (m *MultiSource) pick(ctx context.Context) *ReplicationSource {
	if len(m.srcs) == 1 {
		return m.srcs[0]
	}
	best, bestTerm := -1, uint64(0)
	for i, src := range m.srcs {
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		st, err := src.Status(pctx)
		cancel()
		if err != nil || st.Role != "primary" {
			continue
		}
		if best < 0 || st.Term > bestTerm {
			best, bestTerm = i, st.Term
		}
	}
	if best >= 0 {
		m.cur.Store(int32(best))
	}
	return m.srcs[m.cur.Load()]
}

// Bootstrap resolves the current primary and fetches its full state.
func (m *MultiSource) Bootstrap() (io.ReadCloser, error) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout*time.Duration(len(m.srcs)))
	src := m.pick(ctx)
	cancel()
	return src.Bootstrap()
}

// PrimarySeq polls the current choice (no re-probe: this is the cheap
// per-second lag observation, and a failure just leaves staleness
// growing until the next Tail re-resolves).
func (m *MultiSource) PrimarySeq(ctx context.Context) (uint64, error) {
	return m.srcs[m.cur.Load()].PrimarySeq(ctx)
}

// Tail re-resolves the primary, then delegates. Any stream end returns
// to the Run loop, whose reconnect lands here again — so a term change
// or a compaction gap re-resolves within one backoff step.
func (m *MultiSource) Tail(ctx context.Context, from uint64, apply func(rec storage.Record) error) error {
	return m.pick(ctx).Tail(ctx, from, apply)
}

// SourceTerm reports the term of the current endpoint's last stream
// (core.ReplicaSource.SourceTerm).
func (m *MultiSource) SourceTerm() uint64 {
	return m.srcs[m.cur.Load()].SourceTerm()
}

// FailoverClient is a typed client over a fleet of endpoints: writes and
// streams follow the current primary, idempotent reads fall back to any
// reachable endpoint, and the resumable ingest/subscribe clients it
// hands out re-probe the fleet on every repair — so an application
// rides through a promotion without re-wiring anything.
type FailoverClient struct {
	clients []*Client
	urls    []string
	cur     atomic.Int32
	term    atomic.Uint64 // highest term seen; gossiped on every probe
}

// NewFailoverClient builds a failover client over the endpoint list
// (first endpoint is the initial primary guess).
func NewFailoverClient(urls ...string) (*FailoverClient, error) {
	if len(urls) == 0 {
		return nil, errors.New("wire: failover client needs at least one endpoint")
	}
	f := &FailoverClient{urls: urls}
	for _, u := range urls {
		f.clients = append(f.clients, NewClient(u))
	}
	return f, nil
}

// Endpoints returns the configured endpoint list.
func (f *FailoverClient) Endpoints() []string { return f.urls }

// Current returns the client for the endpoint currently believed to be
// the primary (no probe).
func (f *FailoverClient) Current() *Client { return f.clients[f.cur.Load()] }

// probeOne checks one endpoint's /v1/readyz, returning its role and
// term. The request carries the fleet's highest seen term — the gossip
// that fences a stale primary.
func (f *FailoverClient) probeOne(ctx context.Context, c *Client) (role string, term uint64, err error) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, "GET", c.BaseURL+"/v1/readyz", nil)
	if err != nil {
		return "", 0, err
	}
	if t := f.term.Load(); t > 0 {
		req.Header.Set(TermHeader, strconv.FormatUint(t, 10))
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return "", 0, err
	}
	resp.Body.Close()
	role = resp.Header.Get(RoleHeader)
	term = headerTerm(resp.Header)
	for {
		cur := f.term.Load()
		if term <= cur || f.term.CompareAndSwap(cur, term) {
			break
		}
	}
	if resp.StatusCode != http.StatusOK {
		return role, term, fmt.Errorf("wire: readyz %s: HTTP %d", c.BaseURL, resp.StatusCode)
	}
	return role, term, nil
}

// Probe re-resolves the current primary: every endpoint's readiness is
// checked and the READY primary with the highest term becomes current.
// It returns an error when no endpoint currently answers as a ready
// primary (mid-failover: retry after promoting).
func (f *FailoverClient) Probe(ctx context.Context) (*Client, error) {
	best, bestTerm := -1, uint64(0)
	var lastErr error
	for i, c := range f.clients {
		role, term, err := f.probeOne(ctx, c)
		if err != nil {
			lastErr = err
			continue
		}
		if role != "primary" {
			lastErr = fmt.Errorf("wire: %s is %s, not primary", c.BaseURL, role)
			continue
		}
		if best < 0 || term > bestTerm {
			best, bestTerm = i, term
		}
	}
	if best < 0 {
		if lastErr == nil {
			lastErr = errors.New("wire: no endpoint answered")
		}
		return nil, fmt.Errorf("wire: no ready primary among %d endpoints: %w", len(f.clients), lastErr)
	}
	f.cur.Store(int32(best))
	return f.clients[best], nil
}

// Read runs one idempotent read against the current endpoint, falling
// back to every other endpoint on failure — a query rides out a dead
// primary on a caught-up secondary. Do NOT use it for mutations: a
// timed-out write may have been applied, and replaying it elsewhere
// would double-apply.
func (f *FailoverClient) Read(fn func(*Client) error) error {
	cur := int(f.cur.Load())
	err := fn(f.clients[cur])
	if err == nil {
		return nil
	}
	for i, c := range f.clients {
		if i == cur {
			continue
		}
		if ferr := fn(c); ferr == nil {
			return nil
		}
	}
	return err
}

// Write runs one mutation against the current primary; on failure it
// re-probes the fleet once and retries on the (possibly new) primary.
// The caller owns idempotency across the retry (e.g. the resumable
// session dedupe, or naturally idempotent upserts).
func (f *FailoverClient) Write(ctx context.Context, fn func(*Client) error) error {
	err := fn(f.Current())
	if err == nil {
		return nil
	}
	c, perr := f.Probe(ctx)
	if perr != nil {
		return err
	}
	return fn(c)
}

// picker is the redial hook handed to the resumable clients: re-probe
// the fleet, return the new primary (nil = keep the previous endpoint
// and let the backoff retry).
func (f *FailoverClient) picker(ctx context.Context) func() *Client {
	return func() *Client {
		c, err := f.Probe(ctx)
		if err != nil {
			return nil
		}
		return c
	}
}

// StreamObserveResumable opens an exactly-once ingest session that
// follows the fleet's primary across failovers. Exactly-once degrades
// to at-least-once for the un-acked window when the failover loses the
// session state (DESIGN.md D15).
func (f *FailoverClient) StreamObserveResumable(ctx context.Context, wf WireFormat) (*ResumableObserver, error) {
	ro := &ResumableObserver{
		c:        f.Current(),
		wf:       wf,
		ctx:      ctx,
		session:  newSessionToken(),
		Patience: DefaultResumePatience,
		pick:     f.picker(ctx),
	}
	if err := ro.redial(); err != nil {
		return nil, err
	}
	return ro, nil
}

// SubscribeResume opens a gapless committed-event subscription that
// follows the fleet's primary across failovers.
func (f *FailoverClient) SubscribeResume(ctx context.Context, opts StreamSubscribeOptions) (*ResumableEventStream, error) {
	rs := &ResumableEventStream{
		c:        f.Current(),
		ctx:      ctx,
		opts:     opts,
		Patience: DefaultResumePatience,
		next:     opts.From,
		pick:     f.picker(ctx),
	}
	if opts.AlertsSince != nil {
		rs.alertsSeen = *opts.AlertsSince
	}
	es, err := rs.c.Subscribe(ctx, opts)
	if err != nil {
		// The configured first endpoint may be the dead one: re-probe
		// and retry once before giving up.
		c, perr := f.Probe(ctx)
		if perr != nil {
			return nil, err
		}
		rs.c = c
		if es, err = rs.c.Subscribe(ctx, opts); err != nil {
			return nil, err
		}
	}
	rs.es = es
	return rs, nil
}
