package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/wire"
)

// node is the system under test: a durable core.System behind
// server.Server on a loopback listener with an OS-assigned port.
type node struct {
	cfg    core.Config
	sys    *core.System
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
	timing *timingHandler // nil in untraced rounds
}

func openNode(cfg core.Config) (*node, error) {
	sys, err := core.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("open system: %w", err)
	}
	return &node{cfg: cfg, sys: sys}, nil
}

// serve starts the HTTP server; timing wraps it in a handler clock.
func (n *node) serve(timing bool) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	n.srv = server.New(n.sys)
	var h http.Handler = n.srv
	n.timing = nil
	if timing {
		n.timing = &timingHandler{next: n.srv, samples: map[string][]float64{}}
		h = n.timing
	}
	n.hs = &http.Server{Handler: h}
	n.url = "http://" + ln.Addr().String()
	n.served = make(chan error, 1)
	go func() { n.served <- n.hs.Serve(ln) }()
	return nil
}

// stopServing closes the listener and every connection and waits for
// the serve loop to return.
func (n *node) stopServing() error {
	if n.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if err != nil {
		err = n.hs.Close()
	}
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	n.srv.Close()
	n.hs = nil
	return err
}

func (n *node) close() error {
	err := n.stopServing()
	if cerr := n.sys.Close(); err == nil {
		err = cerr
	}
	return err
}

// reopen closes the system and opens it again on the same data
// directory, returning the time the reopen (log replay) took.
func (n *node) reopen(timing bool, beforeOpen func() error) (time.Duration, error) {
	if err := n.close(); err != nil {
		return 0, fmt.Errorf("close primary: %w", err)
	}
	if beforeOpen != nil {
		if err := beforeOpen(); err != nil {
			return 0, err
		}
	}
	gcQuiet()
	start := time.Now()
	sys, err := core.Open(n.cfg)
	took := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("reopen primary: %w", err)
	}
	n.sys = sys
	return took, n.serve(timing)
}

// newHTTPClient returns a client limited to two connections to the
// node, the benchmark's whole connection budget.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// timingHandler records how long server.Server spends on each of the
// routes the benchmark reports, per request, in µs.
type timingHandler struct {
	next    http.Handler
	mu      sync.Mutex
	samples map[string][]float64
}

// routeKeys names the routes whose handler time is reported.
var routeKeys = map[string]string{
	"POST /v1/request":             "request",
	"GET /v1/queries/inaccessible": "inaccessible",
	"POST /v1/authorizations":      "grant",
	"POST /v1/enter":               "enter",
}

func (t *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key := routeKeys[r.Method+" "+r.URL.Path]
	if key == "" {
		t.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.next.ServeHTTP(w, r)
	d := us(time.Since(start))
	t.mu.Lock()
	t.samples[key] = append(t.samples[key], d)
	t.mu.Unlock()
}

func (t *timingHandler) take(key string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[key]...)
}

// timedSource is the follower's replication source with each apply
// callback timed (traced rounds only).
type timedSource struct {
	*wire.ReplicationSource
	mu      sync.Mutex
	applyUs []float64
}

func (s *timedSource) Tail(ctx context.Context, from uint64, apply func(storage.Record) error) error {
	return s.ReplicationSource.Tail(ctx, from, func(rec storage.Record) error {
		start := time.Now()
		err := apply(rec)
		d := us(time.Since(start))
		s.mu.Lock()
		s.applyUs = append(s.applyUs, d)
		s.mu.Unlock()
		return err
	})
}
