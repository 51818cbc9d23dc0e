package server

import (
	"bytes"
	"context"
	"log"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/wire"
)

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRefusedIngestStreamsKeepConnectionsSane: a refused full-duplex
// ingest upload, ended by the client once it reads the refusal, must not
// leave its connection to serve another request. net/http reads the
// unread body in its post-handler Close, and a body EOF there arms a
// background read that the next request's read on a kept-alive
// connection panics against ("invalid concurrent Body.Read call"), which
// once hung TestFailoverEndToEnd in httptest.Server.Close.
func TestRefusedIngestStreamsKeepConnectionsSane(t *testing.T) {
	sys, err := core.Open(core.Config{Graph: graph.NTUCampus()})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := New(sys)
	ts := httptest.NewUnstartedServer(srv)
	var logs syncBuffer
	ts.Config.ErrorLog = log.New(&logs, "", 0)
	ts.Start()
	defer ts.Close()
	srv.BeginDrain()

	c := wire.NewClient(ts.URL)
	for i := 0; i < 100; i++ {
		for _, wf := range []wire.WireFormat{wire.WireBinary, wire.WireNDJSON} {
			if _, err := c.StreamObserveWire(context.Background(), wf); err == nil || !strings.Contains(err.Error(), "draining") {
				t.Fatalf("stream %d opened on a draining server: %v", i, err)
			}
			if _, err := c.Stats(); err != nil {
				t.Fatalf("stats after refusal %d: %v", i, err)
			}
		}
	}
	if l := logs.String(); strings.Contains(l, "panic") {
		t.Fatalf("server panicked serving a connection:\n%.2000s", l)
	}
}
