// Command ltamd runs the LTAM central control station as an HTTP daemon:
// the Fig. 3 architecture with the authorization, movement and profile
// databases, the access control engine, the query engine, and durable
// storage, exposed over a JSON API (see internal/wire for the client).
//
// Usage:
//
//	ltamd [-addr :8525] [-data /var/lib/ltam] [-graph site.json]
//	      [-bounds bounds.json]
//
// Without -graph the NTU campus of the paper's Fig. 2 is served, which is
// handy for demos; -data enables write-ahead logging and snapshots.
// -bounds loads physical room boundaries (a JSON array of
// {"Location": ..., "Shape": [{"X":..,"Y":..}, ...]}), enabling the
// positioning front-end and the batched ingest endpoint
// POST /v1/observe/batch.
//
// With -replica-of the daemon boots as a read-only follower of another
// ltamd: it bootstraps from the primary's state snapshot, tails the
// primary's WAL over GET /v1/replication/wal, and serves the full query
// surface (mutations return 403). A follower that falls behind a WAL
// compaction self-heals: it re-bootstraps from the primary in place,
// serving queries throughout. With -follow-lag-max the follower also
// arms a read barrier: queries return HTTP 503 (with a Retry-After)
// whenever replication staleness exceeds the bound, so stale answers
// are refused instead of served.
//
// -replica-of accepts a comma-separated fleet list: on every
// (re)connect the follower probes the list and tails whichever live
// endpoint answers as the highest-term primary, so it re-targets by
// itself after a failover. Giving a follower -data arms POST
// /v1/admin/promote (ltamctl promote): the follower can then be
// converted in place into the new primary, writing its new lineage
// (first snapshot + fresh WAL) into that directory.
//
// A durable primary additionally serves the streaming endpoints: POST
// /v1/stream/observe (long-lived NDJSON ingest with durable acks — see
// ltamsim -stream) and GET /v1/stream/events (the committed-event feed
// — see ltamctl watch).
//
// A follower started with -relay CASCADES: it persists every applied
// record into <dir>/relay.log and re-serves GET /v1/replication/wal,
// GET /v1/replication/snapshot and GET /v1/stream/events from it — so a
// second-tier follower or a fleet of event subscribers can point at
// this node and add zero load on the primary. Promotion terms propagate
// through the extra hop, so fencing works across the whole tree.
// Subscribers on any feed-serving node can keep a DURABLE CURSOR
// (cursor=<token> + POST /v1/stream/ack, persisted in cursors.json next
// to the node's log): a restarted subscriber resumes exactly where its
// last ack left off without remembering sequence numbers itself (see
// ltamctl watch -cursor).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wire"
)

// drainTimeout bounds the graceful phase of shutdown: after SIGTERM the
// daemon stops accepting, drains the streaming plane (final acks,
// subscriber resume frames), and gives in-flight requests this long
// before cutting the remaining connections.
const drainTimeout = 10 * time.Second

// logger tags every daemon line; -log-level gates what is emitted.
var logger = obs.NewLogger("ltamd")

// serveUntilSignal runs the HTTP server until SIGTERM/SIGINT, then
// executes the graceful-drain sequence:
//
//  1. srv.BeginDrain() — readyz flips unready (load balancers stop
//     routing here), new streaming connections are refused, the shared
//     ingest chunker flushes and emits final acks, subscriber feeds end
//     with in-band resume-seq frames.
//  2. http.Server.Shutdown — stop accepting, wait (bounded) for
//     request/response handlers to finish.
//  3. http.Server.Close — cut whatever is left (streaming handlers
//     whose clients never hang up block in body reads; their final acks
//     were already written in step 1).
//
// It returns once the listener is fully down; the caller then closes
// the System, flushing the committer so the WAL is clean on disk.
func serveUntilSignal(addr string, srv *server.Server) {
	httpSrv := &http.Server{Addr: addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		logger.Fatalf("%v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately via the default handler
	logger.Infof("signal received: draining")
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warnf("shutdown: %v", err)
	}
	_ = httpSrv.Close()
	logger.Infof("drained")
}

func main() {
	addr := flag.String("addr", ":8525", "listen address")
	data := flag.String("data", "", "data directory (enables durability)")
	graphPath := flag.String("graph", "", "location graph JSON (default: the paper's NTU campus)")
	boundsPath := flag.String("bounds", "", "room boundary JSON (enables /v1/observe/batch)")
	replicaOf := flag.String("replica-of", "", "primary base URL(s), comma-separated (e.g. http://a:8525,http://b:8525): boot as a read-only replica that follows the highest-term live primary (the upstream may itself be a -relay follower)")
	followLagMax := flag.Duration("follow-lag-max", 0, "replica read barrier: 503 queries when replication staleness exceeds this (0 = serve regardless)")
	captureTimeout := flag.Duration("capture-timeout", 0, "bound on bootstrap-state capture and status refresh (0 = 500ms default)")
	relayDir := flag.String("relay", "", "replica only: cascade directory — persist applied records into <dir>/relay.log and re-serve /v1/replication/wal, /v1/replication/snapshot and /v1/stream/events to a downstream tier")
	logLevel := flag.String("log-level", "info", "minimum log level (debug|info|warn|error)")
	flag.Parse()

	lv, err := obs.ParseLevel(*logLevel)
	if err != nil {
		logger.Fatalf("%v", err)
	}
	obs.SetLevel(lv)

	if *replicaOf != "" {
		runReplica(*addr, *replicaOf, *data, *relayDir, *followLagMax, *captureTimeout)
		return
	}
	if *relayDir != "" {
		logger.Fatalf("-relay requires -replica-of: a primary already serves the replication surface from its WAL")
	}

	var bounds []geometry.Boundary
	if *boundsPath != "" {
		data, err := os.ReadFile(*boundsPath)
		if err != nil {
			logger.Fatalf("read bounds: %v", err)
		}
		if err := json.Unmarshal(data, &bounds); err != nil {
			logger.Fatalf("parse bounds: %v", err)
		}
	}

	var g *graph.Graph
	if *graphPath != "" {
		data, err := os.ReadFile(*graphPath)
		if err != nil {
			logger.Fatalf("read graph: %v", err)
		}
		g, err = graph.UnmarshalGraph(data)
		if err != nil {
			logger.Fatalf("parse graph: %v", err)
		}
	} else if *data == "" || !snapshotExists(*data) {
		g = graph.NTUCampus()
	}

	sys, sysErr := core.Open(core.Config{
		Graph:      g,
		Boundaries: bounds,
		DataDir:    *data,
		AutoDerive: true,
	})
	if sysErr != nil {
		logger.Fatalf("open system: %v", sysErr)
	}
	defer sys.Close()

	logger.Infof("serving %q (%d primitive locations) on %s",
		sys.Graph().Name(), len(sys.Flat().Nodes), *addr)
	if *data != "" {
		logger.Infof("durable storage in %s", *data)
	}
	srv := server.New(sys)
	if *captureTimeout > 0 {
		srv.SetCaptureTimeout(*captureTimeout)
	}
	serveUntilSignal(*addr, srv)
	// The deferred sys.Close() flushes the committer: every ack the drain
	// emitted is backed by a clean, recoverable WAL.
}

// runReplica boots a read-only follower: bootstrap from the primary
// fleet, start the tail loop, and serve the query surface. With a data
// directory the promotion endpoint is armed; with a relay directory the
// follower cascades — it re-serves the replication stream and the
// committed-event feed to a downstream tier from its relay log.
func runReplica(addr, primaries, dataDir, relayDir string, followLagMax, captureTimeout time.Duration) {
	urls := wire.SplitEndpoints(primaries)
	src, err := wire.NewMultiSource(urls)
	if err != nil {
		logger.Fatalf("replica: %v", err)
	}
	rep, err := core.NewReplica(src)
	if err != nil {
		logger.Fatalf("bootstrap from %s: %v", primaries, err)
	}
	defer rep.Close()
	if relayDir != "" {
		if err := rep.EnableRelay(relayDir); err != nil {
			logger.Fatalf("relay: %v", err)
		}
		logger.Infof("cascade armed: relaying applied records into %s/relay.log for a downstream tier", relayDir)
	}
	go func() {
		// Run self-heals across primary compactions (in-place
		// re-bootstrap) and failovers (the source re-resolves the
		// primary), so it returns only on a terminal condition —
		// divergence, a primary that is no longer the same site — or
		// cleanly (nil) after this node is promoted.
		if err := rep.Run(context.Background()); err != nil {
			logger.Fatalf("replication: %v", err)
		}
	}()
	sys := rep.System()
	srv := server.NewReplica(rep)
	if followLagMax > 0 {
		srv.SetFollowLagMax(followLagMax)
		logger.Infof("read barrier armed: 503 when staleness exceeds %s", followLagMax)
	}
	if captureTimeout > 0 {
		srv.SetCaptureTimeout(captureTimeout)
	}
	if dataDir != "" {
		srv.SetPromoteDir(dataDir)
		logger.Infof("promotion armed: POST /v1/admin/promote writes the new lineage into %s", dataDir)
	}
	logger.Infof("replica of %s serving %q (%d primitive locations) on %s, bootstrapped at seq %d",
		primaries, sys.Graph().Name(), len(sys.Flat().Nodes), addr, rep.AppliedSeq())
	serveUntilSignal(addr, srv)
}

// snapshotExists reports whether the data directory already holds a
// snapshot to recover the graph from.
func snapshotExists(dir string) bool {
	ents, err := os.ReadDir(dir + "/snapshots")
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && e.Name() != "snap.tmp" {
			return true
		}
	}
	return false
}
