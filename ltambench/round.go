package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/wire"
)

// phaseDeadline bounds every phase of a round; an overrun fails the run
// and names the phase.
const phaseDeadline = 60 * time.Second

// roundOut is one round's measurements.
type roundOut struct {
	traced  bool
	scalars map[string]float64   // one value per round (see endToEnd)
	samples map[string][]float64 // latency samples in ms
	layers  map[string]float64   // per-layer metrics, traced rounds only

	attempted, failed int
	failures          []string
}

func (r *roundOut) check(what string, err error) {
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// current names the stage a round is in, for the run's watchdog.
var current atomic.Pointer[string]

func enter(stage string) { current.Store(&stage) }

// phase runs fn under the phase deadline and names the phase in any
// error it returns.
func phase(name string, fn func(ctx context.Context) error) error {
	enter(name)
	ctx, cancel := context.WithTimeout(context.Background(), phaseDeadline)
	defer cancel()
	if err := fn(ctx); err != nil {
		return fmt.Errorf("phase %s: %w", name, err)
	}
	return nil
}

// gcQuiet collects garbage before a timed phase so one phase's garbage
// is not charged to the next.
func gcQuiet() { runtime.GC() }

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// runRound performs one round: set-up, then the firehose, catch-up,
// restart, paced and policy-query phases in sequence, never two at
// once. A returned error is fatal (a phase overran or the system could
// not be driven); failed checks are counted in roundOut.
func runRound(w workload, seed int64, traced bool, workdir string) (out roundOut, err error) {
	out = roundOut{traced: traced, scalars: map[string]float64{}, samples: map[string][]float64{}, layers: map[string]float64{}}
	dir, err := os.MkdirTemp(workdir, "round-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)

	// --- set-up: site, policy load, server, follower bootstrap ---
	enter("set-up")
	gcQuiet()
	setupStart := time.Now()
	s := newSite(w, seed)
	n, err := openNode(core.Config{Graph: s.g, Boundaries: s.bounds, DataDir: filepath.Join(dir, "primary")})
	if err != nil {
		return out, err
	}
	defer func() { _ = n.close() }()
	if err := s.load(n.sys); err != nil {
		return out, fmt.Errorf("set-up: %w", err)
	}
	// Compact the set-up into a snapshot, so the log replayed on restart
	// holds the firehose's movement records only.
	if err := n.sys.Snapshot(); err != nil {
		return out, fmt.Errorf("set-up snapshot: %w", err)
	}
	if err := n.serve(traced); err != nil {
		return out, err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	client := &wire.Client{BaseURL: n.url, HTTP: hc}
	src := client.ReplicationSource()
	var tsrc *timedSource
	var rsrc core.ReplicaSource = src
	if traced {
		tsrc = &timedSource{ReplicationSource: src}
		rsrc = tsrc
	}
	rep, err := core.NewReplica(rsrc)
	if err != nil {
		return out, fmt.Errorf("set-up: follower bootstrap: %w", err)
	}
	defer func() { _ = rep.Close() }()
	out.scalars["setup_s"] = time.Since(setupStart).Seconds()
	bootSeq := rep.AppliedSeq()

	// --- firehose: closed-loop ingest of a fixed frame count ---
	frames := s.frames(w.firehoseFrames)
	info0 := n.sys.ReplicationInfo()
	wal0, err := fileSize(n.sys.WALPath())
	if err != nil {
		return out, err
	}
	commit0 := n.sys.CommitStats()
	gcQuiet()
	mem0 := memStats()
	var fh firehoseResult
	if err := phase("firehose", func(ctx context.Context) error {
		var err error
		fh, err = runFirehose(ctx, hc, n.url, frames)
		return err
	}); err != nil {
		return out, err
	}
	mem1 := memStats()
	out.attempted += len(frames)
	info1 := n.sys.ReplicationInfo()
	records := info1.TotalSeq - info0.TotalSeq
	out.check("firehose acked == sent", eq(fh.final.Acked, uint64(len(frames))))
	out.check("firehose per-reading errors", eq(fh.final.Errors, 0))
	out.check("firehose one record per frame", eq(records, uint64(len(frames))))
	wal1, err := fileSize(n.sys.WALPath())
	if err != nil {
		return out, err
	}
	out.scalars["ingest_fps"] = float64(fh.final.Acked) / fh.elapsed.Seconds()
	out.scalars["wal_bytes_per_record"] = float64(wal1-wal0) / float64(records)
	if traced {
		commit1 := n.sys.CommitStats()
		batches := commit1.Batches - commit0.Batches
		out.layers["storage.fsyncs"] = float64(batches)
		out.layers["storage.records_per_fsync"] = float64(commit1.Records-commit0.Records) / float64(batches)
		out.layers["storage.wal_bytes"] = float64(wal1 - wal0)
		out.layers["go.alloc_bytes_per_frame"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(len(frames))
		out.layers["go.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
		st, err := client.Stats()
		if err != nil {
			return out, fmt.Errorf("firehose stats: %w", err)
		}
		if st.Stream != nil && st.Stream.Ingest.Chunks > 0 {
			out.layers["stream.frames_per_chunk"] = float64(st.Stream.Ingest.Frames) / float64(st.Stream.Ingest.Chunks)
		}
		stages := n.sys.Trace().StageStats()
		// Decode is the first stage stamped, so its histogram (time since
		// the previous stage) is empty; the stages after it are not.
		for _, st := range []obs.Stage{obs.StageGather, obs.StageApply, obs.StageAppend, obs.StageFsync, obs.StagePublish} {
			stageLayer(out.layers, st, stages[st])
		}
	}

	// --- catch-up: the idle follower tails the firehose's log ---
	target := info1.TotalSeq
	gcQuiet()
	var catchup time.Duration
	if err := phase("catch-up", func(ctx context.Context) error {
		runCtx, cancel := context.WithCancel(ctx)
		runDone := make(chan error, 1)
		start := time.Now()
		go func() { runDone <- rep.Run(runCtx) }()
		defer func() {
			cancel()
			<-runDone
		}()
		for rep.AppliedSeq() < target {
			select {
			case <-rep.ApplyNotify():
			case err := <-runDone:
				runDone <- err
				return fmt.Errorf("follower stopped at seq %d of %d: %v", rep.AppliedSeq(), target, err)
			case <-ctx.Done():
				return fmt.Errorf("follower at seq %d of %d: %w", rep.AppliedSeq(), target, ctx.Err())
			}
		}
		catchup = time.Since(start)
		return nil
	}); err != nil {
		return out, err
	}
	out.scalars["catchup_rps"] = float64(target-bootSeq) / catchup.Seconds()
	out.check("follower matches primary", sameState(n.sys, rep.System(), s, s.hot[:min(32, len(s.hot))]))
	if traced {
		tsrc.mu.Lock()
		out.layers["core.replica_apply_us"], _ = median(tsrc.applyUs)
		tsrc.mu.Unlock()
	}
	if err := rep.Close(); err != nil {
		return out, fmt.Errorf("close follower: %w", err)
	}

	// --- restart: close the primary and reopen it on the same data ---
	before := n.sys.ReplicationInfo()
	where := whereAll(n.sys, s)
	walPath := n.sys.WALPath()
	hc.CloseIdleConnections()
	var replay time.Duration
	var reopen time.Duration
	if err := phase("restart", func(context.Context) error {
		var err error
		reopen, err = n.reopen(traced, func() error {
			if !traced {
				return nil
			}
			start := time.Now()
			if _, err := replayNoop(walPath); err != nil {
				return err
			}
			replay = time.Since(start)
			return nil
		})
		return err
	}); err != nil {
		return out, err
	}
	client.BaseURL = n.url
	after := n.sys.ReplicationInfo()
	out.check("restart TotalSeq", eq(after.TotalSeq, before.TotalSeq))
	out.check("restart WhereIs", sameWhere(where, whereAll(n.sys, s)))
	out.scalars["recovery_rps"] = float64(before.TotalSeq-before.BaseSeq) / reopen.Seconds()
	if traced {
		out.layers["core.reopen_s"] = reopen.Seconds()
		out.layers["storage.replay_s"] = replay.Seconds()
	}

	// --- paced: open-loop ingest with one subscriber on the feed ---
	pf := s.frames(w.pacedFrames)
	from := n.sys.ReplicationInfo().TotalSeq
	var pr pacedResult
	var sub *subscriber
	if err := phase("paced", func(ctx context.Context) error {
		var err error
		sub, err = subscribe(ctx, client, from, len(pf))
		if err != nil {
			return err
		}
		gcQuiet()
		pr, err = runPaced(ctx, hc, n.url, pf)
		if err != nil {
			sub.stop()
			return err
		}
		return sub.wait(ctx)
	}); err != nil {
		return out, err
	}
	out.attempted += len(pf)
	out.check("paced acked == sent", eq(pr.final.Acked, uint64(len(pf))))
	out.check("paced per-reading errors", eq(pr.final.Errors, 0))
	out.check("paced feed exactly once in order", sub.check(pf))
	acks, err := ackLatencies(pr.due, pr.acks)
	out.check("paced acks", err)
	out.samples["ack_ms"] = acks
	out.samples["deliver_ms"] = sub.deliverLatencies(pr.due)
	out.samples["paced_lateness_ms"] = pr.lateness
	st, err := client.Stats()
	if err != nil {
		return out, fmt.Errorf("paced stats: %w", err)
	}
	if st.Stream == nil || st.Stream.Bus == nil {
		out.check("paced bus stats", fmt.Errorf("no bus stats after a subscription"))
	} else {
		out.check("paced bus evictions", eq(st.Stream.Bus.Evicted, 0))
		if traced {
			out.layers["stream.bus_delivered"] = float64(st.Stream.Bus.Delivered)
			stages := n.sys.Trace().StageStats()
			stageLayer(out.layers, obs.StageDeliver, stages[obs.StageDeliver])
		}
	}

	// --- policy-query: closed-loop reads beside open-loop writes ---
	plan := s.policyPlan()
	cache0 := n.sys.QueryCacheStats()
	view0 := n.sys.ViewStats()
	gcQuiet()
	mem0 = memStats()
	var pol policyResult
	if err := phase("policy-query", func(ctx context.Context) error {
		pol = runPolicy(ctx, client, plan, w.writerRate)
		return ctx.Err()
	}); err != nil {
		return out, err
	}
	mem1 = memStats()
	out.attempted += len(plan.reads) + len(plan.writes)
	out.failed += pol.failed
	if pol.firstErr != nil {
		out.failures = append(out.failures, fmt.Sprintf("policy-query op: %v", pol.firstErr))
	}
	out.samples["request_ms"] = pol.request
	out.samples["inaccessible_ms"] = pol.inaccessible
	out.samples["grant_ms"] = pol.grant
	out.samples["enter_ms"] = pol.enter
	out.samples["writer_lateness_ms"] = pol.lateness
	out.check("policy-query answers", checkPolicy(client, n.sys, s, plan, pol))
	if traced {
		cache1 := n.sys.QueryCacheStats()
		// About a tenth of the reads are Algorithm-1 queries, so the
		// denominator is never zero.
		hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
		out.layers["query.memo_hit_ratio"] = float64(hits) / float64(hits+misses)
		out.layers["query.memo_flushes"] = float64(cache1.Flushes - cache0.Flushes)
		out.layers["core.view_publishes"] = float64(n.sys.ViewStats().Publishes - view0.Publishes)
		out.layers["go.alloc_bytes_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(len(plan.reads)+len(plan.writes))
		out.layers["go.gc_cycles"] += float64(mem1.NumGC - mem0.NumGC)
		for _, key := range []string{"request", "inaccessible", "grant", "enter"} {
			out.layers["server.handler_p50_us."+key], _ = median(n.timing.take(key))
		}
		rtt, _ := median(pol.request)
		out.layers["wire.transport_p50_us"] = rtt*1000 - out.layers["server.handler_p50_us.request"]
		if err := measureLayers(out.layers, n.sys, s, plan); err != nil {
			return out, fmt.Errorf("traced layers: %w", err)
		}
	}
	return out, nil
}

func eq[T comparable](got, want T) error {
	if got != want {
		return fmt.Errorf("got %v, want %v", got, want)
	}
	return nil
}

// stageLayer records one obs stage histogram as obs.<stage>_p50_us and
// obs.<stage>_p99_us.
func stageLayer(layers map[string]float64, st obs.Stage, h obs.HistStats) {
	layers["obs."+st.String()+"_p50_us"] = float64(h.P50Micro)
	layers["obs."+st.String()+"_p99_us"] = float64(h.P99Micro)
}

// whereAll reads every subject's location.
func whereAll(sys *core.System, s *site) map[profile.SubjectID]string {
	out := make(map[profile.SubjectID]string, len(s.subjects))
	for _, sub := range s.subjects {
		if l, ok := sys.WhereIs(sub.ID); ok {
			out[sub.ID] = string(l)
		}
	}
	return out
}

func sameWhere(a, b map[profile.SubjectID]string) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d subjects located before, %d after", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			return fmt.Errorf("%s was in %q, now in %q", k, v, b[k])
		}
	}
	return nil
}

// sameState compares a follower with its primary: every subject's
// location and the Algorithm-1 answer for the sampled subjects.
func sameState(primary, follower *core.System, s *site, sample []profile.SubjectID) error {
	if err := sameWhere(whereAll(primary, s), whereAll(follower, s)); err != nil {
		return err
	}
	for _, sub := range sample {
		if p, f := primary.Inaccessible(sub), follower.Inaccessible(sub); !slices.Equal(p, f) {
			return fmt.Errorf("Inaccessible(%s): primary %v, follower %v", sub, p, f)
		}
	}
	return nil
}
