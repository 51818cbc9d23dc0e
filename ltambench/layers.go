package main

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wire/frame"
)

// replayNoop scans the log with a no-op callback: the storage layer's
// share of a reopen (the rest is core's apply).
func replayNoop(path string) (uint64, error) {
	return storage.Replay(path, func(storage.Record) error { return nil })
}

// measureLayers times calls into single layers while the system is
// quiescent, after the policy-query phase of a traced round. It runs
// last because its own ingest adds records to the primary's log.
func measureLayers(layers map[string]float64, sys *core.System, s *site, p policyPlan) error {
	// core: the in-process Def.-7 decision, in batches (one call is
	// below the clock's resolution).
	var reqs []readOp
	for _, op := range p.reads {
		if !op.inaccessible {
			reqs = append(reqs, op)
		}
	}
	const batch = 1000
	var perCall []float64
	for b := 0; b < 20; b++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			op := reqs[(b*batch+i)%len(reqs)]
			sys.Request(p.at, op.sub, op.loc)
		}
		perCall = append(perCall, float64(time.Since(start).Nanoseconds())/batch)
	}
	layers["core.request_ns"], _ = median(perCall)

	// query: the Algorithm-1 fixpoint without the memo, and its
	// allocation per call.
	const fixpoints = 100
	gcQuiet()
	m0 := memStats()
	var fix []float64
	for i := 0; i < fixpoints; i++ {
		sub := s.subjects[(i*7919)%len(s.subjects)].ID
		start := time.Now()
		query.FindInaccessible(sys.Flat(), sys.AuthStore(), sub, query.Options{})
		fix = append(fix, us(time.Since(start)))
	}
	m1 := memStats()
	layers["query.fixpoint_p50_us"], _ = median(fix)
	layers["query.fixpoint_alloc_bytes"] = float64(m1.TotalAlloc-m0.TotalAlloc) / fixpoints

	// authz: copy-on-write Add/Revoke on a benchmark-owned store holding
	// the same authorizations.
	st := sys.AuthStore().Stats()
	layers["authz.auths"] = float64(st.Auths)
	maxShard := 0
	for _, sh := range st.PerShard {
		maxShard = max(maxShard, sh.Auths)
	}
	layers["authz.max_shard_auths"] = float64(maxShard)
	own := authz.NewStore()
	all := sys.AuthStore().All()
	for i := range all {
		all[i].ID = 0
	}
	if _, err := own.AddAll(all); err != nil {
		return fmt.Errorf("authz bulk load: %w", err)
	}
	var adds []float64
	for i := 0; i < 100; i++ {
		op := writeOp{sub: s.subjects[(i*104729)%len(s.subjects)].ID, loc: s.rooms[(i*7)%len(s.rooms)]}
		start := time.Now()
		a, err := own.Add(grantFor(op, p.at))
		adds = append(adds, us(time.Since(start)))
		if err != nil {
			return fmt.Errorf("authz add: %w", err)
		}
		start = time.Now()
		if err := own.Revoke(a.ID); err != nil {
			return fmt.Errorf("authz revoke: %w", err)
		}
		adds = append(adds, us(time.Since(start)))
	}
	layers["authz.add_p50_us"], _ = median(adds)

	// wire + stream + core: encode fresh frames with the binary codec,
	// then feed them through a benchmark-owned Ingestor whose target
	// times every ObserveBatch call on the primary.
	frames := s.frames(20000)
	var buf bytes.Buffer
	enc := make([]byte, 0, 64)
	start := time.Now()
	for i := range frames {
		out, err := frame.AppendObserve(enc[:0], &frames[i])
		if err != nil {
			return err
		}
		buf.Write(out)
	}
	layers["wire.encode_ns_per_frame"] = float64(time.Since(start).Nanoseconds()) / float64(len(frames))
	end, err := frame.AppendObserve(nil, &stream.ObserveFrame{End: true})
	if err != nil {
		return err
	}
	buf.Write(end)

	target := &timedTarget{sys: sys}
	var counters stream.IngestCounters
	ing := &stream.Ingestor{Target: target, Counters: &counters}
	or := frame.NewObserveReader(&buf)
	aw := frame.NewAckWriter(io.Discard)
	err = ing.RunFramed(or, aw)
	or.Release()
	aw.Release()
	if err != nil {
		return fmt.Errorf("own ingestor: %w", err)
	}
	cs := counters.Snapshot()
	if cs.Frames != uint64(len(frames)) || cs.Errors != 0 {
		return fmt.Errorf("own ingestor applied %d of %d frames, %d errors", cs.Frames, len(frames), cs.Errors)
	}
	target.mu.Lock()
	defer target.mu.Unlock()
	layers["stream.chunk_p50_us"], _ = median(target.chunkUs)
	layers["core.observe_batch_us_per_frame"] = target.total / float64(cs.Frames)
	return nil
}

// timedTarget is the Ingestor target: the primary, with each chunk's
// ObserveBatch call timed.
type timedTarget struct {
	sys     *core.System
	mu      sync.Mutex
	chunkUs []float64
	total   float64
}

func (t *timedTarget) ObserveBatch(readings []core.Reading) ([]core.ObserveOutcome, error) {
	start := time.Now()
	out, err := t.sys.ObserveBatch(readings)
	d := us(time.Since(start))
	t.mu.Lock()
	t.chunkUs = append(t.chunkUs, d)
	t.total += d
	t.mu.Unlock()
	return out, err
}

func (t *timedTarget) ReplicationInfo() core.ReplicationInfo { return t.sys.ReplicationInfo() }
