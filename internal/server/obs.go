// Observability surface: GET /metrics (Prometheus text exposition over
// one registry adapting every stats struct the node already keeps) and
// GET /v1/trace (raw per-record pipeline stage clocks). Both read the
// same lock-free counters /v1/stats reads — a scrape never takes a core
// lock.
package server

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/obs"
	"repro/internal/wire"
)

// buildRegistry assembles the node's metric registry. Collectors are
// closures over the server; each scrape reads the live counters, so
// there is no separate metric-update path to drift out of sync with
// /v1/stats.
func (s *Server) buildRegistry() *obs.Registry {
	reg := obs.NewRegistry()

	reg.Register("core", func(w *obs.MetricWriter) {
		w.Gauge("ltam_clock", "Engine logical clock.", float64(s.sys.Clock()))
		vs := s.sys.ViewStats()
		w.Gauge("ltam_view_epoch", "Published read-view epoch.", float64(vs.Epoch))
		w.Counter("ltam_view_publishes_total", "Read views published.", float64(vs.Publishes))
		cs := s.sys.QueryCacheStats()
		w.CounterVec("ltam_cache_requests_total", "Query-cache lookups by result.", func(sample func(v float64, labels ...obs.Label)) {
			sample(float64(cs.Hits), obs.Label{Name: "result", Value: "hit"})
			sample(float64(cs.Misses), obs.Label{Name: "result", Value: "miss"})
		})
		w.Counter("ltam_cache_flushes_total", "Query-cache flushes of a full table.", float64(cs.Flushes))
		w.Counter("ltam_cache_subsumed_total", "Bounded-window hits served from the default-window entry.", float64(cs.Subsumed))
		w.Gauge("ltam_cache_entries", "Live query-cache entries.", float64(cs.Entries))
		as := s.sys.AuthStore().Stats()
		w.Gauge("ltam_authz_shards", "Authorization store shard count.", float64(as.Shards))
		w.Gauge("ltam_authz_auths", "Live authorizations.", float64(as.Auths))
		w.Gauge("ltam_authz_version", "Authorization store version.", float64(as.Version))
	})

	reg.Register("commit", func(w *obs.MetricWriter) {
		st := s.sys.CommitStats()
		w.Counter("ltam_commit_batches_total", "WAL group-commit batches fsynced.", float64(st.Batches))
		w.Counter("ltam_commit_records_total", "Records covered by group-commit batches.", float64(st.Records))
		w.Gauge("ltam_wal_poisoned", "1 when a WAL write failed and the committer refuses further commits.", boolGauge(st.Poisoned))
		w.Gauge("ltam_draining", "1 while the node is draining for shutdown.", boolGauge(s.draining.Load()))
	})

	reg.Register("http", func(w *obs.MetricWriter) {
		w.Summary("ltam_http_request_duration_seconds", "Request latency by route.", func(sample func(st obs.HistStats, labels ...obs.Label)) {
			for route, h := range s.metrics.byRoute {
				if h.h.Count() == 0 {
					continue
				}
				sample(h.h.Stats(), obs.Label{Name: "route", Value: route})
			}
		})
	})

	reg.Register("pipeline", func(w *obs.MetricWriter) {
		t := s.sys.Trace()
		w.Gauge("ltam_trace_max_seq", "Highest sequence the pipeline trace has claimed.", float64(t.MaxSeq()))
		stats := t.StageStats()
		w.Summary("ltam_pipeline_stage_duration_seconds", "Latency from the previous traced stage, by stage.", func(sample func(st obs.HistStats, labels ...obs.Label)) {
			for i := range stats {
				if stats[i].Count == 0 {
					continue
				}
				sample(stats[i], obs.Label{Name: "stage", Value: obs.Stage(i).String()})
			}
		})
	})

	reg.Register("replication", func(w *obs.MetricWriter) {
		st := s.replicationWireStatus(nil)
		if st == nil {
			return
		}
		w.GaugeVec("ltam_replication_role", "Node role (1 on the role label this node holds).", func(sample func(v float64, labels ...obs.Label)) {
			sample(1, obs.Label{Name: "role", Value: st.Role})
		})
		w.Gauge("ltam_replication_term", "Promotion epoch.", float64(st.Term))
		w.Gauge("ltam_replication_base_seq", "First sequence the servable log holds.", float64(st.BaseSeq))
		w.Gauge("ltam_replication_total_seq", "Sequence high-water mark of the servable log.", float64(st.TotalSeq))
		w.Gauge("ltam_replication_applied_seq", "Highest sequence a replica has applied.", float64(st.AppliedSeq))
		w.Gauge("ltam_replication_lag", "Records the replica is behind its source.", float64(st.Lag))
		w.Gauge("ltam_replication_connected", "1 while the replica's tail stream is up.", boolGauge(st.Connected))
		w.Gauge("ltam_replication_staleness_seconds", "How long a replica has been unable to prove it is caught up.", st.StalenessNS.Seconds())
		w.Counter("ltam_replication_bootstraps_total", "Replica state loads.", float64(st.Bootstraps))
		w.Gauge("ltam_replication_relay", "1 when this follower re-serves the stream from a relay log.", boolGauge(st.Relay))
		w.Gauge("ltam_replication_wal_conns", "Live downstream WAL streams served.", float64(st.WalConns))
		w.Counter("ltam_replication_wal_bytes_total", "Frame bytes shipped to downstream WAL streams.", float64(st.WalBytes))
	})

	reg.Register("stream", func(w *obs.MetricWriter) {
		st := s.streamStats()
		ing := st.Ingest
		w.Gauge("ltam_ingest_connections", "Live streaming-ingest connections.", float64(ing.Conns))
		w.Counter("ltam_ingest_connections_total", "Streaming-ingest connections ever accepted.", float64(ing.TotalConns))
		w.Counter("ltam_ingest_frames_total", "Observation frames applied.", float64(ing.Frames))
		w.Counter("ltam_ingest_chunks_total", "ObserveBatch calls the frames were folded into.", float64(ing.Chunks))
		w.CounterVec("ltam_ingest_outcomes_total", "Per-reading ingest outcomes.", func(sample func(v float64, labels ...obs.Label)) {
			sample(float64(ing.Granted), obs.Label{Name: "outcome", Value: "granted"})
			sample(float64(ing.Denied), obs.Label{Name: "outcome", Value: "denied"})
			sample(float64(ing.Moved), obs.Label{Name: "outcome", Value: "moved"})
			sample(float64(ing.Errors), obs.Label{Name: "outcome", Value: "error"})
		})
		w.Gauge("ltam_ingest_sessions", "Live resumable ingest sessions.", float64(ing.Sessions))
		w.Counter("ltam_ingest_session_evictions_total", "Ingest sessions reclaimed.", float64(ing.SessionEvictions))
		if bs := st.Bus; bs != nil {
			w.Gauge("ltam_bus_subscribers", "Live event-bus subscriptions.", float64(bs.Subscribers))
			w.Gauge("ltam_bus_catching_up", "Subscriptions still replaying history.", float64(bs.CatchingUp))
			w.Counter("ltam_bus_subscribers_total", "Event-bus subscriptions ever accepted.", float64(bs.TotalSubscribers))
			w.Counter("ltam_bus_published_total", "Committed records pumped onto the feed.", float64(bs.Published))
			w.Counter("ltam_bus_alerts_total", "Audit alerts published to the feed.", float64(bs.Alerts))
			w.Counter("ltam_bus_delivered_total", "Events handed to subscriber queues.", float64(bs.Delivered))
			w.Counter("ltam_bus_evicted_total", "Slow-consumer evictions.", float64(bs.Evicted))
			w.Counter("ltam_bus_lost_total", "Events compacted away before the pump read them.", float64(bs.Lost))
			w.Counter("ltam_bus_decode_skips_total", "Record decodes skipped (every consumer alert-only).", float64(bs.DecodeSkips))
		}
		w.Gauge("ltam_stream_cursors", "Durable subscriber cursors held.", float64(s.cursorCount()))
	})

	return reg
}

// cursorCount peeks at the durable-cursor registry without building it —
// a scrape must not force the sidecar load.
func (s *Server) cursorCount() int {
	st := &s.stream
	st.curMu.Lock()
	defer st.curMu.Unlock()
	if st.cursors == nil {
		return 0
	}
	return st.cursors.Len()
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// metricsHandler serves GET /metrics.
func (s *Server) metricsHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.ContentTypeProm)
	_, _ = s.registry.WriteTo(w)
}

// traceStats assembles the /v1/stats pipeline-tracing section: per-stage
// transition latencies in pipeline order. Nil until a record is traced.
func (s *Server) traceStats() *wire.TraceStats {
	t := s.sys.Trace()
	max := t.MaxSeq()
	if max == 0 {
		return nil
	}
	stats := t.StageStats()
	out := &wire.TraceStats{MaxSeq: max, Ring: t.Ring()}
	for i := range stats {
		if stats[i].Count == 0 {
			continue
		}
		out.Stages = append(out.Stages, wire.TraceStageStats{
			Stage:         obs.Stage(i).String(),
			EndpointStats: endpointStats(stats[i]),
		})
	}
	return out
}

// traceHandler serves GET /v1/trace: one record's stage clock (?seq=N)
// or the most recent ones (?last=N, default 32, capped by the ring).
func (s *Server) traceHandler(w http.ResponseWriter, r *http.Request) {
	t := s.sys.Trace()
	q := r.URL.Query()
	resp := wire.TraceResponse{MaxSeq: t.MaxSeq(), Entries: []wire.TraceEntry{}}
	if v := q.Get("seq"); v != "" {
		seq, err := strconv.ParseUint(v, 10, 64)
		if err != nil || seq == 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad seq"))
			return
		}
		e, ok := t.Trace(seq)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("trace: sequence %d is not in the ring (last %d sequences up to %d)", seq, t.Ring(), t.MaxSeq()))
			return
		}
		resp.Entries = append(resp.Entries, wireTraceEntry(e))
	} else {
		n := 32
		if v := q.Get("last"); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil || parsed < 1 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad last"))
				return
			}
			n = parsed
		}
		if cap := t.Ring(); n > cap {
			n = cap
		}
		for _, e := range t.Last(n) {
			resp.Entries = append(resp.Entries, wireTraceEntry(e))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// wireTraceEntry projects a trace slot onto the wire: only the stages
// that actually stamped, in pipeline order.
func wireTraceEntry(e obs.TraceEntry) wire.TraceEntry {
	out := wire.TraceEntry{Seq: e.Seq, Stamps: make([]wire.TraceStamp, 0, len(e.Stamps))}
	for i, ns := range e.Stamps {
		if ns == 0 {
			continue
		}
		out.Stamps = append(out.Stamps, wire.TraceStamp{Stage: obs.Stage(i).String(), Nanos: ns})
	}
	return out
}
