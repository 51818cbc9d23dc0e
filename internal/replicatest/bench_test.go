package replicatest

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
)

// BenchmarkReplicaApply measures the follower's apply throughput on a
// movement-dominated stream (the high-rate shape: positioning batches
// turned into move.enter records): records are pre-generated on a
// durable primary, then pumped through Replica.ApplyRecord one by one,
// exactly as the tail loop does. ns/op is the per-record apply cost —
// its inverse is the maximum primary write rate a single follower can
// sustain with bounded lag. The records are read in batches through the
// served log's reader and decoded one by one, as core.LogSource.Tail
// does.
func BenchmarkReplicaApply(b *testing.B) {
	g, bounds, centers := GridSite(b, 3)
	p, err := core.Open(core.Config{Graph: g, Boundaries: bounds, DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()

	rep, err := core.NewReplica(&core.LogSource{Node: p})
	if err != nil {
		b.Fatal(err)
	}
	defer rep.Close()

	// Generate exactly b.N movement records: one walker bouncing between
	// two rooms yields one move.enter per reading.
	const batch = 512
	for produced := 0; produced < b.N; {
		n := b.N - produced
		if n > batch {
			n = batch
		}
		readings := make([]core.Reading, n)
		for j := range readings {
			readings[j] = core.Reading{Time: 2, Subject: "walker", At: centers[(produced+j)%2]}
		}
		if _, err := p.ObserveBatch(readings); err != nil {
			b.Fatal(err)
		}
		produced += n
	}
	if got := p.ReplicationInfo().TotalSeq; got != uint64(b.N) {
		b.Fatalf("generated %d records, want %d", got, b.N)
	}

	lg, err := p.ServedLog()
	if err != nil {
		b.Fatal(err)
	}
	rd, err := lg.Open(0)
	if err != nil {
		b.Fatal(err)
	}
	defer rd.Close()
	var frames []byte

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		if frames, err = rd.Read(frames[:0], math.MaxUint64); err != nil {
			b.Fatal(err)
		}
		if len(frames) == 0 {
			b.Fatalf("stream dry at %d of %d", i, b.N)
		}
		for rest := frames; len(rest) > 0; i++ {
			var body []byte
			body, rest = storage.NextFrame(rest)
			rec, err := storage.DecodeRecord(body)
			if err != nil {
				b.Fatal(err)
			}
			if err := rep.ApplyRecord(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "records/sec")
	}
	if rep.AppliedSeq() != uint64(b.N) {
		b.Fatalf("applied %d of %d", rep.AppliedSeq(), b.N)
	}
}
