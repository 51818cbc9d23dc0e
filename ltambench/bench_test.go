package main

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/interval"
)

// small shrinks a workload for tests while keeping its policy shape.
func small(name string) workload {
	w, ok := findWorkload(name)
	if !ok {
		panic(name)
	}
	w.firehoseFrames, w.pacedFrames, w.queryOps, w.writerOps = 2000, 500, 400, 20
	return w
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		w := small(w.name)
		gen := func(seed int64) ([]any, policyPlan) {
			s := newSite(w, seed)
			fh, pf := s.frames(w.firehoseFrames), s.frames(w.pacedFrames)
			return []any{s.subjects, s.hot, fh, pf}, s.policyPlan()
		}
		a, pa := gen(7)
		b, pb := gen(7)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(pa, pb) {
			t.Fatalf("%s: seed 7 generated two different input sequences", w.name)
		}
		c, pc := gen(8)
		if reflect.DeepEqual(a[2], c[2]) || reflect.DeepEqual(pa.reads, pc.reads) {
			t.Fatalf("%s: seeds 7 and 8 generated the same frames or reads", w.name)
		}
	}
}

// walPerRecord loads the workload's policy into a fresh durable system,
// applies the firehose frames and returns WAL bytes per record written.
func walPerRecord(t *testing.T, w workload, seed int64) float64 {
	t.Helper()
	s := newSite(w, seed)
	dir := t.TempDir()
	sys, err := core.Open(core.Config{Graph: s.g, Boundaries: s.bounds, DataDir: filepath.Join(dir, "p")})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := s.load(sys); err != nil {
		t.Fatal(err)
	}
	before, err := fileSize(sys.WALPath())
	if err != nil {
		t.Fatal(err)
	}
	seq0 := sys.ReplicationInfo().TotalSeq
	frames := s.frames(w.firehoseFrames)
	for i := 0; i < len(frames); i += 256 {
		var batch []core.Reading
		for _, f := range frames[i:min(i+256, len(frames))] {
			batch = append(batch, core.Reading{Time: f.Time, Subject: f.Subject, At: geometry.Point{X: f.X, Y: f.Y}})
		}
		out, err := sys.ObserveBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range out {
			if o.Err != nil || !o.Moved {
				t.Fatalf("reading did not move its subject: %+v", o)
			}
		}
	}
	after, err := fileSize(sys.WALPath())
	if err != nil {
		t.Fatal(err)
	}
	records := sys.ReplicationInfo().TotalSeq - seq0
	if records != uint64(len(frames)) {
		t.Fatalf("%d records for %d frames", records, len(frames))
	}
	return float64(after-before) / float64(records)
}

func TestSameSeedSameWALBytesPerRecord(t *testing.T) {
	w := small("grid8-hot")
	a, b := walPerRecord(t, w, 3), walPerRecord(t, w, 3)
	if a != b || a <= 0 {
		t.Fatalf("wal bytes per record %v then %v for one seed", a, b)
	}
}

// The generator's Def.-7 oracle, which the policy-query check relies
// on, must agree with the system on the policy the rules derived.
func TestPermitsMatchesSystem(t *testing.T) {
	for _, name := range []string{"grid8-hot", "grid16-shifts"} {
		w := small(name)
		s := newSite(w, 5)
		sys, err := core.Open(core.Config{Graph: s.g, Boundaries: s.bounds})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.load(sys); err != nil {
			t.Fatal(err)
		}
		for _, at := range []interval.Time{10, 160000, 200000} {
			for i := 0; i < 300; i++ {
				sub := s.subjects[s.rng.Intn(len(s.subjects))].ID
				loc := s.rooms[s.rng.Intn(len(s.rooms))]
				if got, want := sys.Request(at, sub, loc).Granted, s.permits(sub, loc, at, nil); got != want {
					t.Fatalf("%s: Request(%d, %s, %s) = %v, oracle says %v", name, at, sub, loc, got, want)
				}
			}
		}
		sys.Close()
	}
}

func TestQuantileEdges(t *testing.T) {
	if _, ok := quantile(nil, 0.5); ok {
		t.Fatal("quantile of no samples reported a value")
	}
	if _, ok := median(nil); ok {
		t.Fatal("median of no samples reported a value")
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if v, ok := quantile([]float64{4.5}, q); !ok || v != 4.5 {
			t.Fatalf("q%.2f of one sample = %v, %v", q, v, ok)
		}
	}
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(50 - i)
	}
	if v, _ := quantile(xs, 0.99); v != 50 {
		t.Fatalf("p99 of 50 samples = %v, want the maximum", v)
	}
	if v, _ := quantile(xs, 0.5); v != 25 {
		t.Fatalf("p50 of 1..50 = %v, want 25", v)
	}
	if xs[0] != 50 {
		t.Fatal("quantile reordered its input")
	}
	if v, _ := median([]float64{1, 2, 3, 10}); v != 2.5 {
		t.Fatalf("median of an even count = %v", v)
	}
	if v, _ := quantile([]float64{math.Inf(1), 1}, 0.5); v != 1 {
		t.Fatalf("p50 = %v", v)
	}
}

func TestInterquartileMean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{1, 2, 6}, 3},                  // under four samples: the mean
		{[]float64{100, 2, 3, 0}, 2.5},           // drops one from each end
		{[]float64{9, 1, 5, 5, 5, 5, 1e9, 0}, 5}, // outliers do not move it
	} {
		if got := iqm(c.xs); got != c.want {
			t.Errorf("iqm(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2, 4}
	iqm(xs)
	if xs[0] != 3 {
		t.Fatal("iqm reordered its input")
	}
}

func TestAckLatencies(t *testing.T) {
	t0 := time.Unix(100, 0)
	due := []time.Time{t0, t0, t0.Add(time.Millisecond)}
	acks := []ackAt{{at: t0.Add(2 * time.Millisecond), acked: 2}, {at: t0.Add(5 * time.Millisecond), acked: 3}}
	got, err := ackLatencies(due, acks)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{2, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("latencies %v, want %v", got, want)
	}
	if _, err := ackLatencies(due, acks[:1]); err == nil {
		t.Fatal("an unacked frame was not reported")
	}
}
