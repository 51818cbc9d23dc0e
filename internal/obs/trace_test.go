package obs

import (
	"sync"
	"testing"
)

// TestTraceBeginStamp: the primary path — Begin under the write lock,
// later stages stamped by seq — yields a monotone stage clock.
func TestTraceBeginStamp(t *testing.T) {
	tr := NewPipelineTrace(64)
	base := Now()
	tr.Begin(1, FrameStamps{Decode: base, Gather: base + 10}, base+20)
	tr.Stamp(1, StageAppend, base+30)
	tr.Stamp(1, StageFsync, base+40)
	tr.Stamp(1, StagePublish, base+41)
	tr.Stamp(1, StageDeliver, base+50)

	e, ok := tr.Trace(1)
	if !ok {
		t.Fatal("trace for seq 1 missing")
	}
	var last int64
	for st := StageDecode; st <= StageDeliver; st++ {
		ns := e.Stamps[st]
		if ns == 0 {
			t.Fatalf("stage %s never stamped", st)
		}
		if ns < last {
			t.Fatalf("stage %s at %d precedes previous stage at %d", st, ns, last)
		}
		last = ns
	}
	if e.Stamps[StageReplicaApply] != 0 || e.Stamps[StageRelayAppend] != 0 {
		t.Error("follower stages stamped on a primary trace")
	}
	if tr.MaxSeq() != 1 {
		t.Errorf("maxSeq = %d", tr.MaxSeq())
	}
}

// TestTraceRecycle: when a newer sequence claims a slot, the old trace
// disappears and late stamps for the old sequence are dropped — never
// written into the new record's clock.
func TestTraceRecycle(t *testing.T) {
	tr := NewPipelineTrace(4) // seqs 1 and 5 share a slot
	tr.Begin(1, FrameStamps{}, Now())
	tr.Begin(5, FrameStamps{}, Now())
	if _, ok := tr.Trace(1); ok {
		t.Fatal("recycled trace still readable")
	}
	tr.Stamp(1, StageFsync, Now()) // late stamp for the evicted record
	e, ok := tr.Trace(5)
	if !ok {
		t.Fatal("trace for seq 5 missing")
	}
	if e.Stamps[StageFsync] != 0 {
		t.Error("late stamp for an evicted sequence landed on its successor")
	}
}

// TestTraceAutoClaim: the follower path has no Begin — the first Stamp
// for an unseen sequence claims the slot itself.
func TestTraceAutoClaim(t *testing.T) {
	tr := NewPipelineTrace(16)
	tr.Stamp(7, StageReplicaApply, Now())
	tr.Stamp(7, StageRelayAppend, Now())
	e, ok := tr.Trace(7)
	if !ok {
		t.Fatal("auto-claimed trace missing")
	}
	if e.Stamps[StageReplicaApply] == 0 || e.Stamps[StageRelayAppend] == 0 {
		t.Errorf("follower stamps = %+v", e.Stamps)
	}
	if e.Stamps[StageRelayAppend] < e.Stamps[StageReplicaApply] {
		t.Error("relay-append precedes replica-apply")
	}
}

// TestTraceLast: ascending order, bounded by n and by what the ring
// still holds.
func TestTraceLast(t *testing.T) {
	tr := NewPipelineTrace(8)
	for seq := uint64(1); seq <= 20; seq++ {
		tr.Begin(seq, FrameStamps{}, Now())
	}
	got := tr.Last(100)
	if len(got) != 8 {
		t.Fatalf("len = %d, want 8 (ring capacity)", len(got))
	}
	for i, e := range got {
		if want := uint64(13 + i); e.Seq != want {
			t.Errorf("entry %d seq = %d, want %d", i, e.Seq, want)
		}
	}
	if got := tr.Last(3); len(got) != 3 || got[2].Seq != 20 {
		t.Errorf("Last(3) = %+v", got)
	}
}

// TestTraceStageStats: each stamp feeds the stage's transition
// histogram with the delta from the nearest earlier stage.
func TestTraceStageStats(t *testing.T) {
	tr := NewPipelineTrace(16)
	base := Now()
	tr.Begin(1, FrameStamps{Decode: base}, base+1_000_000) // 1ms decode→apply
	tr.Stamp(1, StageFsync, base+3_000_000)                // 2ms apply→fsync
	st := tr.StageStats()
	if st[StageApply].Count != 1 || st[StageApply].P50Micro > 1250 || st[StageApply].P50Micro < 1000 {
		t.Errorf("apply stats = %+v", st[StageApply])
	}
	if st[StageFsync].Count != 1 || st[StageFsync].P50Micro < 2000 {
		t.Errorf("fsync stats = %+v", st[StageFsync])
	}
	if st[StageDecode].Count != 0 {
		t.Error("decode has no predecessor and must not record")
	}
}

// TestTraceNil: a nil trace is a valid no-op sink, so untraced paths
// need no checks.
func TestTraceNil(t *testing.T) {
	var tr *PipelineTrace
	tr.Begin(1, FrameStamps{}, Now())
	tr.Stamp(1, StageFsync, Now())
	if _, ok := tr.Trace(1); ok {
		t.Error("nil trace returned a trace")
	}
	if tr.Last(5) != nil || tr.MaxSeq() != 0 || tr.Ring() != 0 {
		t.Error("nil trace not inert")
	}
	_ = tr.StageStats()
}

// TestTraceConcurrent: stampers and readers race freely (CI runs this
// package under -race); every surviving trace must be internally
// consistent (monotone stages).
func TestTraceConcurrent(t *testing.T) {
	// Each worker owns the sequences ≡ w (mod workers), as production
	// has one apply loop per sequence: a stamp overwrites, so two
	// workers stamping one sequence could order its stages either way.
	// The ring holds every sequence, so no two workers share a slot.
	const workers, perWorker = 4, 500
	tr := NewPipelineTrace(workers * perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				seq := uint64(i*workers + w + 1)
				tr.Stamp(seq, StageReplicaApply, Now())
				tr.Stamp(seq, StageRelayAppend, Now())
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, e := range tr.Last(16) {
				a, r := e.Stamps[StageReplicaApply], e.Stamps[StageRelayAppend]
				if a != 0 && r != 0 && r < a {
					t.Error("relay-append precedes replica-apply in a consistent copy")
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
}

// TestTraceStampAllocs: stamping rides the commit and delivery hot
// paths and must be allocation-free.
func TestTraceStampAllocs(t *testing.T) {
	tr := NewPipelineTrace(64)
	tr.Begin(1, FrameStamps{}, Now())
	if n := testing.AllocsPerRun(1000, func() { tr.Stamp(1, StageFsync, Now()) }); n != 0 {
		t.Errorf("Stamp allocates %.1f per op, want 0", n)
	}
	var seq uint64
	if n := testing.AllocsPerRun(1000, func() {
		seq++
		tr.Begin(seq, FrameStamps{Decode: 1, Gather: 2}, Now())
	}); n != 0 {
		t.Errorf("Begin allocates %.1f per op, want 0", n)
	}
}
