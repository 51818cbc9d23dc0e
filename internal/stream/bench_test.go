package stream

import (
	"testing"

	"repro/internal/interval"
)

// BenchmarkStreamEventReplay measures feed replay throughput: one
// subscriber draining a retained history of committed movement records
// from sequence 0 (decode + filter + queue hand-off per event). ns/op
// is per delivered event.
func BenchmarkStreamEventReplay(b *testing.B) {
	sys, rooms, _ := gridSystem(b, 2, b.TempDir(), "alice")
	const history = 2048
	for i := 0; i < history; i++ {
		if _, err := sys.Enter(interval.Time(2+i), "alice", rooms[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	total := sys.ReplicationInfo().TotalSeq
	bus := newTestBus(b, sys)

	b.ResetTimer()
	var delivered uint64
	for i := 0; i < b.N; i++ {
		sub, err := bus.Subscribe(SubscribeOptions{From: 0})
		if err != nil {
			b.Fatal(err)
		}
		var got uint64
		for got < total {
			ev, err := sub.Next(nil)
			if err != nil {
				b.Fatal(err)
			}
			if ev.Kind != KindAlert {
				got++
			}
		}
		delivered += got
		sub.Close()
	}
	b.StopTimer()
	if delivered == 0 {
		b.Fatal("no events delivered")
	}
	// Per-event cost is the honest unit for a replay bench.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(delivered), "ns/event")
}
