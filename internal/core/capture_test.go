package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

// captureSystem returns a system whose movement history holds n stints:
// 1000 subjects walk between two rooms, each staying 1000 chronons, so
// the stints overlap and the exits interleave with the entries.
func captureSystem(b *testing.B, n int) *System {
	b.Helper()
	g := graph.New("g")
	rooms := []graph.ID{"a", "b"}
	for _, l := range rooms {
		if err := g.AddLocation(l); err != nil {
			b.Fatal(err)
		}
	}
	if err := g.AddEdge("a", "b"); err != nil {
		b.Fatal(err)
	}
	if err := g.SetEntry("a"); err != nil {
		b.Fatal(err)
	}
	sys, err := Open(Config{Graph: g})
	if err != nil {
		b.Fatal(err)
	}
	moves := sys.Movements()
	for i := range n {
		s, t := profile.SubjectID(fmt.Sprintf("u%03d", i%1000)), interval.Time(i)
		if i >= 1000 {
			if _, _, err := moves.RecordExit(t, s); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := moves.RecordEnter(t, s, rooms[(i/1000)%2], 1); err != nil {
			b.Fatal(err)
		}
	}
	return sys
}

// BenchmarkCaptureLockHold measures how long a capture of 100k stints
// holds the system's write lock: the cut alone (CaptureBootstrap, which
// encodes after the lock is released), and the cut plus the encoding
// (Snapshot, which must encode before it resets the WAL). Ingest and
// grants wait for this long.
func BenchmarkCaptureLockHold(b *testing.B) {
	sys := captureSystem(b, 100_000)
	defer sys.Close()
	for _, encode := range []bool{false, true} {
		b.Run(fmt.Sprintf("encode=%t", encode), func(b *testing.B) {
			for range b.N {
				sys.mu.Lock()
				c, err := sys.captureLocked()
				if err == nil && encode {
					_, err = c.encode()
				}
				sys.mu.Unlock()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
