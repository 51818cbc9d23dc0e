package audit

import (
	"strings"
	"testing"
)

func TestRaiseAssignsSeq(t *testing.T) {
	l := NewLog(10)
	a1 := l.Raise(Alert{Time: 5, Kind: Overstay, Subject: "alice", Location: "CAIS", Detail: "exit window [20, 100] passed"})
	a2 := l.Raise(Alert{Time: 6, Kind: DeniedRequest, Subject: "bob", Location: "CAIS"})
	if a1.Seq != 1 || a2.Seq != 2 {
		t.Errorf("seqs = %d, %d", a1.Seq, a2.Seq)
	}
	if l.Len() != 2 {
		t.Errorf("len = %d", l.Len())
	}
}

func TestEviction(t *testing.T) {
	l := NewLog(3)
	for i := 0; i < 5; i++ {
		l.Raise(Alert{Kind: DeniedRequest})
	}
	all := l.All()
	if len(all) != 3 || all[0].Seq != 3 || all[2].Seq != 5 {
		t.Errorf("retained = %v", all)
	}
}

func TestDefaultLimit(t *testing.T) {
	l := NewLog(0)
	if l.limit != DefaultLimit {
		t.Errorf("limit = %d", l.limit)
	}
	l = NewLog(-5)
	if l.limit != DefaultLimit {
		t.Errorf("limit = %d", l.limit)
	}
}

func TestFilters(t *testing.T) {
	l := NewLog(10)
	l.Raise(Alert{Kind: Overstay, Subject: "alice"})
	l.Raise(Alert{Kind: DeniedRequest, Subject: "bob"})
	l.Raise(Alert{Kind: Overstay, Subject: "bob"})
	if got := l.ByKind(Overstay); len(got) != 2 {
		t.Errorf("ByKind = %v", got)
	}
	if got := l.BySubject("bob"); len(got) != 2 {
		t.Errorf("BySubject = %v", got)
	}
	if got := l.BySubject("ghost"); len(got) != 0 {
		t.Errorf("ghost = %v", got)
	}
	counts := l.Counts()
	if counts[Overstay] != 2 || counts[DeniedRequest] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestSince(t *testing.T) {
	l := NewLog(10)
	for i := 0; i < 4; i++ {
		l.Raise(Alert{Kind: DeniedRequest})
	}
	got := l.Since(2)
	if len(got) != 2 || got[0].Seq != 3 {
		t.Errorf("since = %v", got)
	}
	if len(l.Since(100)) != 0 {
		t.Error("future since should be empty")
	}
}

func TestSubscribe(t *testing.T) {
	l := NewLog(10)
	var seen []Alert
	l.Subscribe(func(a Alert) { seen = append(seen, a) })
	l.Raise(Alert{Kind: Overstay, Subject: "alice"})
	l.Raise(Alert{Kind: EarlyExit, Subject: "bob"})
	if len(seen) != 2 || seen[0].Kind != Overstay || seen[1].Kind != EarlyExit {
		t.Errorf("seen = %v", seen)
	}
	if seen[0].Seq != 1 {
		t.Error("subscriber should see assigned seq")
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		Overstay:          "overstay",
		UnauthorizedEntry: "unauthorized-entry",
		EarlyExit:         "early-exit",
		DeniedRequest:     "denied-request",
		EntryExhausted:    "entry-exhausted",
		Kind(42):          "Kind(42)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k, want)
		}
	}
}

func TestAlertString(t *testing.T) {
	a := Alert{Time: 101, Kind: Overstay, Subject: "alice", Location: "CAIS", Detail: "exit window passed"}
	s := a.String()
	for _, frag := range []string{"t=101", "overstay", "alice", "CAIS", "exit window passed"} {
		if !strings.Contains(s, frag) {
			t.Errorf("alert string %q missing %q", s, frag)
		}
	}
}

func TestAllReturnsCopy(t *testing.T) {
	l := NewLog(10)
	l.Raise(Alert{Subject: "alice"})
	all := l.All()
	all[0].Subject = "mutated"
	if l.All()[0].Subject != "alice" {
		t.Error("All must return a copy")
	}
}

// TestRingAtLimit walks the log across its limit: before, at and past
// it, every reader sees the newest limit alerts, oldest first.
func TestRingAtLimit(t *testing.T) {
	const limit = 4
	l := NewLog(limit)
	for n := 1; n <= 3*limit+1; n++ {
		kind := DeniedRequest
		if n%2 == 0 {
			kind = Overstay
		}
		l.Raise(Alert{Kind: kind})
		first := uint64(max(1, n-limit+1))
		all := l.All()
		if len(all) != n-int(first)+1 || l.Len() != len(all) || l.OldestRetained() != first || l.LastSeq() != uint64(n) {
			t.Fatalf("after %d alerts: %d retained (len %d), oldest %d, last %d", n, len(all), l.Len(), l.OldestRetained(), l.LastSeq())
		}
		for i, a := range all {
			if a.Seq != first+uint64(i) {
				t.Fatalf("after %d alerts: alert %d has seq %d, want %d", n, i, a.Seq, first+uint64(i))
			}
		}
		if got := l.Since(uint64(max(0, n-2))); len(got) != min(2, n) || got[len(got)-1].Seq != uint64(n) {
			t.Fatalf("after %d alerts: since %d = %v", n, n-2, got)
		}
		overstays := l.ByKind(Overstay)
		if got := l.Counts()[Overstay]; got != len(overstays) {
			t.Fatalf("after %d alerts: %d overstays counted, %d listed", n, got, len(overstays))
		}
		for i := 1; i < len(overstays); i++ {
			if overstays[i].Seq != overstays[i-1].Seq+2 {
				t.Fatalf("after %d alerts: overstays out of order: %v", n, overstays)
			}
		}
	}
}

// TestRaiseAllocs: at the limit with no subscribers, raising an alert
// overwrites the oldest in place and allocates nothing — not even now and
// then, as a log that re-slices past its oldest alert must.
func TestRaiseAllocs(t *testing.T) {
	const limit = 8
	l := NewLog(limit)
	for range limit {
		l.Raise(Alert{Kind: DeniedRequest})
	}
	cancel := l.Subscribe(func(Alert) {})
	cancel()
	for i := range 3 * limit {
		if allocs := testing.AllocsPerRun(1, func() { l.Raise(Alert{Kind: DeniedRequest, Subject: "alice"}) }); allocs != 0 {
			t.Fatalf("raise %d past the limit: %.0f allocations", i, allocs)
		}
	}
}
