package stream

import (
	"testing"

	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/rules"
	"repro/internal/storage"
)

// TestDecodeCoversEveryRecordType drives a real System through every
// mutation the WAL vocabulary knows, then decodes the resulting log: a
// record type core adds without a matching decoder — or a payload shape
// drift between the two packages — fails here instead of silently
// yielding empty feed events.
func TestDecodeCoversEveryRecordType(t *testing.T) {
	sys, rooms, _ := gridSystem(t, 2, t.TempDir())

	if err := sys.PutSubject(profile.Subject{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.PutSubject(profile.Subject{ID: "b", Supervisor: "a"}); err != nil {
		t.Fatal(err)
	}
	a1, err := sys.AddAuthorization(authz.New(interval.New(1, 50), interval.New(1, 60), "a", rooms[0], authz.Unlimited))
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping windows on the same (subject, location): a conflict for
	// the resolve record below.
	if _, err := sys.AddAuthorization(authz.New(interval.New(2, 30), interval.New(2, 60), "a", rooms[0], authz.Unlimited)); err != nil {
		t.Fatal(err)
	}
	victim, err := sys.AddAuthorization(authz.New(interval.New(1, 50), interval.New(1, 60), "b", rooms[1], authz.Unlimited))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddRule(rules.Spec{Name: "r1", Base: a1.ID, ValidFrom: 5, Subject: "Supervisor_Of"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveRule("r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Enter(3, "a", rooms[0]); err != nil {
		t.Fatal(err)
	}
	if err := sys.Leave(4, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Tick(5); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ResolveConflicts(authz.Combine); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RevokeAuthorization(victim.ID); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveSubject("b"); err != nil {
		t.Fatal(err)
	}

	wantKind := map[string]EventKind{
		"profile.put":    KindProfilePut,
		"profile.remove": KindProfileRemove,
		"authz.add":      KindGrant,
		"authz.revoke":   KindRevoke,
		"authz.resolve":  KindResolve,
		"rule.add":       KindRuleAdd,
		"rule.remove":    KindRuleRemove,
		"move.enter":     KindEnter,
		"move.leave":     KindLeave,
		"tick":           KindTick,
	}

	var recs []storage.Record
	if _, err := storage.Replay(sys.WALPath(), func(rec storage.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var seq uint64
	for _, rec := range recs {
		ev, err := DecodeEvent(seq, rec)
		if err != nil {
			t.Fatalf("decode %s at seq %d: %v", rec.Type, seq, err)
		}
		want, ok := wantKind[rec.Type]
		if !ok {
			t.Fatalf("record type %q not in the decode coverage map: extend the test AND the decoder", rec.Type)
		}
		if ev.Kind != want {
			t.Fatalf("decode %s -> kind %q, want %q", rec.Type, ev.Kind, want)
		}
		if ev.Seq != seq || ev.Record == nil || ev.Record.Type != rec.Type {
			t.Fatalf("decode %s: seq/record not threaded through: %+v", rec.Type, ev)
		}
		seen[rec.Type] = true
		seq++
	}
	for typ := range wantKind {
		if !seen[typ] {
			t.Errorf("record type %q never exercised (fix the test setup)", typ)
		}
	}

	// Summary fields: spot-check the kinds subscribers filter on.
	seq = 0
	for _, rec := range recs {
		ev, _ := DecodeEvent(seq, rec)
		seq++
		switch ev.Kind {
		case KindEnter:
			if ev.Subject != "a" || ev.Location != rooms[0] || ev.Time != 3 {
				t.Fatalf("enter summary fields wrong: %+v", ev)
			}
		case KindLeave:
			// The departed location rides in the record so location
			// filters see leaves too.
			if ev.Subject != "a" || ev.Location != rooms[0] || ev.Time != 4 {
				t.Fatalf("leave summary fields wrong: %+v", ev)
			}
		case KindRevoke:
			if ev.Auth != victim.ID {
				t.Fatalf("revoke summary auth = %d, want %d", ev.Auth, victim.ID)
			}
		case KindRuleAdd:
			if ev.Name != "r1" {
				t.Fatalf("rule-add summary name = %q", ev.Name)
			}
		}
	}

	// An unknown record type must be reported, not silently dropped.
	if _, err := DecodeEvent(0, storage.Record{Type: "future.thing", Data: []byte("{}")}); err == nil {
		t.Fatal("unknown record type decoded without error")
	}
}

// TestFilterMatch pins the filter semantics the feed advertises.
func TestFilterMatch(t *testing.T) {
	enter := Event{Kind: KindEnter, Subject: "a", Location: graph.ID("x")}
	tick := Event{Kind: KindTick}
	errEv := Event{Kind: KindError, Error: "boom"}

	if !(Filter{}).Match(enter) || !(Filter{}).Match(tick) {
		t.Fatal("zero filter must match everything")
	}
	if !(Filter{Subject: "a"}).Match(enter) || (Filter{Subject: "b"}).Match(enter) {
		t.Fatal("subject filter wrong")
	}
	if (Filter{Subject: "a"}).Match(tick) {
		t.Fatal("subject filter must drop subject-less events")
	}
	if !(Filter{Location: "x"}).Match(enter) || (Filter{Location: "y"}).Match(enter) {
		t.Fatal("location filter wrong")
	}
	if !(Filter{Kinds: []EventKind{KindEnter}}).Match(enter) || (Filter{Kinds: []EventKind{KindLeave}}).Match(enter) {
		t.Fatal("kind filter wrong")
	}
	// The failure channel always passes.
	for _, f := range []Filter{{}, {Subject: "zzz"}, {Kinds: []EventKind{KindTick}}} {
		if !f.Match(errEv) {
			t.Fatalf("filter %+v dropped the KindError frame", f)
		}
	}
}
