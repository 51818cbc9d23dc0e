package movement

import (
	"errors"
	"testing"

	"repro/internal/interval"
)

func iv(s string) interval.Interval { return interval.MustParse(s) }

func TestRecordEnterExit(t *testing.T) {
	db := NewDB()
	ev, err := db.RecordEnter(10, "alice", "CAIS", 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 1 || ev.Kind != Enter || ev.Time != 10 {
		t.Errorf("event = %+v", ev)
	}
	loc, inside := db.CurrentLocation("alice")
	if !inside || loc != "CAIS" {
		t.Errorf("current = %v %v", loc, inside)
	}
	ev2, st, err := db.RecordExit(20, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Seq != 2 || ev2.Kind != Exit || ev2.Location != "CAIS" || ev2.Auth != 1 {
		t.Errorf("exit event = %+v", ev2)
	}
	if st.Enter != 10 || st.Exit != 20 || st.Open() {
		t.Errorf("stint = %+v", st)
	}
	if _, inside := db.CurrentLocation("alice"); inside {
		t.Error("alice should be outside")
	}
}

func TestRecordErrors(t *testing.T) {
	db := NewDB()
	if _, err := db.RecordEnter(1, "", "x", 0); err == nil {
		t.Error("empty subject should fail")
	}
	if _, err := db.RecordEnter(1, "a", "", 0); err == nil {
		t.Error("empty location should fail")
	}
	if _, _, err := db.RecordExit(1, "ghost"); !errors.Is(err, ErrNotInside) {
		t.Errorf("exit while outside: %v", err)
	}
	_, _ = db.RecordEnter(5, "a", "x", 0)
	if _, err := db.RecordEnter(6, "a", "y", 0); !errors.Is(err, ErrAlreadyInside) {
		t.Errorf("double enter: %v", err)
	}
	// Time regression.
	if _, err := db.RecordEnter(4, "b", "x", 0); !errors.Is(err, ErrTimeRegress) {
		t.Errorf("regressing enter: %v", err)
	}
	if _, _, err := db.RecordExit(4, "a"); !errors.Is(err, ErrTimeRegress) {
		t.Errorf("regressing exit: %v", err)
	}
	// Same-time events are fine (chronon granularity).
	if _, err := db.RecordEnter(5, "b", "x", 0); err != nil {
		t.Errorf("same-chronon event should be fine: %v", err)
	}
}

func TestEntryCountDef7(t *testing.T) {
	// Definition 7: "s has entered l during [tis, tie] for less than n
	// times" — count entries with entry time inside the window.
	db := NewDB()
	_, _ = db.RecordEnter(10, "bob", "CHIPES", 2)
	_, _, _ = db.RecordExit(20, "bob")
	_, _ = db.RecordEnter(25, "bob", "CHIPES", 2)
	_, _, _ = db.RecordExit(28, "bob")
	_, _ = db.RecordEnter(40, "bob", "CHIPES", 2)
	_, _, _ = db.RecordExit(41, "bob")

	if got := db.EntryCount("bob", "CHIPES", iv("[5, 35]")); got != 2 {
		t.Errorf("count in [5,35] = %d, want 2", got)
	}
	if got := db.EntryCount("bob", "CHIPES", iv("[0, inf]")); got != 3 {
		t.Errorf("count all = %d, want 3", got)
	}
	if got := db.EntryCount("bob", "CHIPES", iv("[11, 24]")); got != 0 {
		t.Errorf("count in gap = %d, want 0", got)
	}
	if got := db.EntryCount("bob", "CAIS", iv("[0, inf]")); got != 0 {
		t.Errorf("other location = %d", got)
	}
	if got := db.EntryCount("ghost", "CHIPES", iv("[0, inf]")); got != 0 {
		t.Errorf("unknown subject = %d", got)
	}
}

func TestOccupantsAndOpenStints(t *testing.T) {
	db := NewDB()
	_, _ = db.RecordEnter(1, "carol", "Lab1", 0)
	_, _ = db.RecordEnter(2, "alice", "Lab1", 0)
	_, _ = db.RecordEnter(3, "bob", "Lab2", 0)
	occ := db.Occupants("Lab1")
	if len(occ) != 2 || occ[0] != "alice" || occ[1] != "carol" {
		t.Errorf("occupants = %v", occ)
	}
	if got := db.Occupants("Empty"); len(got) != 0 {
		t.Errorf("empty room = %v", got)
	}
	open := db.OpenStints()
	if len(open) != 3 || open[0].Subject != "alice" || !open[0].Open() {
		t.Errorf("open stints = %v", open)
	}
	_, _, _ = db.RecordExit(5, "alice")
	if len(db.OpenStints()) != 2 {
		t.Error("exit should close the stint")
	}
}

func TestHistoryAndStintsIn(t *testing.T) {
	db := NewDB()
	_, _ = db.RecordEnter(1, "alice", "A", 0)
	_, _, _ = db.RecordExit(5, "alice")
	_, _ = db.RecordEnter(6, "alice", "B", 0)
	_, _, _ = db.RecordExit(9, "alice")
	_, _ = db.RecordEnter(10, "alice", "A", 0)

	h := db.History("alice")
	if len(h) != 3 || h[0].Location != "A" || h[1].Location != "B" || !h[2].Open() {
		t.Errorf("history = %v", h)
	}
	if got := db.History("ghost"); len(got) != 0 {
		t.Errorf("ghost history = %v", got)
	}
	sts := db.StintsIn("A", iv("[0, 100]"))
	if len(sts) != 2 {
		t.Errorf("stints in A = %v", sts)
	}
	// Window before second visit.
	sts = db.StintsIn("A", iv("[0, 5]"))
	if len(sts) != 1 || sts[0].Enter != 1 {
		t.Errorf("windowed stints = %v", sts)
	}
	// Open stint overlaps any future window.
	sts = db.StintsIn("A", iv("[1000, 2000]"))
	if len(sts) != 1 || !sts[0].Open() {
		t.Errorf("open stint should match future windows: %v", sts)
	}
}

func TestWhoWasIn(t *testing.T) {
	db := NewDB()
	_, _ = db.RecordEnter(1, "alice", "ward3", 0)
	_, _ = db.RecordEnter(2, "bob", "ward3", 0)
	_, _, _ = db.RecordExit(4, "alice")
	_, _ = db.RecordEnter(10, "carol", "ward3", 0)
	got := db.WhoWasIn("ward3", iv("[0, 5]"))
	if len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Errorf("who in [0,5] = %v", got)
	}
	got = db.WhoWasIn("ward3", iv("[5, 20]"))
	if len(got) != 2 || got[0] != "bob" || got[1] != "carol" {
		t.Errorf("who in [5,20] = %v", got)
	}
}

func TestContactTracingSARS(t *testing.T) {
	// The §1 scenario: find everyone who was co-located with a diagnosed
	// patient.
	db := NewDB()
	_, _ = db.RecordEnter(1, "patient", "ward3", 0)
	_, _ = db.RecordEnter(3, "nurse", "ward3", 0)
	_, _, _ = db.RecordExit(7, "nurse") // nurse overlap [3, 7]
	_, _ = db.RecordEnter(8, "visitor", "ward3", 0)
	_, _, _ = db.RecordExit(9, "patient") // visitor overlap [8, 9]
	_, _ = db.RecordEnter(10, "patient", "canteen", 0)
	_, _ = db.RecordEnter(11, "cook", "canteen", 0)
	_, _, _ = db.RecordExit(12, "patient") // cook overlap [11, 12]
	// Someone in ward3 after the patient left: no contact.
	_, _ = db.RecordEnter(20, "late", "ward3", 0)

	contacts := db.ContactsOf("patient", iv("[0, inf]"))
	if len(contacts) != 3 {
		t.Fatalf("contacts = %v", contacts)
	}
	if contacts[0].Other != "nurse" || !contacts[0].Overlap.Equal(iv("[3, 7]")) || contacts[0].Location != "ward3" {
		t.Errorf("first contact = %+v", contacts[0])
	}
	if contacts[1].Other != "visitor" || !contacts[1].Overlap.Equal(iv("[8, 9]")) {
		t.Errorf("second contact = %+v", contacts[1])
	}
	if contacts[2].Other != "cook" || !contacts[2].Overlap.Equal(iv("[11, 12]")) || contacts[2].Location != "canteen" {
		t.Errorf("third contact = %+v", contacts[2])
	}
	// Windowed query excludes the canteen contact.
	contacts = db.ContactsOf("patient", iv("[0, 9]"))
	if len(contacts) != 2 {
		t.Errorf("windowed contacts = %v", contacts)
	}
	// No self contacts.
	for _, c := range contacts {
		if c.Other == "patient" {
			t.Error("self contact reported")
		}
	}
}

func TestEventsAndEventsSince(t *testing.T) {
	db := NewDB()
	_, _ = db.RecordEnter(1, "a", "x", 0)
	_, _, _ = db.RecordExit(2, "a")
	_, _ = db.RecordEnter(3, "a", "y", 0)
	evs := db.Events()
	if len(evs) != 3 || evs[0].Seq != 1 || evs[2].Seq != 3 {
		t.Errorf("events = %v", evs)
	}
	// Mutating the copy must not affect the log.
	evs[0].Subject = "mutated"
	if db.Events()[0].Subject != "a" {
		t.Error("Events must return a copy")
	}
	if db.Len() != 3 {
		t.Errorf("len = %d", db.Len())
	}
	if db.LastTime() != 3 {
		t.Errorf("last time = %v", db.LastTime())
	}
	if NewDB().LastTime() != interval.MinTime {
		t.Error("empty db last time should be MinTime")
	}
}

func TestSnapshotRestore(t *testing.T) {
	db := NewDB()
	_, _ = db.RecordEnter(1, "a", "x", 7)
	_, _, _ = db.RecordExit(2, "a")
	_, _ = db.RecordEnter(3, "b", "y", 0)
	snap := db.Snapshot()

	fresh := NewDB()
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 3 {
		t.Errorf("restored len = %d", fresh.Len())
	}
	if loc, inside := fresh.CurrentLocation("b"); !inside || loc != "y" {
		t.Error("open stint lost in restore")
	}
	if got := fresh.EntryCount("a", "x", iv("[0, 10]")); got != 1 {
		t.Errorf("restored count = %d", got)
	}
	// Auth ids survive replay.
	if fresh.History("a")[0].Auth != 7 {
		t.Error("auth id lost")
	}
	// Sequence numbering continues.
	ev, _ := fresh.RecordEnter(9, "c", "z", 0)
	if ev.Seq != 4 {
		t.Errorf("post-restore seq = %d", ev.Seq)
	}
	// Corrupt logs are rejected.
	bad := []Event{{Seq: 1, Time: 5, Subject: "a", Location: "x", Kind: Exit}}
	if err := fresh.Restore(bad); err == nil {
		t.Error("exit-before-enter log should fail to restore")
	}
	if err := fresh.Restore([]Event{{Seq: 1, Time: 1, Subject: "a", Location: "x", Kind: EventKind(9)}}); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestEventKindString(t *testing.T) {
	if Enter.String() != "enter" || Exit.String() != "exit" {
		t.Error("kind strings broken")
	}
	if EventKind(9).String() != "EventKind(9)" {
		t.Error("unknown kind string broken")
	}
}

func TestStintInterval(t *testing.T) {
	st := Stint{Subject: "a", Location: "x", Enter: 5, Exit: 9}
	if !st.Interval().Equal(iv("[5, 9]")) {
		t.Errorf("interval = %v", st.Interval())
	}
	open := Stint{Subject: "a", Location: "x", Enter: 5, Exit: interval.Inf}
	if !open.Open() || !open.Interval().IsUnbounded() {
		t.Error("open stint interval broken")
	}
}
