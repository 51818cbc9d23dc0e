package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/authz"
	"repro/internal/fault"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/movement"
	"repro/internal/profile"
	"repro/internal/rules"
	"repro/internal/storage"
)

func encodeState(tb testing.TB, snap *snapshotState) []byte {
	tb.Helper()
	data, err := encodeSnapshot(snap)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// seedStates are states whose encoding decodes back to them exactly:
// empty lists and maps are nil, as the decoder returns them.
func seedStates() []snapshotState {
	sites := graph.Spec{Name: "g", Primitives: []graph.ID{"a", "b"}, Edges: [][2]graph.ID{{"a", "b"}}, Entries: []graph.ID{"a"}}
	return []snapshotState{
		{Semantics: snapSemantics, Graph: graph.Spec{Name: "g", Primitives: []graph.ID{"a"}, Entries: []graph.ID{"a"}}},
		{
			Semantics: snapSemantics, Seq: 1 << 40, Term: 3, Clock: -7, NextAuthID: 9, AutoDerive: true,
			Graph: sites,
			Profiles: []profile.Subject{
				{ID: "alice", Name: "Alice", Supervisor: "bob", Roles: []string{"staff", "nurse"}, Groups: []string{"w1"},
					Attributes: map[string]string{"ward": "1", "shift": "night", "": ""}},
				{ID: "bob"},
			},
			Auths: []authz.Authorization{
				{ID: 1, Subject: "alice", Location: "a", Entry: interval.New(1, 10), Exit: interval.From(2), MaxEntries: 3, CreatedAt: 1},
				{ID: 8, Subject: "bob", Location: "b", Entry: interval.Interval{Start: interval.MinTime, End: interval.Inf},
					Exit: interval.Empty, CreatedAt: -5, DerivedBy: "sup", BaseID: 1},
			},
			Rules:  []rules.Spec{{Name: "sup", ValidFrom: 7, Base: 1, Subject: "Supervisor_Of"}},
			Events: []movement.Event{{Seq: 1, Time: 2, Subject: "alice", Location: "a", Auth: 1}, {Seq: 2, Time: 4, Subject: "alice", Location: "a", Kind: movement.Exit}},
			Boundaries: []geometry.Boundary{
				{Location: "a", Shape: geometry.Polygon{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1.5}}},
			},
		},
	}
}

// handBuilt writes a snapshot field by field: a header with the given
// versions, then the given section bodies, each length-prefixed.
func handBuilt(format, semantics uint64, sections ...[]byte) []byte {
	b := []byte(snapMagic)
	b = binary.AppendUvarint(b, format)
	b = binary.AppendUvarint(b, semantics)
	b = binary.AppendUvarint(b, 0) // seq
	b = binary.AppendUvarint(b, 1) // term
	b = binary.AppendVarint(b, 0)  // clock
	b = binary.AppendUvarint(b, 1) // next authorization ID
	b = append(b, 0)               // autoDerive
	for _, s := range sections {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// minimalSections are the sections of an empty state on a one-room site.
func minimalSections() [][]byte {
	site := []byte(`{"graph":{"name":"g","primitives":["a"],"entries":["a"]}}`)
	return [][]byte{site, {0}, {0}, {0}, {0}}
}

func hugeCount() []byte {
	s := minimalSections()
	s[3] = binary.AppendUvarint(nil, 1<<40) // authorization count
	return handBuilt(snapFormat, snapSemantics, s...)
}

func hugeSection() []byte {
	b := handBuilt(snapFormat, snapSemantics, minimalSections()[:3]...)
	return append(binary.AppendUvarint(b, 1<<40), 1, 2, 3) // authorization section length
}

// FuzzDecodeSnapshot: every seed state survives encode → decode exactly
// and encodes to the same bytes every time;
// arbitrary bytes never panic the decoder, and whatever it accepts
// re-encodes to a canonical form that decodes and encodes to itself.
func FuzzDecodeSnapshot(f *testing.F) {
	for i, s := range seedStates() {
		data := encodeState(f, &s)
		got, err := decodeSnapshot(data)
		if err != nil || !reflect.DeepEqual(got, s) {
			f.Fatalf("seed %d: decode(encode(s)) = %+v, %v\nwant %+v", i, got, err, s)
		}
		// Canonical: map iteration order must not reach the bytes.
		for range 20 {
			if again := encodeState(f, &s); !bytes.Equal(again, data) {
				f.Fatalf("seed %d: encoding differs between runs", i)
			}
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
	}
	f.Add(handBuilt(snapFormat, snapSemantics, minimalSections()...))
	f.Add(handBuilt(snapFormat+1, snapSemantics, minimalSections()...))
	f.Add(hugeCount())
	f.Add(hugeSection())
	f.Add([]byte(`{"seq":1}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		canon := encodeState(t, &snap)
		again, err := decodeSnapshot(canon)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if b := encodeState(t, &again); !bytes.Equal(b, canon) {
			t.Fatalf("re-encoding is not stable:\n%x\n%x", canon, b)
		}
	})
}

// TestSnapshotDecodeRejectsHugeCounts: a declared count or section length
// of 2^40 fails before anything is allocated for it.
func TestSnapshotDecodeRejectsHugeCounts(t *testing.T) {
	for name, data := range map[string][]byte{"count": hugeCount(), "section": hugeSection()} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeSnapshot(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s 2^40: decoded", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("%s 2^40: allocated %d bytes", name, n)
		}
	}
}

// TestSnapshotDecodeAllocs: decoding allocates per section and per
// distinct string, never per authorization or event.
func TestSnapshotDecodeAllocs(t *testing.T) {
	state := func(auths, events int) []byte {
		s := seedStates()[1]
		s.Auths, s.Events = nil, nil
		for i := range auths {
			s.Auths = append(s.Auths, authz.Authorization{
				ID: authz.ID(i + 1), Subject: profile.SubjectID(fmt.Sprint("s", i%50)), Location: graph.ID(fmt.Sprint("r", i%20)),
				Entry: interval.New(interval.Time(i), interval.Time(i+10)), Exit: interval.From(interval.Time(i)), CreatedAt: interval.Time(i),
			})
		}
		for i := range events {
			s.Events = append(s.Events, movement.Event{Seq: uint64(i + 1), Time: interval.Time(i), Subject: "s1", Location: "r1", Kind: movement.EventKind(i % 2)})
		}
		return encodeState(t, &s)
	}
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := decodeSnapshot(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The large state's megabytes of allocation run the GC, which empties
	// the sync.Pools encoding/json draws on; refilling them may cost a
	// couple of allocations more.
	small, large := allocs(state(100, 10)), allocs(state(20000, 2000))
	if large > small+2 {
		t.Errorf("decode allocations grow with the state: %v at 100 authorizations, %v at 20,000", small, large)
	}
	if large > 80 {
		t.Errorf("decode allocates %v times, want <= 80", large)
	}
}

// TestOpenRefusesUnknownFormat: a snapshot of a format version this build
// does not know stops Open instead of being misread.
func TestOpenRefusesUnknownFormat(t *testing.T) {
	dir := t.TempDir()
	snaps, err := storage.NewSnapshotStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	if err := snaps.Save(0, handBuilt(snapFormat+1, snapSemantics, minimalSections()...), 2); err != nil {
		t.Fatal(err)
	}
	_, err = Open(Config{DataDir: dir})
	if !errors.Is(err, errSnapshotFormat) || !strings.Contains(err.Error(), fmt.Sprintf("format version %d", snapFormat+1)) {
		t.Fatalf("Open = %v, want an unknown-format refusal", err)
	}
}

// bytesSource bootstraps from fixed bytes and never streams.
type bytesSource struct {
	ReplicaSource
	data []byte
}

func (b *bytesSource) Bootstrap() (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(b.data)), nil
}

// TestBootstrapRefusesOtherVersions: NewReplica and Rebootstrap refuse a
// state of another replay semantics, naming both versions, and a JSON
// bootstrap from a node that predates the versioned encoding.
func TestBootstrapRefusesOtherVersions(t *testing.T) {
	other := handBuilt(snapFormat, snapSemantics+1, minimalSections()...)
	want := fmt.Sprintf("semantics v%d, this node v%d", snapSemantics+1, snapSemantics)
	if _, err := NewReplica(&bytesSource{data: other}); !errors.Is(err, ErrBootstrapMismatch) || !strings.Contains(err.Error(), want) {
		t.Fatalf("NewReplica = %v, want ErrBootstrapMismatch naming %q", err, want)
	}
	if _, err := NewReplica(&bytesSource{data: []byte(`{"seq":0,"state":{}}`)}); !errors.Is(err, ErrBootstrapMismatch) {
		t.Fatalf("NewReplica of a JSON bootstrap = %v, want ErrBootstrapMismatch", err)
	}

	src := &bytesSource{data: handBuilt(snapFormat, snapSemantics, minimalSections()...)}
	rep, err := NewReplica(src)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	src.data = other
	if err := rep.Rebootstrap(); !errors.Is(err, ErrBootstrapMismatch) || !strings.Contains(err.Error(), want) {
		t.Fatalf("Rebootstrap = %v, want ErrBootstrapMismatch naming %q", err, want)
	}
	src.data = handBuilt(snapFormat+1, snapSemantics, minimalSections()...)
	if err := rep.Rebootstrap(); !errors.Is(err, ErrBootstrapMismatch) {
		t.Fatalf("Rebootstrap of an unknown format = %v, want ErrBootstrapMismatch", err)
	}
	if got := rep.Status(nil).Bootstraps; got != 1 {
		t.Fatalf("bootstraps = %d after refused re-bootstraps, want 1", got)
	}
}

// TestSnapshotSyncFailureKeepsWAL runs Snapshot through the storage
// fault matrix: a counting pass discovers every write and sync of the
// snapshot file, then each of them fails in turn — EIO, ENOSPC and a torn
// write at each write, EIO at each sync. Under every fault Snapshot
// returns the error, the previous snapshot stays the latest, no
// temporary file is left, the WAL is not truncated, and a restart
// recovers every acknowledged record.
func TestSnapshotSyncFailureKeepsWAL(t *testing.T) {
	var counter *fault.File
	snapshotFault(t, func(f storage.File) storage.File {
		counter = fault.NewFile(f)
		return counter
	}, nil)
	writes, syncs := counter.Counts()
	if writes == 0 || syncs == 0 {
		t.Fatalf("a snapshot exercised no injection sites (writes=%d syncs=%d)", writes, syncs)
	}
	run := func(name string, rule fault.Rule) {
		t.Run(name, func(t *testing.T) {
			snapshotFault(t, func(f storage.File) storage.File { return fault.NewFile(f, rule) }, rule.Err)
		})
	}
	for i := uint64(1); i <= writes; i++ {
		run(fmt.Sprintf("write%d-eio", i), fault.Rule{Op: fault.OpWrite, Nth: i, Err: fault.ErrIO, Short: -1})
		run(fmt.Sprintf("write%d-enospc", i), fault.Rule{Op: fault.OpWrite, Nth: i, Err: fault.ErrNoSpace, Short: -1})
		run(fmt.Sprintf("write%d-torn", i), fault.Rule{Op: fault.OpWrite, Nth: i, Err: fault.ErrIO, Short: 3})
	}
	for i := uint64(1); i <= syncs; i++ {
		run(fmt.Sprintf("sync%d-eio", i), fault.Rule{Op: fault.OpSync, Nth: i, Err: fault.ErrIO})
	}
}

// snapshotFault snapshots a durable System once cleanly, logs more
// mutations, and snapshots again with the snapshot file wrapped by wrap.
// With want nil the second snapshot must succeed; otherwise it must fail
// with want and leave everything durable as it was.
func snapshotFault(t *testing.T, wrap func(storage.File) storage.File, want error) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(Config{Graph: graph.Fig4Graph(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSubject(profile.Subject{ID: "u"}); err != nil {
		t.Fatal(err)
	}
	for _, l := range []graph.ID{"A", "B"} {
		if _, err := s.AddAuthorization(authz.New(iv("[1, 100]"), iv("[1, 200]"), "u", l, 0)); err != nil {
			t.Fatal(err)
		}
		if l == "A" {
			if err := s.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Enter(5, "u", "A"); err != nil {
		t.Fatal(err)
	}
	before := s.ReplicationInfo()
	walSize := func() int64 {
		fi, err := os.Stat(s.WALPath())
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	size := walSize()
	s.snaps.Wrap = wrap
	err = s.Snapshot()
	if want == nil {
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		return
	}
	if !errors.Is(err, want) {
		t.Fatalf("Snapshot = %v, want the injected %v", err, want)
	}
	if got := s.ReplicationInfo(); got != before || walSize() != size {
		t.Fatalf("WAL moved after the failed snapshot: %+v (%d bytes), was %+v (%d bytes)", got, walSize(), before, size)
	}
	if ents, _ := os.ReadDir(filepath.Join(dir, "snapshots")); len(ents) != 1 {
		t.Fatalf("failed snapshot left %d files, want the previous snapshot alone", len(ents))
	}
	if seq, _, ok, err := s.snaps.Latest(); !ok || err != nil || seq != before.BaseSeq {
		t.Fatalf("latest snapshot = %d %v %v, want the previous one at %d", seq, ok, err, before.BaseSeq)
	}
	wantAuths := s.Authorizations()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Graph: graph.Fig4Graph(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.ReplicationInfo(); got != before {
		t.Fatalf("recovered %+v, want %+v", got, before)
	}
	if got := s2.Authorizations(); !reflect.DeepEqual(got, wantAuths) {
		t.Fatalf("recovered authorizations %v, want %v", got, wantAuths)
	}
	if loc, in := s2.WhereIs("u"); !in || loc != "A" {
		t.Fatalf("recovered position %v %v", loc, in)
	}
}

// TestCaptureEncodesOffLock: a bootstrap cut encodes while writers keep
// mutating, and still decodes to one consistent state — its
// authorizations are exactly those numbered below its ID watermark, and
// its sequence number counts them.
func TestCaptureEncodesOffLock(t *testing.T) {
	s, err := Open(Config{Graph: graph.Fig4Graph(), DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		defer close(writerErr)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			a := authz.New(iv("[1, 100]"), iv("[1, 200]"), profile.SubjectID(fmt.Sprint("u", i%7)), "A", 0)
			if _, err := s.AddAuthorization(a); err != nil {
				writerErr <- err
				return
			}
		}
	}()
	for range 20 {
		c, err := s.CaptureBootstrap()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := decodeSnapshot(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(snap.Auths), int(snap.NextAuthID)-1; got != want {
			t.Fatalf("cut holds %d authorizations below watermark %d", got, snap.NextAuthID)
		}
		// One record per grant: the cut's sequence counts its grants.
		if snap.Seq != c.Seq() || snap.Seq != uint64(len(snap.Auths)) {
			t.Fatalf("cut at seq %d (capture says %d) holds %d authorizations", snap.Seq, c.Seq(), len(snap.Auths))
		}
	}
	close(done)
	if err := <-writerErr; err != nil {
		t.Fatal(err)
	}
}

// TestOpensEarlierDataDir: testdata/datadir-v1 was written before the
// WAL and the relay became one log type: a snapshot at sequence 3 and a
// WAL of four records behind it. It opens, replays onto the snapshot,
// keeps its bytes, and takes new records after them.
func TestOpensEarlierDataDir(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "datadir-v1")
	for _, name := range []string{"wal.log", filepath.Join("snapshots", "snap-0000000000000003.bin")} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wal, _ := os.ReadFile(filepath.Join(src, "wal.log"))
	s, err := Open(Config{Graph: graph.Fig4Graph(), DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ReplicationInfo(); got.BaseSeq != 3 || got.TotalSeq != 7 {
		t.Fatalf("replication window %+v, want base 3 total 7", got)
	}
	if got, _ := os.ReadFile(s.WALPath()); !bytes.Equal(got, wal) {
		t.Fatal("opening rewrote the WAL")
	}
	var got []string
	for _, a := range s.Authorizations() {
		got = append(got, fmt.Sprintf("%d %s %s %d", a.ID, a.Subject, a.Location, a.MaxEntries))
	}
	if want := []string{"1 u A 0", "2 u B 2", "3 v A 0"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("authorizations %q, want %q", got, want)
	}
	if _, in := s.WhereIs("u"); in {
		t.Fatal("u is inside after the replayed leave")
	}
	if s.Clock() != 10 {
		t.Fatalf("clock %d, want 10", s.Clock())
	}
	if sub, err := s.GetSubject("u"); err != nil || !reflect.DeepEqual(sub.Groups, []string{"staff"}) {
		t.Fatalf("profile u = %+v, %v", sub, err)
	}
	if err := s.PutSubject(profile.Subject{ID: "w"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, "wal.log")); !bytes.HasPrefix(got, wal) || len(got) == len(wal) {
		t.Fatal("the new record was not appended after the earlier ones")
	}
}
