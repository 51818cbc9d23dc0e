// The snapshot codec: the one encoding of a node's full state. Snapshot
// and promote write it to disk, Open reads it back, and a follower
// bootstraps from it (CaptureBootstrap streams it, NewReplica and
// Rebootstrap decode it).
//
// Layout:
//
//	"LTSN" | format | semantics | seq | term | clock | nextAuthID |
//	autoDerive | site | strings | profiles | authorizations | events
//
// The header fields are varints; each of the five sections is
// uvarint(len) | body. The site section is one small JSON document
// (graph, rule specs, boundaries); the others are varints, and every
// string in them is an index into the strings section, which holds each
// distinct string once.
//
// format is the layout version: a decoder refuses one it does not know.
// semantics is the replay version: two nodes replaying the same records
// from the same state reach the same state only if they run the same
// semantics (rule re-derivation assigns authorization IDs, and derived
// authorizations are not logged), so a follower refuses a bootstrap of
// another semantics. Bump it whenever replay of a record changes.
//
// A snapshot written before this codec is one JSON document, so its
// first byte is '{'; Open still reads those (decodeSnapshotFile).
package core

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"maps"
	"slices"

	"repro/internal/authz"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/movement"
	"repro/internal/profile"
	"repro/internal/rules"
)

const (
	snapMagic     = "LTSN"
	snapFormat    = 1
	snapSemantics = 1
)

// errSnapshotFormat reports an encoding this build cannot read;
// errSnapshotMalformed one that is cut short or inconsistent.
var (
	errSnapshotFormat    = errors.New("core: unreadable snapshot")
	errSnapshotMalformed = errors.New("core: malformed snapshot")
)

// siteConfig is the site section: the small, rarely changing part of the
// state.
type siteConfig struct {
	Graph      graph.Spec          `json:"graph"`
	Rules      []rules.Spec        `json:"rules,omitempty"`
	Boundaries []geometry.Boundary `json:"boundaries,omitempty"`
}

// decodeSnapshotFile decodes a snapshot file's payload: the binary
// encoding, or the JSON document of a snapshot written before it.
func decodeSnapshotFile(data []byte) (snapshotState, error) {
	if len(data) > 0 && data[0] == '{' {
		var snap snapshotState
		err := json.Unmarshal(data, &snap)
		return snap, err
	}
	return decodeSnapshot(data)
}

// encodeSnapshot returns the encoding of snap. snap.Semantics is
// ignored: the header carries this build's semantics.
func encodeSnapshot(snap *snapshotState) ([]byte, error) {
	return encodeSnapshotOf(snap, slices.Values(snap.Events), len(snap.Events))
}

// encodeSnapshotOf is encodeSnapshot with the movement log given as a
// sequence of n events in place of snap.Events, so that a capture
// encodes its frozen log without materializing it.
func encodeSnapshotOf(snap *snapshotState, events iter.Seq[movement.Event], n int) ([]byte, error) {
	site, err := json.Marshal(siteConfig{Graph: snap.Graph, Rules: snap.Rules, Boundaries: snap.Boundaries})
	if err != nil {
		return nil, err
	}
	autoDerive := uint64(0)
	if snap.AutoDerive {
		autoDerive = 1
	}
	b := []byte(snapMagic)
	for _, v := range []uint64{snapFormat, snapSemantics, snap.Seq, snap.Term} {
		b = binary.AppendUvarint(b, v)
	}
	b = binary.AppendVarint(b, int64(snap.Clock))
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(snap.NextAuthID)), autoDerive)
	b = appendSection(b, site)

	// Sections first, interning as they go: the table they index
	// precedes them in the encoding.
	e := snapEncoder{index: map[string]uint64{}}
	profiles := binary.AppendUvarint(nil, uint64(len(snap.Profiles)))
	for i := range snap.Profiles {
		p := &snap.Profiles[i]
		profiles = e.refs(profiles, string(p.ID), p.Name, string(p.Supervisor))
		profiles = e.refs(binary.AppendUvarint(profiles, uint64(len(p.Roles))), p.Roles...)
		profiles = e.refs(binary.AppendUvarint(profiles, uint64(len(p.Groups))), p.Groups...)
		profiles = binary.AppendUvarint(profiles, uint64(len(p.Attributes)))
		for _, k := range slices.Sorted(maps.Keys(p.Attributes)) { // canonical order
			profiles = e.refs(profiles, k, p.Attributes[k])
		}
	}
	auths := binary.AppendUvarint(nil, uint64(len(snap.Auths)))
	for i := range snap.Auths {
		a := &snap.Auths[i]
		auths = e.refs(binary.AppendUvarint(auths, uint64(a.ID)), string(a.Subject), string(a.Location))
		for _, v := range [...]int64{int64(a.Entry.Start), int64(a.Entry.End), int64(a.Exit.Start), int64(a.Exit.End), a.MaxEntries, int64(a.CreatedAt)} {
			auths = binary.AppendVarint(auths, v)
		}
		auths = binary.AppendUvarint(e.refs(auths, a.DerivedBy), uint64(a.BaseID))
	}
	evs := binary.AppendUvarint(nil, uint64(n))
	for ev := range events {
		evs = binary.AppendVarint(binary.AppendUvarint(evs, ev.Seq), int64(ev.Time))
		evs = e.refs(evs, string(ev.Subject), string(ev.Location))
		evs = binary.AppendUvarint(binary.AppendUvarint(evs, uint64(ev.Kind)), uint64(ev.Auth))
	}
	table := binary.AppendUvarint(nil, uint64(len(e.table)))
	for _, s := range e.table {
		table = append(binary.AppendUvarint(table, uint64(len(s))), s...)
	}
	for _, sec := range [...][]byte{table, profiles, auths, evs} {
		b = appendSection(b, sec)
	}
	return b, nil
}

func appendSection(b, body []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(body))), body...)
}

// snapEncoder interns the strings of one snapshot.
type snapEncoder struct {
	index map[string]uint64
	table []string
}

// refs appends the table index of each string, adding the new ones.
func (e *snapEncoder) refs(b []byte, ss ...string) []byte {
	for _, s := range ss {
		i, ok := e.index[s]
		if !ok {
			i = uint64(len(e.table))
			e.index[s] = i
			e.table = append(e.table, s)
		}
		b = binary.AppendUvarint(b, i)
	}
	return b
}

// decodeSnapshot decodes one snapshot encoding. It allocates per section
// and per string table, never per authorization or event, and never
// more than the input's bytes could hold: a declared count larger than
// its section's bytes could hold fails before allocating.
func decodeSnapshot(data []byte) (snapshotState, error) {
	var snap snapshotState
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		if len(data) > 0 && data[0] == '{' {
			return snap, fmt.Errorf("%w: a JSON document, not a binary snapshot", errSnapshotFormat)
		}
		return snap, fmt.Errorf("%w: no snapshot header", errSnapshotFormat)
	}
	c := snapCursor{b: data[len(snapMagic):]}
	if v := c.uvarint(); !c.bad && v != snapFormat {
		return snap, fmt.Errorf("%w: format version %d (this build reads %d)", errSnapshotFormat, v, snapFormat)
	}
	snap.Semantics, snap.Seq, snap.Term = c.uvarint(), c.uvarint(), c.uvarint()
	snap.Clock, snap.NextAuthID = c.time(), authz.ID(c.uvarint())
	snap.AutoDerive = c.uvarint() == 1
	site := c.section()
	if c.bad {
		return snap, errSnapshotMalformed
	}
	var cfg siteConfig
	if err := json.Unmarshal(site.b, &cfg); err != nil {
		return snap, fmt.Errorf("core: snapshot site: %w", err)
	}
	snap.Graph, snap.Rules, snap.Boundaries = cfg.Graph, cfg.Rules, cfg.Boundaries

	// One string holds every string; the table slices it.
	sec := c.section()
	all := string(sec.b)
	c.table = make([]string, sec.count(1))
	for i := range c.table {
		n := sec.uvarint()
		if sec.bad || n > uint64(len(sec.b)) {
			sec.bad = true
			break
		}
		off := len(all) - len(sec.b)
		c.table[i], sec.b = all[off:off+int(n)], sec.b[n:]
	}
	c.bad = c.bad || sec.bad || len(sec.b) != 0

	snap.Profiles = decodeSection(&c, 6, func(sec *snapCursor, p *profile.Subject) {
		p.ID, p.Name, p.Supervisor = profile.SubjectID(sec.str()), sec.str(), profile.SubjectID(sec.str())
		p.Roles, p.Groups = sec.strs(), sec.strs()
		if n := sec.count(2); n > 0 {
			p.Attributes = make(map[string]string, n)
			for range n {
				k := sec.str()
				p.Attributes[k] = sec.str()
			}
		}
	})
	snap.Auths = decodeSection(&c, 11, func(sec *snapCursor, a *authz.Authorization) {
		a.ID = authz.ID(sec.uvarint())
		a.Subject, a.Location = profile.SubjectID(sec.str()), graph.ID(sec.str())
		a.Entry = interval.Interval{Start: sec.time(), End: sec.time()}
		a.Exit = interval.Interval{Start: sec.time(), End: sec.time()}
		a.MaxEntries, a.CreatedAt = int64(sec.time()), sec.time()
		a.DerivedBy, a.BaseID = sec.str(), authz.ID(sec.uvarint())
	})
	snap.Events = decodeSection(&c, 6, func(sec *snapCursor, ev *movement.Event) {
		ev.Seq, ev.Time = sec.uvarint(), sec.time()
		ev.Subject, ev.Location = profile.SubjectID(sec.str()), graph.ID(sec.str())
		ev.Kind, ev.Auth = movement.EventKind(sec.uvarint()), authz.ID(sec.uvarint())
	})
	if c.bad || len(c.b) != 0 {
		return snap, errSnapshotMalformed
	}
	return snap, nil
}

// decodeSection decodes c's next section: a count, then that many
// elements of at least minBytes each. A fault latches in c.
func decodeSection[T any](c *snapCursor, minBytes int, decode func(*snapCursor, *T)) []T {
	sec := c.section()
	sec.table = c.table
	var out []T
	if n := sec.count(minBytes); n > 0 {
		out = make([]T, n)
		for i := range out {
			decode(&sec, &out[i])
		}
	}
	c.bad = c.bad || sec.bad || len(sec.b) != 0
	return out
}

// snapCursor parses an encoding, latching the first fault: a short
// field, a count or length past the bytes left, or a string index past
// the table.
type snapCursor struct {
	b     []byte
	table []string
	bad   bool
}

func (c *snapCursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if c.bad || n <= 0 {
		c.bad = true
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *snapCursor) time() interval.Time {
	v, n := binary.Varint(c.b)
	if c.bad || n <= 0 {
		c.bad = true
		return 0
	}
	c.b = c.b[n:]
	return interval.Time(v)
}

// section splits off the next length-prefixed section.
func (c *snapCursor) section() snapCursor {
	n := c.uvarint()
	if c.bad || n > uint64(len(c.b)) {
		c.bad = true
		return snapCursor{bad: true}
	}
	sec := snapCursor{b: c.b[:n]}
	c.b = c.b[n:]
	return sec
}

// count reads an element count, refusing one the rest of the section
// cannot hold at minBytes per element.
func (c *snapCursor) count(minBytes int) int {
	n := c.uvarint()
	if c.bad || n > uint64(len(c.b)/minBytes) {
		c.bad = true
		return 0
	}
	return int(n)
}

func (c *snapCursor) str() string {
	i := c.uvarint()
	if c.bad || i >= uint64(len(c.table)) {
		c.bad = true
		return ""
	}
	return c.table[i]
}

// strs reads a string list; an empty one decodes as nil.
func (c *snapCursor) strs() []string {
	n := c.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = c.str()
	}
	return out
}
