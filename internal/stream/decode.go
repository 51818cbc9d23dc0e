// Event decode: one committed WAL record → one Event with the summary
// fields subscribers filter on. The payload shapes mirror core's WAL
// record vocabulary (see core.System.apply); TestDecodeCoversEveryRecordType
// drives a real System through every mutation and decodes its log, so a
// drift between the two packages fails loudly instead of silently
// yielding empty events.
package stream

import (
	"encoding/json"
	"fmt"

	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/rules"
	"repro/internal/storage"
)

// wire shapes of the core record payloads we summarize (movement
// payloads are storage.Move).
type (
	idPayload   struct{ ID authz.ID }
	namePayload struct{ Name string }
	subjPayload struct{ ID profile.SubjectID }
	tickPayload struct{ T interval.Time }
)

// DecodeEvent turns the committed record at global sequence seq into its
// feed event. The record rides along verbatim (for replay); decode
// failures of the summary fields are reported, not swallowed — a record
// that cannot be summarized cannot be filtered honestly.
func DecodeEvent(seq uint64, rec storage.Record) (Event, error) {
	ev := Event{Seq: seq, Record: &storage.Record{Type: rec.Type, Data: rec.Data}}
	var err error
	switch rec.Type {
	case storage.TypeMoveEnter, storage.TypeMoveLeave:
		var m storage.Move
		if m, err = storage.DecodeMove(rec.Data); err == nil {
			ev.Kind, ev.Time, ev.Subject, ev.Location = KindEnter, interval.Time(m.T), profile.SubjectID(m.S), graph.ID(m.L)
			if rec.Type == storage.TypeMoveLeave {
				ev.Kind = KindLeave
			}
		}
	case "authz.add":
		var a authz.Authorization
		if err = json.Unmarshal(rec.Data, &a); err == nil {
			ev.Kind, ev.Subject, ev.Location, ev.Auth = KindGrant, a.Subject, a.Location, a.ID
		}
	case "authz.revoke":
		var p idPayload
		if err = json.Unmarshal(rec.Data, &p); err == nil {
			ev.Kind, ev.Auth = KindRevoke, p.ID
		}
	case "authz.resolve":
		ev.Kind = KindResolve
	case "rule.add":
		var spec rules.Spec
		if err = json.Unmarshal(rec.Data, &spec); err == nil {
			ev.Kind, ev.Name = KindRuleAdd, spec.Name
		}
	case "rule.remove":
		var p namePayload
		if err = json.Unmarshal(rec.Data, &p); err == nil {
			ev.Kind, ev.Name = KindRuleRemove, p.Name
		}
	case "profile.put":
		var sub profile.Subject
		if err = json.Unmarshal(rec.Data, &sub); err == nil {
			ev.Kind, ev.Subject = KindProfilePut, sub.ID
		}
	case "profile.remove":
		var p subjPayload
		if err = json.Unmarshal(rec.Data, &p); err == nil {
			ev.Kind, ev.Subject = KindProfileRemove, p.ID
		}
	case "tick":
		var p tickPayload
		if err = json.Unmarshal(rec.Data, &p); err == nil {
			ev.Kind, ev.Time = KindTick, p.T
		}
	default:
		return Event{}, fmt.Errorf("stream: unknown record type %q at seq %d", rec.Type, seq)
	}
	if err != nil {
		return Event{}, fmt.Errorf("stream: decode %s at seq %d: %w", rec.Type, seq, err)
	}
	return ev, nil
}
