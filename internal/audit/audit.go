// Package audit implements LTAM's alerting channel: the "warning signal to
// the security guards" the paper raises when, e.g., a subject fails to
// leave a location within its exit duration (§3.2), plus the audit trail
// of denied requests and unauthorized movements that makes security
// shortfalls visible.
package audit

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

// Kind classifies an alert.
type Kind int

// The alert kinds raised by the enforcement engine.
const (
	// Overstay: the subject is still inside after its exit duration
	// ended (§3.2's warning-signal example).
	Overstay Kind = iota
	// UnauthorizedEntry: a movement into a location with no granting
	// authorization — e.g. tailgating behind an authorized user, the
	// situation LTAM's continuous monitoring is designed to catch
	// ("a group of users enters a restricted location based on a
	// single user authorization").
	UnauthorizedEntry
	// EarlyExit: the subject left before its exit duration began
	// (the exit window is a constraint on when leaving is allowed).
	EarlyExit
	// DeniedRequest: an access request was rejected.
	DeniedRequest
	// EntryExhausted: a request was rejected specifically because the
	// entry count reached n.
	EntryExhausted
	// IllegalMovement: a movement that violates the location graph's
	// topology — entering the facility anywhere but an entry location,
	// teleporting between non-adjacent rooms, or leaving the facility
	// from a non-entry location ("an entry location also serves as the
	// last location where the user may visit before his/her exit").
	IllegalMovement
)

func (k Kind) String() string {
	switch k {
	case Overstay:
		return "overstay"
	case UnauthorizedEntry:
		return "unauthorized-entry"
	case EarlyExit:
		return "early-exit"
	case DeniedRequest:
		return "denied-request"
	case EntryExhausted:
		return "entry-exhausted"
	case IllegalMovement:
		return "illegal-movement"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Alert is one security event.
type Alert struct {
	Seq      uint64
	Time     interval.Time
	Kind     Kind
	Subject  profile.SubjectID
	Location graph.ID
	Detail   string
}

// String renders the alert as a log line.
func (a Alert) String() string {
	return fmt.Sprintf("t=%s %s subject=%s location=%s: %s",
		a.Time, a.Kind, a.Subject, a.Location, a.Detail)
}

// Subscriber receives alerts synchronously as they are raised.
type Subscriber func(Alert)

// Log is a bounded in-memory alert log with subscriptions. It is safe for
// concurrent use.
type Log struct {
	mu sync.RWMutex
	// ring holds the retained alerts: it grows to limit, then each alert
	// overwrites the oldest, ring[head].
	ring    []Alert
	head    int
	nextSeq uint64
	limit   int
	subs    map[uint64]Subscriber
	// notify is subs as a list, rebuilt when a subscription changes and
	// never written in place, so Raise can call it outside the lock.
	notify  []Subscriber
	nextSub uint64
}

// DefaultLimit bounds the retained alerts when NewLog is given a
// non-positive limit.
const DefaultLimit = 4096

// NewLog returns an alert log retaining at most limit alerts (oldest
// evicted first).
func NewLog(limit int) *Log {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Log{limit: limit, nextSeq: 1}
}

// Subscribe registers a subscriber for future alerts and returns a
// cancel function that removes it again (e.g. when an event-bus feed
// detaches). Subscribers run synchronously on the raising goroutine.
func (l *Log) Subscribe(s Subscriber) (cancel func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.subs == nil {
		l.subs = make(map[uint64]Subscriber)
	}
	id := l.nextSub
	l.nextSub++
	l.subs[id] = s
	l.notify = slices.Collect(maps.Values(l.subs))
	return func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		delete(l.subs, id)
		l.notify = slices.Collect(maps.Values(l.subs))
	}
}

// Raise appends an alert and notifies subscribers, returning the stored
// alert with its sequence number.
func (l *Log) Raise(a Alert) Alert {
	l.mu.Lock()
	a.Seq = l.nextSeq
	l.nextSeq++
	if len(l.ring) < l.limit {
		l.ring = append(l.ring, a)
	} else {
		l.ring[l.head] = a
		l.head = (l.head + 1) % l.limit
	}
	notify := l.notify
	l.mu.Unlock()
	for _, s := range notify {
		s(a)
	}
	return a
}

// at returns the i-th retained alert, oldest first.
func (l *Log) at(i int) *Alert { return &l.ring[(l.head+i)%len(l.ring)] }

// filter returns the retained alerts keep accepts, oldest first.
func (l *Log) filter(keep func(*Alert) bool) []Alert {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []Alert
	for i := range l.ring {
		if a := l.at(i); keep(a) {
			out = append(out, *a)
		}
	}
	return out
}

// All returns the retained alerts in order.
func (l *Log) All() []Alert {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]Alert, 0, len(l.ring))
	out = append(out, l.ring[l.head:]...)
	return append(out, l.ring[:l.head]...)
}

// ByKind returns retained alerts of the given kind.
func (l *Log) ByKind(k Kind) []Alert {
	return l.filter(func(a *Alert) bool { return a.Kind == k })
}

// BySubject returns retained alerts concerning the given subject.
func (l *Log) BySubject(s profile.SubjectID) []Alert {
	return l.filter(func(a *Alert) bool { return a.Subject == s })
}

// Since returns retained alerts with Seq > seq.
func (l *Log) Since(seq uint64) []Alert {
	l.mu.RLock()
	defer l.mu.RUnlock()
	i := sort.Search(len(l.ring), func(i int) bool { return l.at(i).Seq > seq })
	out := make([]Alert, 0, len(l.ring)-i)
	for ; i < len(l.ring); i++ {
		out = append(out, *l.at(i))
	}
	return out
}

// LastSeq returns the sequence number of the most recently raised alert
// (0 when none has been raised). It is the "live only" resume point for
// a subscriber that wants no backlog.
func (l *Log) LastSeq() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.nextSeq - 1
}

// OldestRetained returns the sequence number of the oldest alert still
// in the bounded log — the alert-space retention horizon. When the log
// is empty it returns nextSeq (the sequence the NEXT alert will get):
// either way, every alert with Seq < OldestRetained is gone, and a
// replay cursor behind OldestRetained-1 has provably lost alerts.
func (l *Log) OldestRetained() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.ring) > 0 {
		return l.at(0).Seq
	}
	return l.nextSeq
}

// Len returns the number of retained alerts.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.ring)
}

// Counts returns the number of retained alerts per kind.
func (l *Log) Counts() map[Kind]int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make(map[Kind]int)
	for i := range l.ring {
		out[l.ring[i].Kind]++
	}
	return out
}
