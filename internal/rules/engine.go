package rules

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/profile"
)

// Skip records one derivation combination that produced no authorization,
// with the reason (e.g. the entry/exit pairing violated tos >= tis, or the
// base subject has no supervisor). Skips make rule misfires visible
// instead of silently shrinking the derived set — LTAM is explicitly "a
// framework for analyzing the security shortfalls due to human errors in
// specifying authorizations".
type Skip struct {
	Rule   string
	Reason string
}

// Report is the outcome of evaluating one rule.
type Report struct {
	Rule    string
	Derived []authz.Authorization
	Skips   []Skip
}

// Engine owns the rule set and keeps derived authorizations in sync with
// the authorization store and the profile database. It is safe for
// concurrent use.
type Engine struct {
	mu       sync.Mutex
	store    *authz.Store
	profiles *profile.DB
	root     *graph.Graph
	rules    map[string]Rule
	order    []string
}

// NewEngine builds a rule engine over the given databases. When
// autoDerive is true the engine watches the profile database and
// re-derives all rules after every profile change (Example 1), leaving
// out the skipped combinations, which nobody reads.
func NewEngine(store *authz.Store, profiles *profile.DB, root *graph.Graph, autoDerive bool) *Engine {
	e := &Engine{
		store:    store,
		profiles: profiles,
		root:     root,
		rules:    make(map[string]Rule),
	}
	if autoDerive {
		profiles.Watch(func(profile.Change) { _, _ = e.deriveAll(false) })
	}
	return e
}

// AddRule registers the rule and immediately derives its authorizations.
func (e *Engine) AddRule(r Rule) (Report, error) {
	if err := r.Validate(); err != nil {
		return Report{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.rules[r.Name]; dup {
		return Report{}, fmt.Errorf("rules: duplicate rule %q", r.Name)
	}
	if _, err := e.store.Get(r.Base); err != nil {
		return Report{}, fmt.Errorf("rules: rule %q: base authorization: %w", r.Name, err)
	}
	e.rules[r.Name] = r
	e.order = append(e.order, r.Name)
	return e.deriveLocked(r, true)
}

// RestoreRule registers a rule without deriving — used by recovery, where
// the derived authorizations are already present in the restored store.
func (e *Engine) RestoreRule(r Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.rules[r.Name]; dup {
		return fmt.Errorf("rules: duplicate rule %q", r.Name)
	}
	e.rules[r.Name] = r
	e.order = append(e.order, r.Name)
	return nil
}

// Reset forgets every registered rule WITHOUT revoking derived
// authorizations — the restore primitive: a replica re-bootstrapping in
// place replaces the whole authorization store wholesale, so the derived
// rows are already gone, and the fresh snapshot's rules are re-registered
// with RestoreRule.
func (e *Engine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rules = make(map[string]Rule)
	e.order = nil
}

// RemoveRule deletes the rule and revokes everything it derived.
func (e *Engine) RemoveRule(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.rules[name]; !ok {
		return fmt.Errorf("rules: unknown rule %q", name)
	}
	delete(e.rules, name)
	e.order = slices.DeleteFunc(e.order, func(n string) bool { return n == name })
	e.store.RevokeDerived(name)
	return nil
}

// Rules returns the registered rules in insertion order.
func (e *Engine) Rules() []Rule {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Rule, 0, len(e.order))
	for _, name := range e.order {
		out = append(out, e.rules[name])
	}
	return out
}

// Derive re-evaluates one rule: previously derived authorizations are
// revoked and fresh ones derived from the current state of the profile
// database and base authorization.
func (e *Engine) Derive(name string) (Report, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.rules[name]
	if !ok {
		return Report{}, fmt.Errorf("rules: unknown rule %q", name)
	}
	return e.deriveLocked(r, true)
}

// DeriveAll re-evaluates every rule in insertion order.
func (e *Engine) DeriveAll() ([]Report, error) { return e.deriveAll(true) }

func (e *Engine) deriveAll(skips bool) ([]Report, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var reports []Report
	var firstErr error
	for _, name := range e.order {
		rep, err := e.deriveLocked(e.rules[name], skips)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		reports = append(reports, rep)
	}
	return reports, firstErr
}

// deriveLocked evaluates rule r and replaces the rule's output in the
// store with the result. When the result equals the output already
// stored (every field but the ID), the store is left as it is: the
// derived authorizations keep their IDs and no store bucket moves. The
// comparison reads the store only, so a follower applying the same
// records makes the same choice as its primary and assigns the same IDs.
func (e *Engine) deriveLocked(r Rule, skips bool) (Report, error) {
	rep, pending, err := e.evaluateLocked(r, skips)
	current := e.store.Derived(r.Name)
	if err == nil && sameOutput(current, pending) {
		rep.Derived = current
		return rep, nil
	}
	if len(current) > 0 {
		e.store.RevokeDerived(r.Name)
	}
	if err != nil {
		return rep, err
	}
	stored, err := e.store.AddAll(pending)
	if err != nil {
		return rep, fmt.Errorf("rules: rule %q: store: %w", r.Name, err)
	}
	rep.Derived = stored
	return rep, nil
}

// sameOutput reports whether the stored output (sorted by ID, so in the
// order it was added) equals pending in every field but the ID.
func sameOutput(stored, pending []authz.Authorization) bool {
	return slices.EqualFunc(stored, pending, func(a, b authz.Authorization) bool {
		a.ID = b.ID
		return a == b
	})
}

// evaluateLocked applies rule r's operator tuple to the base
// authorization and returns the cartesian product of the derived
// components, skipping combinations whose temporal constraints are
// unsatisfiable (listed in the report only when skips is set).
func (e *Engine) evaluateLocked(r Rule, skips bool) (Report, []authz.Authorization, error) {
	rep := Report{Rule: r.Name}
	base, err := e.store.Get(r.Base)
	if err != nil {
		// The base was revoked after rule registration: the rule is
		// dormant, deriving nothing.
		rep.Skips = append(rep.Skips, Skip{Rule: r.Name, Reason: fmt.Sprintf("base authorization a%d revoked", r.Base)})
		return rep, nil, nil
	}
	ops := r.Ops.withDefaults()

	entrySet := ops.Entry.Apply(base.Entry, r.ValidFrom)
	exitSet := ops.Exit.Apply(base.Exit, r.ValidFrom)
	if entrySet.IsEmpty() {
		rep.Skips = append(rep.Skips, Skip{Rule: r.Name, Reason: "entry operator produced no interval"})
		return rep, nil, nil
	}
	if exitSet.IsEmpty() {
		rep.Skips = append(rep.Skips, Skip{Rule: r.Name, Reason: "exit operator produced no interval"})
		return rep, nil, nil
	}
	subjects, err := ops.Subject.Apply(base.Subject, e.profiles)
	if err != nil {
		return rep, nil, fmt.Errorf("rules: rule %q: subject operator: %w", r.Name, err)
	}
	if len(subjects) == 0 {
		rep.Skips = append(rep.Skips, Skip{Rule: r.Name, Reason: fmt.Sprintf("subject operator %s derived no subjects for %s", ops.Subject, base.Subject)})
		return rep, nil, nil
	}
	slices.Sort(subjects)
	locations, err := ops.Location.Apply(base.Location, e.root)
	if err != nil {
		return rep, nil, fmt.Errorf("rules: rule %q: location operator: %w", r.Name, err)
	}
	if len(locations) == 0 {
		rep.Skips = append(rep.Skips, Skip{Rule: r.Name, Reason: "location operator derived no locations"})
		return rep, nil, nil
	}
	slices.Sort(locations)
	n := ops.Entries.Apply(base.MaxEntries)

	// Validate-or-skip here; the caller stores the survivors as one
	// batch, so readers see each shard's part of the rule's output whole.
	// Given a subject and a location, Validate judges only the windows,
	// so errs holds its verdict once per entry/exit pairing.
	entries, exits := entrySet.Intervals(), exitSet.Intervals()
	var errs []error
	for _, eIv := range entries {
		for _, xIv := range exits {
			errs = append(errs, authz.Authorization{Subject: "s", Location: "l", Entry: eIv, Exit: xIv, MaxEntries: n, CreatedAt: r.ValidFrom}.Normalize().Validate())
		}
	}
	var pending []authz.Authorization
	for _, s := range subjects {
		for _, l := range locations {
			for i, eIv := range entries {
				for j, xIv := range exits {
					a := authz.Authorization{
						Subject:    s,
						Location:   l,
						Entry:      eIv,
						Exit:       xIv,
						MaxEntries: n,
						CreatedAt:  r.ValidFrom,
						DerivedBy:  r.Name,
						BaseID:     base.ID,
					}.Normalize()
					err := errs[i*len(exits)+j]
					if s == "" || l == "" {
						err = a.Validate()
					}
					if err != nil && skips {
						rep.Skips = append(rep.Skips, Skip{Rule: r.Name, Reason: fmt.Sprintf("(%s, %s) entry %s exit %s: %v", s, l, eIv, xIv, err)})
					}
					if err == nil {
						pending = append(pending, a)
					}
				}
			}
		}
	}
	return rep, pending, nil
}

// RevokeBase revokes the authorization with the given ID and the output of
// every registered rule whose base it is. It does not re-derive: those
// rules stay registered, dormant, deriving nothing. It returns the number
// of authorizations removed (base plus derived).
func (e *Engine) RevokeBase(id authz.ID) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.store.Revoke(id); err != nil {
		return 0, err
	}
	removed := 1
	for _, name := range e.order {
		if e.rules[name].Base == id {
			removed += e.store.RevokeDerived(name)
		}
	}
	return removed, nil
}
