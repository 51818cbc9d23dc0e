// Package rules implements LTAM authorization rules (Definition 5): rules
// ⟨tr : (a, OP)⟩ that derive new authorizations from a base authorization
// through a tuple of operators OP = (op_entry, op_exit, op_subject,
// op_location, exp_n), together with the derivation engine that keeps
// derived authorizations consistent with the profile database (Example 1:
// when Alice is assigned a different supervisor, the system automatically
// derives the authorization for the new supervisor and revokes Bob's).
package rules

import (
	"errors"
	"fmt"

	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

// SubjectOp derives the subjects of the derived authorizations from the
// base authorization's subject (op_subject of Def. 5), consulting the
// user profile database.
type SubjectOp interface {
	Apply(base profile.SubjectID, profiles *profile.DB) ([]profile.SubjectID, error)
	String() string
}

// SameSubject copies the base subject (the default when op_subject is
// unspecified — "the default value will be copied from the base
// authorization").
type SameSubject struct{}

// Apply implements SubjectOp.
func (SameSubject) Apply(base profile.SubjectID, _ *profile.DB) ([]profile.SubjectID, error) {
	return []profile.SubjectID{base}, nil
}

func (SameSubject) String() string { return "SAME" }

// SupervisorOf is the paper's Supervisor_Of operator: it "returns the
// supervisor of a user by querying the user profile database". A subject
// without a supervisor derives nothing (not an error — the rule is simply
// vacuous, and becomes productive when a supervisor is later assigned).
type SupervisorOf struct{}

// Apply implements SubjectOp.
func (SupervisorOf) Apply(base profile.SubjectID, profiles *profile.DB) ([]profile.SubjectID, error) {
	sup, ok, err := profiles.SupervisorOf(base)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	return []profile.SubjectID{sup}, nil
}

func (SupervisorOf) String() string { return "Supervisor_Of" }

// DirectReportsOf derives one authorization per direct report of the base
// subject — the inverse of SupervisorOf, useful for escorting rules.
type DirectReportsOf struct{}

// Apply implements SubjectOp.
func (DirectReportsOf) Apply(base profile.SubjectID, profiles *profile.DB) ([]profile.SubjectID, error) {
	return profiles.DirectReports(base), nil
}

func (DirectReportsOf) String() string { return "Direct_Reports_Of" }

// MembersOf derives one authorization per member of the named group,
// ignoring the base subject.
type MembersOf struct{ Group string }

// Apply implements SubjectOp.
func (op MembersOf) Apply(_ profile.SubjectID, profiles *profile.DB) ([]profile.SubjectID, error) {
	return profiles.MembersOf(op.Group), nil
}

func (op MembersOf) String() string { return fmt.Sprintf("Members_Of(%s)", op.Group) }

// HoldersOf derives one authorization per holder of the named role.
type HoldersOf struct{ Role string }

// Apply implements SubjectOp.
func (op HoldersOf) Apply(_ profile.SubjectID, profiles *profile.DB) ([]profile.SubjectID, error) {
	return profiles.HoldersOf(op.Role), nil
}

func (op HoldersOf) String() string { return fmt.Sprintf("Holders_Of(%s)", op.Role) }

// SubjectFunc adapts a function as a customized subject operator (the
// paper: "customized operators can be defined as well").
type SubjectFunc struct {
	Name string
	Fn   func(base profile.SubjectID, profiles *profile.DB) ([]profile.SubjectID, error)
}

// Apply implements SubjectOp.
func (f SubjectFunc) Apply(base profile.SubjectID, profiles *profile.DB) ([]profile.SubjectID, error) {
	return f.Fn(base, profiles)
}

func (f SubjectFunc) String() string {
	if f.Name == "" {
		return "CUSTOM"
	}
	return f.Name
}

// LocationOp derives the locations of the derived authorizations from the
// base authorization's location (op_location of Def. 5), consulting the
// location graph.
type LocationOp interface {
	Apply(base graph.ID, root *graph.Graph) ([]graph.ID, error)
	String() string
}

// SameLocation copies the base location (the default).
type SameLocation struct{}

// Apply implements LocationOp.
func (SameLocation) Apply(base graph.ID, _ *graph.Graph) ([]graph.ID, error) {
	return []graph.ID{base}, nil
}

func (SameLocation) String() string { return "SAME" }

// FixedLocation derives for an explicitly named primitive location,
// ignoring the base (rule r1 of Example 1 names CAIS explicitly).
type FixedLocation struct{ Location graph.ID }

// Apply implements LocationOp.
func (op FixedLocation) Apply(_ graph.ID, root *graph.Graph) ([]graph.ID, error) {
	if root.FindGraphOf(op.Location) == nil {
		return nil, fmt.Errorf("rules: location %q is not a primitive location", op.Location)
	}
	return []graph.ID{op.Location}, nil
}

func (op FixedLocation) String() string { return string(op.Location) }

// AllRouteFrom is the paper's all_route_from operator (Example 3): given
// source src, it returns "all the locations on the route from source src
// to destination l", l being the base location. The operator is scoped to
// the smallest composite location containing both endpoints, matching the
// paper's example where routes from SCE.GO to CAIS stay within SCE.
type AllRouteFrom struct{ Source graph.ID }

// Apply implements LocationOp.
func (op AllRouteFrom) Apply(base graph.ID, root *graph.Graph) ([]graph.ID, error) {
	scope := smallestCommonComposite(root, op.Source, base)
	if scope == nil {
		return nil, fmt.Errorf("rules: no composite contains both %q and %q", op.Source, base)
	}
	f := graph.Expand(scope)
	locs := f.RouteLocations(op.Source, base)
	if len(locs) == 0 {
		return nil, fmt.Errorf("rules: no route from %q to %q", op.Source, base)
	}
	return locs, nil
}

func (op AllRouteFrom) String() string { return fmt.Sprintf("all_route_from(%s)", op.Source) }

// smallestCommonComposite returns the composite graph with the fewest
// primitive locations that contains both a and b (root when nothing
// smaller qualifies), or nil when either location is unknown.
func smallestCommonComposite(root *graph.Graph, a, b graph.ID) *graph.Graph {
	if root.FindGraphOf(a) == nil || root.FindGraphOf(b) == nil {
		return nil
	}
	best := root
	bestSize := len(root.Primitives())
	var walk func(g *graph.Graph)
	walk = func(g *graph.Graph) {
		for _, id := range g.Locations() {
			if c := g.Child(id); c != nil {
				if c.FindGraphOf(a) != nil && c.FindGraphOf(b) != nil {
					if sz := len(c.Primitives()); sz < bestSize {
						best, bestSize = c, sz
					}
				}
				walk(c)
			}
		}
	}
	walk(root)
	return best
}

// NeighborsOf derives for the base location's direct neighbours in the
// expanded graph (including it or not per IncludeSelf).
type NeighborsOf struct{ IncludeSelf bool }

// Apply implements LocationOp.
func (op NeighborsOf) Apply(base graph.ID, root *graph.Graph) ([]graph.ID, error) {
	f := graph.Expand(root)
	if _, ok := f.Index[base]; !ok {
		return nil, fmt.Errorf("rules: location %q is not a primitive location", base)
	}
	out := f.NeighborsOf(base)
	if op.IncludeSelf {
		out = append([]graph.ID{base}, out...)
	}
	return out, nil
}

func (op NeighborsOf) String() string {
	if op.IncludeSelf {
		return "neighbors_of_self"
	}
	return "neighbors_of"
}

// AllIn derives for every primitive location of the named composite —
// e.g. granting a dean all rooms of the school.
type AllIn struct{ Composite graph.ID }

// Apply implements LocationOp.
func (op AllIn) Apply(_ graph.ID, root *graph.Graph) ([]graph.ID, error) {
	g := root.FindComposite(op.Composite)
	if g == nil {
		return nil, fmt.Errorf("rules: composite %q not found", op.Composite)
	}
	return g.Primitives(), nil
}

func (op AllIn) String() string { return fmt.Sprintf("all_in(%s)", op.Composite) }

// LocationFunc adapts a function as a customized location operator.
type LocationFunc struct {
	Name string
	Fn   func(base graph.ID, root *graph.Graph) ([]graph.ID, error)
}

// Apply implements LocationOp.
func (f LocationFunc) Apply(base graph.ID, root *graph.Graph) ([]graph.ID, error) {
	return f.Fn(base, root)
}

func (f LocationFunc) String() string {
	if f.Name == "" {
		return "CUSTOM"
	}
	return f.Name
}

// EntryExpr is exp_n of Def. 5: "a numeric expression on the number of
// entries" deriving the entry count of derived authorizations from the
// base's.
type EntryExpr interface {
	Apply(base int64) int64
	String() string
}

// SameEntries copies the base count (the default).
type SameEntries struct{}

// Apply implements EntryExpr.
func (SameEntries) Apply(base int64) int64 { return base }

func (SameEntries) String() string { return "SAME" }

// ConstEntries sets a fixed count (rule r1 writes the literal 2).
type ConstEntries struct{ N int64 }

// Apply implements EntryExpr.
func (c ConstEntries) Apply(int64) int64 { return c.N }

func (c ConstEntries) String() string { return fmt.Sprintf("%d", c.N) }

// AddEntries adds a delta to the base count, clamped at 1; an unlimited
// base stays unlimited.
type AddEntries struct{ Delta int64 }

// Apply implements EntryExpr.
func (a AddEntries) Apply(base int64) int64 {
	if base == authz.Unlimited {
		return authz.Unlimited
	}
	n := base + a.Delta
	if n < 1 {
		return 1
	}
	return n
}

func (a AddEntries) String() string { return fmt.Sprintf("n%+d", a.Delta) }

// ScaleEntries multiplies the base count, clamped at 1; an unlimited base
// stays unlimited.
type ScaleEntries struct{ Factor int64 }

// Apply implements EntryExpr.
func (s ScaleEntries) Apply(base int64) int64 {
	if base == authz.Unlimited {
		return authz.Unlimited
	}
	n := base * s.Factor
	if n < 1 {
		return 1
	}
	return n
}

func (s ScaleEntries) String() string { return fmt.Sprintf("n*%d", s.Factor) }

// Ops is the operator tuple OP of Definition 5. Nil fields take the
// paper's default: "if any of the rule elements is not specified in a
// rule, the default value will be copied from the base authorization."
type Ops struct {
	Entry    interval.TemporalOp // op_entry
	Exit     interval.TemporalOp // op_exit
	Subject  SubjectOp           // op_subject
	Location LocationOp          // op_location
	Entries  EntryExpr           // exp_n
}

func (o Ops) withDefaults() Ops {
	if o.Entry == nil {
		o.Entry = interval.Whenever{}
	}
	if o.Exit == nil {
		o.Exit = interval.Whenever{}
	}
	if o.Subject == nil {
		o.Subject = SameSubject{}
	}
	if o.Location == nil {
		o.Location = SameLocation{}
	}
	if o.Entries == nil {
		o.Entries = SameEntries{}
	}
	return o
}

// String renders the tuple in the paper's notation, e.g.
// "(WHENEVER, WHENEVER, Supervisor_Of, CAIS, 2)".
func (o Ops) String() string {
	o = o.withDefaults()
	return fmt.Sprintf("(%s, %s, %s, %s, %s)", o.Entry, o.Exit, o.Subject, o.Location, o.Entries)
}

// Rule is an authorization rule ⟨tr : (a, OP)⟩ — Definition 5. Base
// references the base authorization in the store.
type Rule struct {
	// Name identifies the rule (the paper writes r1, r2, …).
	Name string
	// ValidFrom is tr, the time from when the rule is valid; it anchors
	// WHENEVERNOT complements and the CreatedAt of derived auths.
	ValidFrom interval.Time
	// Base is the base authorization's ID.
	Base authz.ID
	// Ops is the operator tuple.
	Ops Ops
}

// Validate checks the rule's static well-formedness.
func (r Rule) Validate() error {
	if r.Name == "" {
		return errors.New("rules: rule needs a name")
	}
	if r.Base == 0 {
		return errors.New("rules: rule needs a base authorization")
	}
	return nil
}

// String renders the rule in the paper's notation ⟨tr : (a, OP)⟩.
func (r Rule) String() string {
	return fmt.Sprintf("⟨%s: a%d, %s⟩", r.ValidFrom, r.Base, r.Ops)
}
