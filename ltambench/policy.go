package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/wire"
)

// readOp is one closed-loop read: a Def.-7 request or an Algorithm-1
// query.
type readOp struct {
	inaccessible bool
	sub          profile.SubjectID
	loc          graph.ID
}

// writeOp is one open-loop write. Writes cycle grant, revoke, enter; a
// revoke removes the grant just before it.
type writeOp struct {
	kind string // "grant", "enter" or "revoke"
	sub  profile.SubjectID
	loc  graph.ID
}

// policyPlan is the seeded input of one policy-query phase. The engine
// clock is shared and only moves forward, so every op of the phase runs
// at the one logical instant at: two connections racing to advance it
// would turn late requests into "precedes engine clock" denials. The
// instant falls after shiftBreak, so on grid16-shifts the ingest moves
// (logical times below the break) meet the first shift's windows and
// the Def.-7 reads the second shift's.
type policyPlan struct {
	at     interval.Time
	reads  []readOp
	writes []writeOp
	sample []profile.SubjectID // Algorithm-1 answers checked afterwards
}

func (s *site) policyPlan() policyPlan {
	p := policyPlan{at: max(s.now, shiftBreak.End) + 1 + interval.Time(s.rng.Intn(20000))}
	s.now = p.at
	for i := 0; i < s.w.queryOps; i++ {
		if s.rng.Intn(10) == 0 {
			p.reads = append(p.reads, readOp{inaccessible: true, sub: s.hot[s.rng.Intn(len(s.hot))]})
		} else {
			p.reads = append(p.reads, readOp{
				sub: s.subjects[s.rng.Intn(len(s.subjects))].ID,
				loc: s.rooms[s.rng.Intn(len(s.rooms))],
			})
		}
	}
	for i := 0; i < s.w.writerOps; i++ {
		switch i % 3 {
		case 0:
			p.writes = append(p.writes, writeOp{kind: "grant",
				sub: s.subjects[s.rng.Intn(len(s.subjects))].ID, loc: s.rooms[s.rng.Intn(len(s.rooms))]})
		case 1:
			p.writes = append(p.writes, writeOp{kind: "revoke"})
		default:
			i := s.rng.Intn(len(s.subjects))
			to := 0
			if cur := s.at[i]; cur >= 0 {
				to = s.adj[cur][s.rng.Intn(len(s.adj[cur]))]
			}
			s.at[i] = to
			p.writes = append(p.writes, writeOp{kind: "enter", sub: s.subjects[i].ID, loc: s.rooms[to]})
		}
	}
	for _, i := range s.rng.Perm(len(s.subjects))[:32] {
		p.sample = append(p.sample, s.subjects[i].ID)
	}
	return p
}

// grantFor is the authorization a writer grant adds: the room for a
// short window from the phase's instant on.
func grantFor(op writeOp, at interval.Time) authz.Authorization {
	win := interval.New(at, at+1000)
	return authz.New(win, win, op.sub, op.loc, authz.Unlimited)
}

// policyResult holds the phase's latencies (ms) and write counts.
type policyResult struct {
	request, inaccessible []float64
	grant, enter          []float64
	lateness              []float64
	grants, revokes       int
	failed                int
	firstErr              error
	live                  []writeOp // grants still in the store at the end
}

// runPolicy drives connection 1 as a closed loop of reads and
// connection 2 as an open loop of writes at the workload's writer rate, both
// against client.
func runPolicy(ctx context.Context, client *wire.Client, p policyPlan, rate int) policyResult {
	var (
		res policyResult
		mu  sync.Mutex
		wg  sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
		mu.Unlock()
	}
	// The reader holds gate for each read and the writer for each write,
	// so a write waits for the read in flight and then runs alone: its
	// latency is not taken beside a CPU-saturating reader.
	var gate sync.RWMutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		period := time.Second / time.Duration(rate)
		start := time.Now().Add(period)
		var lastGrant authz.Authorization
		var pending *writeOp // the grant not revoked yet
		for i, op := range p.writes {
			due := start.Add(time.Duration(i) * period)
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d): // the schedule, not a wait on the system
				case <-ctx.Done():
					fail(fmt.Errorf("writer: %w", ctx.Err()))
					return
				}
			}
			late := ms(time.Since(due))
			gate.Lock()
			var err error
			switch op.kind {
			case "grant":
				lastGrant, err = client.AddAuthorization(grantFor(op, p.at))
				if err == nil {
					res.grants++
					pending = &p.writes[i]
					res.grant = append(res.grant, ms(time.Since(due)))
				}
			case "revoke":
				var n int
				n, err = client.RevokeAuthorization(lastGrant.ID)
				if err == nil && n != 1 {
					err = fmt.Errorf("revoke a%d removed %d authorizations", lastGrant.ID, n)
				}
				if err == nil {
					res.revokes++
					pending = nil
				}
			case "enter":
				_, err = client.Enter(p.at, op.sub, op.loc)
				if err == nil {
					res.enter = append(res.enter, ms(time.Since(due)))
				}
			}
			gate.Unlock()
			res.lateness = append(res.lateness, late)
			if err != nil {
				fail(fmt.Errorf("writer %s: %w", op.kind, err))
			}
		}
		if pending != nil {
			res.live = append(res.live, *pending)
		}
	}()
	for _, op := range p.reads {
		if ctx.Err() != nil {
			fail(fmt.Errorf("reader: %w", ctx.Err()))
			break
		}
		gate.RLock()
		start := time.Now()
		var err error
		if op.inaccessible {
			_, err = client.Inaccessible(op.sub)
			res.inaccessible = append(res.inaccessible, ms(time.Since(start)))
		} else {
			_, err = client.Request(p.at, op.sub, op.loc)
			res.request = append(res.request, ms(time.Since(start)))
		}
		gate.RUnlock()
		if err != nil {
			fail(fmt.Errorf("reader: %w", err))
		}
	}
	wg.Wait()
	return res
}

// checkPolicy compares the served answers after the load with the
// system's own state and with the generator's policy: Algorithm-1
// answers over HTTP equal a direct fixpoint on the final store, the
// store holds base + grants - revokes authorizations, and Def.-7
// decisions on a sample match the policy the generator laid down.
func checkPolicy(client *wire.Client, sys *core.System, s *site, p policyPlan, res policyResult) error {
	for _, sub := range p.sample {
		got, err := client.Inaccessible(sub)
		if err != nil {
			return fmt.Errorf("inaccessible %s: %w", sub, err)
		}
		want := query.FindInaccessible(sys.Flat(), sys.AuthStore(), sub, query.Options{}).Inaccessible
		if !slices.Equal(got.Inaccessible, want) {
			return fmt.Errorf("inaccessible %s over HTTP = %v, direct fixpoint = %v", sub, got.Inaccessible, want)
		}
	}
	if got, want := sys.AuthStore().Len(), s.base+res.grants-res.revokes; got != want {
		return fmt.Errorf("store holds %d authorizations, want base %d + %d grants - %d revokes = %d",
			got, s.base, res.grants, res.revokes, want)
	}
	for i, op := range p.reads {
		if op.inaccessible || i%64 != 0 {
			continue
		}
		d, err := client.Request(p.at, op.sub, op.loc)
		if err != nil {
			return fmt.Errorf("request: %w", err)
		}
		if want := s.permits(op.sub, op.loc, p.at, res.live); d.Granted != want {
			return fmt.Errorf("request (%d, %s, %s) granted=%v, the generated policy says %v", p.at, op.sub, op.loc, d.Granted, want)
		}
	}
	return nil
}

// permits is the generator's own Def.-7 oracle for the policy it laid
// down (every grant is unlimited, so entry counts never matter).
func (s *site) permits(sub profile.SubjectID, loc graph.ID, t interval.Time, live []writeOp) bool {
	for _, op := range live {
		if op.sub == sub && op.loc == loc {
			return true // a writer grant starts at the phase's instant
		}
	}
	var groups []string
	for _, x := range s.subjects {
		if x.ID == sub {
			groups = x.Groups
		}
	}
	if len(groups) == 0 {
		return false
	}
	if !s.w.shifts {
		return true
	}
	if shiftBreak.Contains(t) {
		return false
	}
	var r, c int
	if _, err := fmt.Sscanf(string(loc), "r%02d_%02d", &r, &c); err != nil {
		return false
	}
	if c == 0 {
		return true // hallway
	}
	dept := fmt.Sprintf("dept%d", (r-1)/2)
	return r%2 == 1 && c <= 8 && slices.Contains(groups, dept)
}
