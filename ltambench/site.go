package main

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/rules"
	"repro/internal/stream"
)

// workload fixes the site, the policy and the amount of work of one
// round. Every size is a count, never a time budget, so the same seed
// always produces the same inputs and the same log.
type workload struct {
	name string
	why  string
	// loads and bypasses name the layers the workload's input property
	// stresses and the ones it leaves idle.
	loads, bypasses string

	side     int // the site is a side×side grid of unit-square rooms
	subjects int
	// shifts selects the policy: false grants every non-tailgater every
	// room, open-ended; true grants a hallway plus a department wing on
	// two shifts (see shiftBreak).
	shifts bool
	// hot > 0 draws Algorithm-1 subjects from a hot set of that many
	// subjects; 0 draws from all subjects. The server reads the memo
	// twice per Algorithm-1 query (Inaccessible, then Accessible from
	// the same entry), so query.memo_hit_ratio is 0.5 when every query
	// runs the fixpoint and 0.5 + a/2 when a share a is answered from
	// the memo. Traced runs (seeds 21, 22) measured 0.85 with hot: 16
	// on grid8-hot (about 7 in 10 queries answered from the memo) and
	// 0.63 with hot: 0 on grid16-shifts (about 1 in 4).
	hot int

	firehoseFrames int // closed-loop ingest frames
	pacedFrames    int // open-loop ingest frames
	// queryOps closed-loop reads (90% Def. 7, 10% Algorithm 1) outlast
	// the writerOps open-loop writes (see writeOp) at writerRate ops/s,
	// so every write is interleaved with reads, never after them. The
	// rate leaves the writer idle most of the time, so a write seldom
	// queues behind the one before it.
	queryOps, writerOps, writerRate int
}

// The loop shapes every workload shares.
const (
	firehoseWindow = 4096  // closed-loop in-flight frame window
	pacedRate      = 10000 // open-loop ingest rate, frames/s (multiple of 1000)
)

var workloads = []workload{
	{
		name:     "grid8-hot",
		why:      "8x8 grid, 256 subjects, open-ended grants on every room; Algorithm-1 reads go to a hot set of 16 subjects, so the memo answers about 7 in 10 (memo_hit_ratio 0.85, two memo reads per query)",
		loads:    "wire, stream chunker, core apply, WAL append/fsync, bus delivery, replication, memo hits",
		bypasses: "Algorithm-1 fixpoint (mostly memo hits), large-shard copy-on-write",
		side:     8, subjects: 256, hot: 16,
		firehoseFrames: 60000, pacedFrames: 3000,
		queryOps: 16000, writerOps: 60, writerRate: 60,
	},
	{
		name:     "grid16-shifts",
		why:      "16x16 grid, 512 subjects, ~35k grants on two shifts (ingest moves in the first, reads in the second); Algorithm-1 reads over all subjects, so about 3 in 4 run the fixpoint (memo_hit_ratio 0.63)",
		loads:    "Algorithm-1 fixpoint, copy-on-write grants on large shards, rule derivation at set-up, plus the same write path",
		bypasses: "most memo hits (about 3 in 4 Algorithm-1 queries run the fixpoint)",
		side:     16, subjects: 512, shifts: true,
		firehoseFrames: 60000, pacedFrames: 3000,
		queryOps: 16000, writerOps: 45, writerRate: 30,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shiftBreak is the break between the two shifts of the grid16-shifts
// policy, on the logical clock the ingest frames advance by one per
// frame. Its rules apply WHENEVERNOT to it, deriving the entry windows
// [1, 150000] and [170000, ∞) and three authorizations per (subject,
// room): each shift, plus the first shift's entry with the second
// shift's exit.
var shiftBreak = interval.New(150001, 169999)

// site is the generated building, policy plan and walker state of one
// round. It is built from the seed alone.
type site struct {
	w       workload
	g       *graph.Graph
	bounds  []geometry.Boundary
	centers []geometry.Point
	rooms   []graph.ID
	adj     [][]int

	subjects   []profile.Subject
	tailgaters int
	hot        []profile.SubjectID // Algorithm-1 subject pool

	rng  *rand.Rand
	at   []int // walker room index per subject, -1 outside
	now  interval.Time
	base int // authorizations in the store after set-up
}

func roomName(r, c int) string { return fmt.Sprintf("r%02d_%02d", r, c) }

func newSite(w workload, seed int64) *site {
	s := &site{w: w, g: graph.New("grid"), rng: rand.New(rand.NewSource(seed))}
	side := w.side
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			s.rooms = append(s.rooms, graph.ID(roomName(r, c)))
			if err := s.g.AddLocation(graph.ID(roomName(r, c))); err != nil {
				panic(err) // names are unique by construction
			}
		}
	}
	s.adj = make([][]int, len(s.rooms))
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			i := r*side + c
			if r+1 < side {
				_ = s.g.AddEdge(s.rooms[i], s.rooms[i+side])
				s.adj[i] = append(s.adj[i], i+side)
				s.adj[i+side] = append(s.adj[i+side], i)
			}
			if c+1 < side {
				_ = s.g.AddEdge(s.rooms[i], s.rooms[i+1])
				s.adj[i] = append(s.adj[i], i+1)
				s.adj[i+1] = append(s.adj[i+1], i)
			}
		}
	}
	if err := s.g.SetEntry(s.rooms[0]); err != nil {
		panic(err)
	}
	s.bounds, s.centers = geometry.UnitGrid(side, roomName)

	for i := 0; i < w.subjects; i++ {
		sub := profile.Subject{ID: profile.SubjectID(fmt.Sprintf("u%04d", i))}
		if s.rng.Float64() < 0.05 {
			s.tailgaters++ // no groups, so no rule derives a grant
		} else {
			sub.Groups = []string{"staff", fmt.Sprintf("dept%d", i%8)}
		}
		s.subjects = append(s.subjects, sub)
	}
	perm := s.rng.Perm(w.subjects)
	n := w.hot
	if n == 0 {
		n = w.subjects
	}
	for _, i := range perm[:n] {
		s.hot = append(s.hot, s.subjects[i].ID)
	}
	s.at = make([]int, w.subjects)
	for i := range s.at {
		s.at[i] = -1
	}
	return s
}

// ruleSpecs returns the base authorizations and the rules that derive
// the policy (Example 1's bulk path: one logged rule derives a grant
// for every member of a group).
func (s *site) ruleSpecs() ([]authz.Authorization, []rules.Spec) {
	const tmpl = profile.SubjectID("template")
	if !s.w.shifts {
		base := []authz.Authorization{authz.New(interval.From(1), interval.From(1), tmpl, s.rooms[0], authz.Unlimited)}
		return base, []rules.Spec{{Name: "staff-all", Subject: "Members_Of(staff)", Location: "all_in(grid)"}}
	}
	base := []authz.Authorization{authz.New(shiftBreak, shiftBreak, tmpl, s.rooms[0], authz.Unlimited)}
	shift := func(name, subject, room string) rules.Spec {
		return rules.Spec{Name: name, ValidFrom: 1, Entry: "WHENEVERNOT", Exit: "WHENEVERNOT", Subject: subject, Location: room}
	}
	var specs []rules.Spec
	// Hallway: column 0, the entry's corridor, for all staff.
	for r := 0; r < s.w.side; r++ {
		specs = append(specs, shift("hall-"+roomName(r, 0), "Members_Of(staff)", roomName(r, 0)))
	}
	// Department wing: row 2d+1, columns 1..8.
	for d := 0; d < 8; d++ {
		for c := 1; c <= 8; c++ {
			specs = append(specs, shift(fmt.Sprintf("dept%d-%s", d, roomName(2*d+1, c)), fmt.Sprintf("Members_Of(dept%d)", d), roomName(2*d+1, c)))
		}
	}
	return base, specs
}

// load registers the subjects and the policy on sys. Independent writes
// run from several goroutines so the group committer shares fsyncs
// between them; rules go in after every subject, so no profile write
// re-derives them.
func (s *site) load(sys *core.System) error {
	if err := parallel(len(s.subjects), func(i int) error { return sys.PutSubject(s.subjects[i]) }); err != nil {
		return fmt.Errorf("put subjects: %w", err)
	}
	base, specs := s.ruleSpecs()
	ids := make([]authz.ID, len(base))
	for i, a := range base {
		stored, err := sys.AddAuthorization(a)
		if err != nil {
			return fmt.Errorf("base authorization: %w", err)
		}
		ids[i] = stored.ID
	}
	if err := parallel(len(specs), func(i int) error {
		spec := specs[i]
		spec.Base = ids[spec.Base]
		_, err := sys.AddRule(spec)
		return err
	}); err != nil {
		return fmt.Errorf("add rules: %w", err)
	}
	s.base = sys.AuthStore().Len()
	return nil
}

// parallel runs fn(0..n-1) on a fixed set of workers and returns the
// first error.
func parallel(n int, fn func(i int) error) error {
	const workers = 16
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan int)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}

// step moves a seeded subject to an adjacent room (or through the entry
// when it is outside) and returns the reading, one tick of the logical
// clock later. Every reading changes the subject's room, so each one
// produces exactly one WAL record.
func (s *site) step() stream.ObserveFrame {
	i := s.rng.Intn(len(s.subjects))
	to := 0
	if cur := s.at[i]; cur >= 0 {
		ns := s.adj[cur]
		to = ns[s.rng.Intn(len(ns))]
	}
	s.at[i] = to
	s.now++
	p := s.centers[to]
	return stream.ObserveFrame{Time: s.now, Subject: s.subjects[i].ID, X: p.X, Y: p.Y}
}

func (s *site) frames(n int) []stream.ObserveFrame {
	out := make([]stream.ObserveFrame, n)
	for i := range out {
		out[i] = s.step()
	}
	return out
}

// where returns the walker's room for subject index i ("" outside).
func (s *site) where(i int) graph.ID {
	if s.at[i] < 0 {
		return ""
	}
	return s.rooms[s.at[i]]
}
