package locality_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"avgloc/internal/graph"
	"avgloc/internal/locality"
)

// op is one recorded action against a Sim, so the same random sequence can
// be replayed against independent simulations.
type op struct {
	kind  int // 0 advance, 1 commit node, 2 commit edge
	id    int
	round int // commit round; -1 = current clock
	out   int32
}

// randomOps draws a valid operation sequence for g: each node and edge is
// committed exactly once, interleaved with random advances, a random
// subset backdated to an earlier round.
func randomOps(g *graph.Graph, rng *rand.Rand) []op {
	var ops []op
	nodes := rng.Perm(g.N())
	edges := rng.Perm(g.M())
	clock := 0
	for len(nodes) > 0 || len(edges) > 0 {
		switch {
		case rng.IntN(3) == 0:
			r := rng.IntN(4)
			ops = append(ops, op{kind: 0, round: r})
			clock += r
		case len(nodes) > 0 && (len(edges) == 0 || rng.IntN(2) == 0):
			v := nodes[0]
			nodes = nodes[1:]
			o := op{kind: 1, id: v, round: -1, out: int32(7*v + 1)}
			if clock > 0 && rng.IntN(2) == 0 {
				o.round = rng.IntN(clock + 1)
			}
			ops = append(ops, o)
		default:
			e := edges[0]
			edges = edges[1:]
			o := op{kind: 2, id: e, round: -1, out: int32(e * 3)}
			if clock > 0 && rng.IntN(2) == 0 {
				o.round = rng.IntN(clock + 1)
			}
			ops = append(ops, o)
		}
	}
	return ops
}

func apply(s *locality.Sim, ops []op) {
	for _, o := range ops {
		switch o.kind {
		case 0:
			s.Advance(o.round, "random phase")
		case 1:
			if o.round < 0 {
				s.CommitNode(o.id, o.out)
			} else {
				s.CommitNodeAt(o.id, o.out, o.round)
			}
		case 2:
			if o.round < 0 {
				s.CommitEdge(o.id, o.out)
			} else {
				s.CommitEdgeAt(o.id, o.out, o.round)
			}
		}
	}
}

func testGraphs(rng *rand.Rand) []*graph.Graph {
	return []*graph.Graph{
		graph.Path(8),
		graph.Cycle(12),
		graph.RandomTree(24, rng),
		graph.GNP(16, 0.3, rng),
	}
}

// TestPropertyDeterministicReplay: the exported API is a pure function of
// the operation sequence — replaying identical ops on fresh simulations of
// the same graph yields deeply equal Results.
func TestPropertyDeterministicReplay(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 1))
	for gi, g := range testGraphs(rng) {
		for trial := 0; trial < 20; trial++ {
			ops := randomOps(g, rng)
			a, b := locality.New(g), locality.New(g)
			apply(a, ops)
			apply(b, ops)
			ra, errA := a.Result()
			rb, errB := b.Result()
			if (errA == nil) != (errB == nil) {
				t.Fatalf("graph %d trial %d: error divergence %v vs %v", gi, trial, errA, errB)
			}
			if errA != nil {
				continue
			}
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("graph %d trial %d: replay diverged:\n%+v\nvs\n%+v", gi, trial, ra, rb)
			}
		}
	}
}

// TestPropertyLedgerInvariants: on every random sequence, the final ledger
// satisfies the structural invariants the measure pipeline relies on —
// the clock equals the sum of charges, every commit round lies in
// [0, clock], and the halt ledger aliases the commit ledger (an r-round
// node is exactly a node whose output is a function of its radius-r view,
// so it halts when it commits).
func TestPropertyLedgerInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 2))
	for gi, g := range testGraphs(rng) {
		for trial := 0; trial < 20; trial++ {
			s := locality.New(g)
			apply(s, randomOps(g, rng))
			res, err := s.Result()
			if err != nil {
				t.Fatalf("graph %d trial %d: %v", gi, trial, err)
			}
			sum := 0
			for _, c := range s.Charges() {
				sum += c.Rounds
			}
			if res.Rounds != sum || res.Rounds != s.Clock() {
				t.Fatalf("graph %d trial %d: rounds %d, charges sum %d, clock %d", gi, trial, res.Rounds, sum, s.Clock())
			}
			for v, r := range res.NodeCommit {
				if r < 0 || int(r) > res.Rounds {
					t.Fatalf("graph %d trial %d: node %d commit %d outside [0,%d]", gi, trial, v, r, res.Rounds)
				}
				if res.NodeHalt[v] != r {
					t.Fatalf("graph %d trial %d: node %d halt %d != commit %d", gi, trial, v, res.NodeHalt[v], r)
				}
			}
			for e, r := range res.EdgeCommit {
				if r < 0 || int(r) > res.Rounds {
					t.Fatalf("graph %d trial %d: edge %d commit %d outside [0,%d]", gi, trial, e, r, res.Rounds)
				}
			}
		}
	}
}

// TestPropertyViewRadiusEquivalence is the Section 2 equivalence on the
// exported API: an output committed for round r represents a function of
// the radius-r view, so HOW the commit reaches the ledger — live at the
// moment the clock stood at r, or backdated via CommitNodeAt/CommitEdgeAt
// after later phases — must not change any output or committed round.
func TestPropertyViewRadiusEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 3))
	for gi, g := range testGraphs(rng) {
		for trial := 0; trial < 20; trial++ {
			// Draw one committed round per node/edge from a shared phase
			// schedule.
			phases := []int{1 + rng.IntN(3), 1 + rng.IntN(3), 1 + rng.IntN(3)}
			total := 0
			marks := []int{0}
			for _, p := range phases {
				total += p
				marks = append(marks, total)
			}
			nodeRound := make([]int, g.N())
			for v := range nodeRound {
				nodeRound[v] = marks[rng.IntN(len(marks))]
			}
			edgeRound := make([]int, g.M())
			for e := range edgeRound {
				edgeRound[e] = marks[rng.IntN(len(marks))]
			}

			// Live: commit at the moment the clock reaches the round.
			live := locality.New(g)
			commitLive := func(clock int) {
				for v, r := range nodeRound {
					if r == clock {
						live.CommitNode(v, int32(v*7))
					}
				}
				for e, r := range edgeRound {
					if r == clock {
						live.CommitEdge(e, int32(e%2))
					}
				}
			}
			commitLive(0)
			for _, p := range phases {
				live.Advance(p, "phase")
				commitLive(live.Clock())
			}

			// Backdated: run all phases first, then commit everything via
			// the *At forms in a shuffled order.
			back := locality.New(g)
			for _, p := range phases {
				back.Advance(p, "phase")
			}
			for _, v := range rng.Perm(g.N()) {
				back.CommitNodeAt(v, int32(v*7), nodeRound[v])
			}
			for _, e := range rng.Perm(g.M()) {
				back.CommitEdgeAt(e, int32(e%2), edgeRound[e])
			}

			ra, err := live.Result()
			if err != nil {
				t.Fatalf("graph %d trial %d live: %v", gi, trial, err)
			}
			rb, err := back.Result()
			if err != nil {
				t.Fatalf("graph %d trial %d backdated: %v", gi, trial, err)
			}
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("graph %d trial %d: live and backdated ledgers diverge:\n%+v\nvs\n%+v", gi, trial, ra, rb)
			}
		}
	}
}

// TestPropertyCommitOrderIrrelevant: commits recorded for the same rounds
// in different interleavings produce identical ledgers — outputs are keyed
// by node/edge index, never by commit order.
func TestPropertyCommitOrderIrrelevant(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 4))
	g := graph.Cycle(16)
	for trial := 0; trial < 20; trial++ {
		rounds := make([]int, g.N())
		for v := range rounds {
			rounds[v] = rng.IntN(5)
		}
		build := func(perm []int) *locality.Sim {
			s := locality.New(g)
			s.Advance(4, "all phases")
			for _, v := range perm {
				s.CommitNodeAt(v, int32(v), rounds[v])
				s.CommitEdgeAt(v, int32(v), rounds[v]) // cycle: m == n
			}
			return s
		}
		ra, err := build(rng.Perm(g.N())).Result()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := build(rng.Perm(g.N())).Result()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("trial %d: commit order changed the ledger", trial)
		}
	}
}

// TestPropertyErrorsAlwaysSurface: injecting one invalid action anywhere in
// a valid sequence must make Result fail, regardless of position.
func TestPropertyErrorsAlwaysSurface(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 5))
	g := graph.Path(10)
	for trial := 0; trial < 30; trial++ {
		ops := randomOps(g, rng)
		// Duplicate one commit op (double commit) at a random later point.
		var commits []int
		for i, o := range ops {
			if o.kind != 0 {
				commits = append(commits, i)
			}
		}
		dup := ops[commits[rng.IntN(len(commits))]]
		pos := rng.IntN(len(ops) + 1)
		bad := append(append(append([]op{}, ops[:pos]...), dup), ops[pos:]...)

		s := locality.New(g)
		apply(s, bad)
		if _, err := s.Result(); err == nil {
			t.Fatalf("trial %d: double commit at position %d accepted", trial, pos)
		}
	}
}
