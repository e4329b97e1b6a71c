// Package matching implements the maximal-matching algorithms of the
// paper:
//
//   - RandLuby (Theorem 4): the edge-marking variant of Luby's algorithm —
//     mark each live edge {u,v} with probability 1/(4(d_u+d_v)) and add
//     marked edges with no marked incident edge; edge-averaged complexity
//     O(1), worst case O(log n) w.h.p.
//   - IsraeliItai: the classic proposal matching [II86] with a head/tail
//     coin split, also removing a constant fraction of edges per phase.
//   - Det (Theorem 5, in det.go): deterministic maximal matching via
//     fractional-matching rounding, edge-averaged O(log²Δ + log* n) shape.
//   - Greedy: a centralized oracle for tests.
//
// Matching is an edge-output problem: every edge commits In (int32 1, in
// the matching) or Out (0). A node is complete (Definition 1) once all its
// incident edges have committed.
package matching

import (
	"math/rand/v2"

	"avgloc/internal/graph"
	"avgloc/internal/runtime"
)

// Edge outputs.
const (
	In  int32 = 1
	Out int32 = 0
)

// output is In for a member edge and Out otherwise.
func output(member bool) int32 {
	if member {
		return In
	}
	return Out
}

// RandLuby is the Theorem 4 algorithm. Each phase takes 4 rounds:
// degree exchange, marking, mark census, resolution.
type RandLuby struct{}

// Name implements runtime.Algorithm.
func (RandLuby) Name() string { return "matching/randluby" }

type degMsg struct{ Deg int }

type markMsg struct{}

type countMsg struct{ K int }

type matchedMsg struct{}

// Node implements runtime.Algorithm.
func (RandLuby) Node(view runtime.NodeView) runtime.Program {
	n := &randLubyNode{
		rng:  view.Rand,
		id:   view.ID,
		live: make([]bool, view.Degree),
	}
	for p := range n.live {
		n.live[p] = true
	}
	return n
}

type randLubyNode struct {
	rng  *rand.Rand
	id   int64
	live []bool // per-port: edge not yet decided

	nbrDeg []int
	marked []bool
}

var _ runtime.Program = (*randLubyNode)(nil)

func (n *randLubyNode) liveDeg() int {
	d := 0
	for _, l := range n.live {
		if l {
			d++
		}
	}
	return d
}

func (n *randLubyNode) Round(ctx *runtime.Context, inbox []runtime.Message) {
	view := ctx.View()
	switch ctx.Round() % 4 {
	case 0: // ingest matched announcements from last phase; exchange degrees
		for p, m := range inbox {
			if _, ok := m.(matchedMsg); ok {
				n.live[p] = false
			}
		}
		d := n.liveDeg()
		if d == 0 {
			ctx.Halt() // all incident edges decided by matched neighbors
			return
		}
		for p, l := range n.live {
			if l {
				ctx.Send(p, degMsg{Deg: d})
			}
		}
	case 1: // mark: the smaller-identifier endpoint flips the edge coin
		if n.nbrDeg == nil {
			n.nbrDeg = make([]int, len(n.live))
			n.marked = make([]bool, len(n.live))
		}
		d := n.liveDeg()
		for p := range n.marked {
			n.marked[p] = false
		}
		for p, m := range inbox {
			dm, ok := m.(degMsg)
			if !ok {
				continue
			}
			n.nbrDeg[p] = dm.Deg
			if view.NeighborIDs[p] > n.id {
				prob := 1 / float64(4*(d+dm.Deg))
				if n.rng.Float64() < prob {
					n.marked[p] = true
					ctx.Send(p, markMsg{})
				}
			}
		}
	case 2: // census of marked incident edges
		for p, m := range inbox {
			if _, ok := m.(markMsg); ok {
				n.marked[p] = true
			}
		}
		k := 0
		for _, mk := range n.marked {
			if mk {
				k++
			}
		}
		for p, mk := range n.marked {
			if mk {
				ctx.Send(p, countMsg{K: k})
			}
		}
	case 3: // resolve: an isolated marked edge joins the matching
		myK := 0
		for _, mk := range n.marked {
			if mk {
				myK++
			}
		}
		for p, m := range inbox {
			cm, ok := m.(countMsg)
			if !ok {
				continue
			}
			if n.marked[p] && myK == 1 && cm.K == 1 {
				// Matched via port p: all incident edges are now decided.
				for q, l := range n.live {
					if !l {
						continue
					}
					ctx.CommitEdge(q, output(q == p))
				}
				ctx.Broadcast(matchedMsg{})
				ctx.Halt()
				return
			}
		}
	}
}

// IsraeliItai is the [II86]-style proposal matching: heads propose to a
// random live neighbor, tails accept one proposal; accepted pairs match.
// Each phase takes 3 rounds.
type IsraeliItai struct{}

// Name implements runtime.Algorithm.
func (IsraeliItai) Name() string { return "matching/israeliitai" }

type proposeMsg struct{}

type acceptMsg struct{}

// Node implements runtime.Algorithm.
func (IsraeliItai) Node(view runtime.NodeView) runtime.Program {
	n := &iiNode{rng: view.Rand, live: make([]bool, view.Degree)}
	for p := range n.live {
		n.live[p] = true
	}
	return n
}

type iiNode struct {
	rng      *rand.Rand
	live     []bool
	heads    bool
	proposed int // port proposed on this phase, or -1
	accepted int // port accepted this phase (tail side), or -1
}

var _ runtime.Program = (*iiNode)(nil)

func (n *iiNode) Round(ctx *runtime.Context, inbox []runtime.Message) {
	switch ctx.Round() % 3 {
	case 0: // ingest matches; coin flip; heads propose
		for p, m := range inbox {
			if _, ok := m.(matchedMsg); ok {
				n.live[p] = false
			}
		}
		var livePorts []int
		for p, l := range n.live {
			if l {
				livePorts = append(livePorts, p)
			}
		}
		if len(livePorts) == 0 {
			ctx.Halt()
			return
		}
		n.heads = n.rng.Uint64()&1 == 0
		n.proposed, n.accepted = -1, -1
		if n.heads {
			n.proposed = livePorts[n.rng.IntN(len(livePorts))]
			ctx.Send(n.proposed, proposeMsg{})
		}
	case 1: // tails accept one proposal uniformly at random
		if n.heads {
			return
		}
		var proposers []int
		for p, m := range inbox {
			if _, ok := m.(proposeMsg); ok {
				proposers = append(proposers, p)
			}
		}
		if len(proposers) == 0 {
			return
		}
		n.accepted = proposers[n.rng.IntN(len(proposers))]
		ctx.Send(n.accepted, acceptMsg{})
	case 2:
		// Heads with an accepted proposal match; tails that accepted know
		// the head will match (acceptance always succeeds), so both sides
		// commit in this round.
		if n.heads && n.proposed >= 0 {
			if m := inbox[n.proposed]; m != nil {
				if _, ok := m.(acceptMsg); ok {
					n.matchVia(ctx, n.proposed)
				}
			}
			return
		}
		if !n.heads && n.accepted >= 0 {
			n.matchVia(ctx, n.accepted)
		}
	}
}

// matchVia commits all of the node's live edges (the matched one In, the
// rest Out), announces the match and halts. The tail side of the matched
// edge learns from the announcement; the shared edge is committed only by
// the head to keep commits single-writer, while the Definition 1 completion
// of the tail follows from its incident edges' commits.
func (n *iiNode) matchVia(ctx *runtime.Context, port int) {
	for q, l := range n.live {
		if !l {
			continue
		}
		ctx.CommitEdge(q, output(q == port))
	}
	ctx.Broadcast(matchedMsg{})
	ctx.Halt()
}

// Greedy computes a maximal matching centrally by scanning edges in order
// (oracle for tests).
func Greedy(g *graph.Graph, order []int) []bool {
	in := make([]bool, g.M())
	matched := make([]bool, g.N())
	if order == nil {
		order = make([]int, g.M())
		for i := range order {
			order[i] = i
		}
	}
	for _, e := range order {
		u, v := g.Endpoints(e)
		if !matched[u] && !matched[v] {
			in[e] = true
			matched[u], matched[v] = true, true
		}
	}
	return in
}

// SetFromResult extracts edge membership from a run.
func SetFromResult(res *runtime.Result) []bool {
	in := make([]bool, len(res.EdgeOut))
	for e, out := range res.EdgeOut {
		in[e] = out == In
	}
	return in
}
