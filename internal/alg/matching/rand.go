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
//
// Messages are runtime.Message values whose kinds are declared below: a
// degree or mark-count message carries its number in Val, the others carry
// nothing.
package matching

import (
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

// Message kinds of both randomized algorithms.
const (
	kindDeg     uint32 = iota + 1 // Val: the sender's live degree
	kindMark                      // the sender marked our edge
	kindCount                     // Val: the sender's marked-edge count
	kindMatched                   // the sender matched and halted
	kindPropose
	kindAccept
)

// liveArena returns arena resliced to one flag per port of every node,
// all set: every edge starts undecided.
func liveArena(arena []bool, views []runtime.NodeView) []bool {
	arcs := 0
	for v := range views {
		arcs += views[v].Degree
	}
	arena = runtime.Reslice(arena, arcs)
	for a := range arena {
		arena[a] = true
	}
	return arena
}

// randLubySlab holds a RandLuby run's programs and their port-indexed
// live and marked flags.
type randLubySlab struct {
	nodes        []randLubyNode
	live, marked []bool
}

// Nodes implements runtime.Algorithm.
func (RandLuby) Nodes(views []runtime.NodeView, progs []runtime.Program, slab any) any {
	s, _ := slab.(*randLubySlab)
	if s == nil {
		s = new(randLubySlab)
	}
	s.nodes = runtime.Reslice(s.nodes, len(views))
	s.live = liveArena(s.live, views)
	s.marked = runtime.Reslice(s.marked, len(s.live))
	live, marked := s.live, s.marked
	for v := range s.nodes {
		deg := views[v].Degree
		s.nodes[v] = randLubyNode{live: live[:deg:deg], marked: marked[:deg:deg]}
		live, marked = live[deg:], marked[deg:]
		progs[v] = &s.nodes[v]
	}
	return s
}

type randLubyNode struct {
	live   []bool // per-port: edge not yet decided
	marked []bool // per-port: edge marked this phase
}

var _ runtime.Program = (*randLubyNode)(nil)

// count is the number of set flags.
func count(flags []bool) int {
	k := 0
	for _, f := range flags {
		if f {
			k++
		}
	}
	return k
}

func (n *randLubyNode) Round(ctx *runtime.Context, inbox []runtime.Message) {
	view := ctx.View()
	switch ctx.Round() % 4 {
	case 0: // ingest matched announcements from last phase; exchange degrees
		ingestMatched(n.live, inbox)
		d := count(n.live)
		if d == 0 {
			ctx.Halt() // all incident edges decided by matched neighbors
			return
		}
		for p, l := range n.live {
			if l {
				ctx.Send(p, runtime.Message{Kind: kindDeg, Val: int64(d)})
			}
		}
	case 1: // mark: the smaller-identifier endpoint flips the edge coin
		d := count(n.live)
		clear(n.marked)
		for p, m := range inbox {
			if m.Kind != kindDeg {
				continue
			}
			if view.NeighborIDs[p] > view.ID {
				prob := 1 / float64(4*(d+int(m.Val)))
				if view.Rand.Float64() < prob {
					n.marked[p] = true
					ctx.Send(p, runtime.Message{Kind: kindMark})
				}
			}
		}
	case 2: // census of marked incident edges
		for p, m := range inbox {
			if m.Kind == kindMark {
				n.marked[p] = true
			}
		}
		k := count(n.marked)
		for p, mk := range n.marked {
			if mk {
				ctx.Send(p, runtime.Message{Kind: kindCount, Val: int64(k)})
			}
		}
	case 3: // resolve: an isolated marked edge joins the matching
		myK := count(n.marked)
		for p, m := range inbox {
			if m.Kind == kindCount && n.marked[p] && myK == 1 && m.Val == 1 {
				// Matched via port p: all incident edges are now decided.
				matchVia(ctx, n.live, p)
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

// iiSlab holds an IsraeliItai run's programs and their port-indexed live
// flags.
type iiSlab struct {
	nodes []iiNode
	live  []bool
}

// Nodes implements runtime.Algorithm.
func (IsraeliItai) Nodes(views []runtime.NodeView, progs []runtime.Program, slab any) any {
	s, _ := slab.(*iiSlab)
	if s == nil {
		s = new(iiSlab)
	}
	s.nodes = runtime.Reslice(s.nodes, len(views))
	s.live = liveArena(s.live, views)
	live := s.live
	for v := range s.nodes {
		deg := views[v].Degree
		s.nodes[v].live = live[:deg:deg]
		live = live[deg:]
		progs[v] = &s.nodes[v]
	}
	return s
}

type iiNode struct {
	live     []bool
	heads    bool
	proposed int // port proposed on this phase, or -1
	accepted int // port accepted this phase (tail side), or -1
}

var _ runtime.Program = (*iiNode)(nil)

func (n *iiNode) Round(ctx *runtime.Context, inbox []runtime.Message) {
	rng := ctx.View().Rand
	switch ctx.Round() % 3 {
	case 0: // ingest matches; coin flip; heads propose
		ingestMatched(n.live, inbox)
		live := count(n.live)
		if live == 0 {
			ctx.Halt()
			return
		}
		n.heads = rng.Uint64()&1 == 0
		n.proposed, n.accepted = -1, -1
		if n.heads {
			// Propose on a uniformly random live port: the k-th one.
			k := rng.IntN(live)
			for p, l := range n.live {
				if l {
					if k == 0 {
						n.proposed = p
						break
					}
					k--
				}
			}
			ctx.Send(n.proposed, runtime.Message{Kind: kindPropose})
		}
	case 1: // tails accept one proposal uniformly at random
		if n.heads {
			return
		}
		proposers := 0
		for _, m := range inbox {
			if m.Kind == kindPropose {
				proposers++
			}
		}
		if proposers == 0 {
			return
		}
		k := rng.IntN(proposers)
		for p, m := range inbox {
			if m.Kind == kindPropose {
				if k == 0 {
					n.accepted = p
					break
				}
				k--
			}
		}
		ctx.Send(n.accepted, runtime.Message{Kind: kindAccept})
	case 2:
		// Heads with an accepted proposal match; tails that accepted know
		// the head will match (acceptance always succeeds), so both sides
		// commit in this round.
		if n.heads && n.proposed >= 0 {
			if inbox[n.proposed].Kind == kindAccept {
				matchVia(ctx, n.live, n.proposed)
			}
			return
		}
		if !n.heads && n.accepted >= 0 {
			matchVia(ctx, n.live, n.accepted)
		}
	}
}

// ingestMatched retires the ports whose neighbor announced a match.
func ingestMatched(live []bool, inbox []runtime.Message) {
	for p, m := range inbox {
		if m.Kind == kindMatched {
			live[p] = false
		}
	}
}

// matchVia commits all of the node's live edges (the matched one In, the
// rest Out), announces the match and halts. Both endpoints of the matched
// edge commit it, with the same value.
func matchVia(ctx *runtime.Context, live []bool, port int) {
	for q, l := range live {
		if !l {
			continue
		}
		ctx.CommitEdge(q, output(q == port))
	}
	ctx.Broadcast(runtime.Message{Kind: kindMatched})
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
