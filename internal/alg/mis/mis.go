// Package mis implements maximal-independent-set algorithms from the paper
// and its cited baselines:
//
//   - Luby: the classic randomized MIS [Lub86, ABI86] (permutation
//     variant). Section 3.1: one-sided edge-averaged complexity O(1), but
//     node-averaged complexity Ω(min{log Δ/log log Δ, √(log n/log log n)})
//     on the KMW family (Theorem 16).
//   - Ghaffari: the desire-level MIS of [Gha16], standing in for the
//     [BYCHGS17] algorithm: every node is decided with constant
//     probability per phase, giving node-averaged complexity O(log Δ)
//     shape.
//   - Greedy: a centralized sequential oracle used by tests.
//
// Node outputs are int32: In (1) = in the MIS, Out (0) = covered by a
// neighbor.
//
// Messages are runtime.Message values of two kinds. A lottery message
// carries the sender's rank in Val (its bits as an int64) and, for
// Ghaffari, the sender's marking probability 2^-Aux in Aux (Aux 0 for
// probability 0); the sender's identifier, the rank tie-break, is read
// from NeighborIDs. After the lottery every candidate announces whether it
// joined (kindJoined) or not (kindDeclined).
package mis

import (
	"math"

	"avgloc/internal/graph"
	"avgloc/internal/runtime"
)

// Output values committed by the MIS algorithms.
const (
	In  int32 = 1
	Out int32 = 0
)

// phase sub-rounds shared by the randomized algorithms: candidates
// announce a lottery value, winners announce joining, covered nodes retire.
const (
	stepLottery = iota
	stepJoin
	stepRetire
	phaseLen
)

// Message kinds.
const (
	kindLottery uint32 = iota + 1
	kindJoined
	kindDeclined
)

// beats reports whether a lottery message from the neighbor with
// identifier nbrID beats the node's own rank and identifier: lower ranks
// win, ties go to the lower identifier.
func beats(m runtime.Message, nbrID int64, rank uint64, id int64) bool {
	r := uint64(m.Val)
	return r < rank || (r == rank && nbrID < id)
}

// Luby is Luby's randomized MIS algorithm (permutation variant): in each
// phase every active node draws a random rank and joins the MIS iff its
// rank precedes the ranks of all active neighbors; nodes adjacent to
// joiners retire. Each phase takes 3 rounds and removes at least half of
// the incident edges in expectation.
type Luby struct{}

// Name implements runtime.Algorithm.
func (Luby) Name() string { return "mis/luby" }

// Nodes implements runtime.Algorithm.
func (Luby) Nodes(_ []runtime.NodeView, progs []runtime.Program, slab any) any {
	return runtime.Slab[lubyNode](progs, slab)
}

type lubyNode struct {
	rank   uint64
	joined bool
}

var _ runtime.Program = (*lubyNode)(nil)

func (n *lubyNode) Round(ctx *runtime.Context, inbox []runtime.Message) {
	view := ctx.View()
	switch ctx.Round() % phaseLen {
	case stepLottery:
		n.rank = view.Rand.Uint64()
		ctx.Broadcast(runtime.Message{Kind: kindLottery, Val: int64(n.rank)})
	case stepJoin:
		best := true
		for p, m := range inbox {
			if m.Kind == kindLottery && beats(m, view.NeighborIDs[p], n.rank, view.ID) {
				best = false
				break
			}
		}
		n.join(ctx, best)
	case stepRetire:
		n.retire(ctx, inbox)
	}
}

// join ends the lottery: a winner joins the MIS, and every candidate tells
// its neighbors whether it joined.
func (n *lubyNode) join(ctx *runtime.Context, win bool) {
	if win {
		n.joined = true
		ctx.CommitNode(In)
		ctx.Broadcast(runtime.Message{Kind: kindJoined})
	} else {
		ctx.Broadcast(runtime.Message{Kind: kindDeclined})
	}
}

// retire halts a joined node, and a node with a joined neighbor after
// committing Out.
func (n *lubyNode) retire(ctx *runtime.Context, inbox []runtime.Message) {
	if n.joined {
		ctx.Halt()
		return
	}
	for _, m := range inbox {
		if m.Kind == kindJoined {
			ctx.CommitNode(Out)
			ctx.Halt()
			return
		}
	}
}

// Ghaffari is the desire-level MIS of [Gha16]: every node keeps a marking
// probability p_v, marked nodes join when no neighbor is marked, and p_v
// halves when the neighborhood is crowded (Σ p_u ≥ 2) and doubles (up to
// 1/2) otherwise. Every node is decided with constant probability within
// O(log deg) phases, which is what gives the O(log Δ)-shape node-averaged
// complexity quoted in Section 3.1.
type Ghaffari struct{}

// Name implements runtime.Algorithm.
func (Ghaffari) Name() string { return "mis/ghaffari" }

// Nodes implements runtime.Algorithm.
func (Ghaffari) Nodes(_ []runtime.NodeView, progs []runtime.Program, slab any) any {
	nodes := runtime.Slab[ghaffariNode](progs, slab)
	for v := range *nodes {
		(*nodes)[v].p = 0.5
	}
	return nodes
}

type ghaffariNode struct {
	lubyNode         // rank is ^0 when unmarked
	p        float64 // marking probability: 2^-k for some k >= 1, or 0
	marked   bool
}

var _ runtime.Program = (*ghaffariNode)(nil)

func (n *ghaffariNode) Round(ctx *runtime.Context, inbox []runtime.Message) {
	view := ctx.View()
	switch ctx.Round() % phaseLen {
	case stepLottery:
		n.marked = view.Rand.Float64() < n.p
		if n.marked {
			n.rank = view.Rand.Uint64()
		} else {
			n.rank = ^uint64(0)
		}
		ctx.Broadcast(runtime.Message{Kind: kindLottery, Aux: probExp(n.p), Val: int64(n.rank)})
	case stepJoin:
		var sum float64
		win := n.marked
		for p, m := range inbox {
			if m.Kind != kindLottery {
				continue
			}
			sum += expProb(m.Aux)
			if beats(m, view.NeighborIDs[p], n.rank, view.ID) {
				win = false
			}
		}
		// Desire-level update from the neighborhood crowding.
		if sum >= 2 {
			n.p /= 2
		} else if n.p < 0.5 {
			n.p = min(2*n.p, 0.5)
		}
		n.join(ctx, win)
	case stepRetire:
		n.retire(ctx, inbox)
	}
}

// probExp encodes a marking probability p = 2^-k (k >= 1) as k, and p = 0
// as 0. Halving and capped doubling from 1/2 keep p in that set.
func probExp(p float64) uint32 {
	if p == 0 {
		return 0
	}
	_, exp := math.Frexp(p) // p = 0.5 · 2^exp
	return uint32(1 - exp)
}

// expProb decodes probExp exactly.
func expProb(k uint32) float64 {
	switch {
	case k == 0:
		return 0
	case k < 1023: // a normal float: exponent field 1023-k, zero mantissa
		return math.Float64frombits(uint64(1023-k) << 52)
	default:
		return math.Ldexp(1, -int(k))
	}
}

// Greedy computes an MIS by scanning nodes in the given order (centralized
// oracle for tests and size comparisons).
func Greedy(g *graph.Graph, order []int) []bool {
	in := make([]bool, g.N())
	blocked := make([]bool, g.N())
	if order == nil {
		order = make([]int, g.N())
		for i := range order {
			order[i] = i
		}
	}
	for _, v := range order {
		if blocked[v] {
			continue
		}
		in[v] = true
		blocked[v] = true
		for _, u := range g.Neighbors(v) {
			blocked[u] = true
		}
	}
	return in
}

// SetFromResult extracts the boolean MIS membership vector from a run.
func SetFromResult(res *runtime.Result) []bool {
	in := make([]bool, len(res.NodeOut))
	for v, out := range res.NodeOut {
		in[v] = out == In
	}
	return in
}
