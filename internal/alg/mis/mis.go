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
//     shape (see DESIGN.md §3 for the substitution).
//   - Greedy: a centralized sequential oracle used by tests.
//
// Node outputs are int32: In (1) = in the MIS, Out (0) = covered by a
// neighbor.
package mis

import (
	"math/rand/v2"

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

type lotteryMsg struct {
	Rank uint64 // lottery value; lower wins
	ID   int64  // tie-break
	Prob float64
}

type joinMsg struct{ Joined bool }

// Luby is Luby's randomized MIS algorithm (permutation variant): in each
// phase every active node draws a random rank and joins the MIS iff its
// rank precedes the ranks of all active neighbors; nodes adjacent to
// joiners retire. Each phase takes 3 rounds and removes at least half of
// the incident edges in expectation.
type Luby struct{}

// Name implements runtime.Algorithm.
func (Luby) Name() string { return "mis/luby" }

// Node implements runtime.Algorithm.
func (Luby) Node(view runtime.NodeView) runtime.Program {
	return &lubyNode{rng: view.Rand, id: view.ID}
}

type lubyNode struct {
	rng    *rand.Rand
	id     int64
	rank   uint64
	joined bool
}

var _ runtime.Program = (*lubyNode)(nil)

func (n *lubyNode) Round(ctx *runtime.Context, inbox []runtime.Message) {
	switch ctx.Round() % phaseLen {
	case stepLottery:
		n.rank = n.rng.Uint64()
		ctx.Broadcast(lotteryMsg{Rank: n.rank, ID: n.id})
	case stepJoin:
		best := true
		for _, m := range inbox {
			if m == nil {
				continue
			}
			lm := m.(lotteryMsg)
			if lm.Rank < n.rank || (lm.Rank == n.rank && lm.ID < n.id) {
				best = false
				break
			}
		}
		if best {
			n.joined = true
			ctx.CommitNode(In)
			ctx.Broadcast(joinMsg{Joined: true})
		} else {
			ctx.Broadcast(joinMsg{Joined: false})
		}
	case stepRetire:
		if n.joined {
			ctx.Halt()
			return
		}
		for _, m := range inbox {
			if m == nil {
				continue
			}
			if m.(joinMsg).Joined {
				ctx.CommitNode(Out)
				ctx.Halt()
				return
			}
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

// Node implements runtime.Algorithm.
func (Ghaffari) Node(view runtime.NodeView) runtime.Program {
	return &ghaffariNode{rng: view.Rand, id: view.ID, p: 0.5}
}

type ghaffariNode struct {
	rng    *rand.Rand
	id     int64
	p      float64
	rank   uint64 // lottery value when marked; ^0 when unmarked
	marked bool
	joined bool
}

var _ runtime.Program = (*ghaffariNode)(nil)

func (n *ghaffariNode) Round(ctx *runtime.Context, inbox []runtime.Message) {
	switch ctx.Round() % phaseLen {
	case stepLottery:
		n.marked = n.rng.Float64() < n.p
		if n.marked {
			n.rank = n.rng.Uint64()
		} else {
			n.rank = ^uint64(0)
		}
		ctx.Broadcast(lotteryMsg{Rank: n.rank, ID: n.id, Prob: n.p})
	case stepJoin:
		var sum float64
		win := n.marked
		for _, m := range inbox {
			if m == nil {
				continue
			}
			lm := m.(lotteryMsg)
			sum += lm.Prob
			if lm.Rank < n.rank || (lm.Rank == n.rank && lm.ID < n.id) {
				win = false
			}
		}
		// Desire-level update from the neighborhood crowding.
		if sum >= 2 {
			n.p /= 2
		} else if n.p < 0.5 {
			n.p = min(2*n.p, 0.5)
		}
		if win {
			n.joined = true
			ctx.CommitNode(In)
			ctx.Broadcast(joinMsg{Joined: true})
		} else {
			ctx.Broadcast(joinMsg{Joined: false})
		}
	case stepRetire:
		if n.joined {
			ctx.Halt()
			return
		}
		for _, m := range inbox {
			if m == nil {
				continue
			}
			if m.(joinMsg).Joined {
				ctx.CommitNode(Out)
				ctx.Halt()
				return
			}
		}
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
