// Package ruling implements the ruling-set algorithms of the paper.
//
// Theorem 2: a randomized CONGEST algorithm computing a (2,2)-ruling set
// with node-averaged complexity O(1) — the "minimal relaxation of MIS that
// avoids the KMW lower bound". Each phase, every active node marks itself
// with probability 1/(deg+1); marked nodes without a marked higher-priority
// neighbor join, and everything within distance 2 of a joiner retires.
//
// Theorem 3: deterministic CONGEST algorithms computing (2, O(log Δ))- and
// (2, O(log log n))-ruling sets with node-averaged complexity O(log* n),
// via repeated dominating-set halving (the pseudoforest algorithm of
// footnote 7) followed by an MIS finisher on the few remaining nodes.
//
// Node outputs are int32: In (1) = in the ruling set, Out (0) = not.
//
// Messages are runtime.Message values whose kinds are declared below; only
// a Rand22 mark carries a payload, the sender's active degree in Aux. The
// identifiers both algorithms compare are the senders', read from
// NeighborIDs. Det numbers its kinds from coloring.FreeKind, above those
// of the coloring stages it chains.
package ruling

import (
	"math"

	"avgloc/internal/alg/coloring"
	"avgloc/internal/runtime"
)

// Output values.
const (
	In  int32 = 1
	Out int32 = 0
)

// Rand22 is the Theorem 2 algorithm. Each phase takes 5 rounds:
// alive-census, mark, join, distance-1 retire, distance-2 retire.
type Rand22 struct{}

// Name implements runtime.Algorithm.
func (Rand22) Name() string { return "ruling/rand22" }

const (
	stepAlive = iota
	stepMark
	stepJoin
	stepCover1
	stepCover2
	phaseLen
)

// Rand22 message kinds.
const (
	kindAlive uint32 = iota + 1
	kindMark         // Aux: the sender's active degree
	kindRuler
	kindCovered
)

// Nodes implements runtime.Algorithm.
func (Rand22) Nodes(_ []runtime.NodeView, progs []runtime.Program, slab any) any {
	return runtime.Slab[rand22Node](progs, slab)
}

type rand22Node struct {
	deg    int // active degree, refreshed each phase
	marked bool
}

var _ runtime.Program = (*rand22Node)(nil)

func (n *rand22Node) Round(ctx *runtime.Context, inbox []runtime.Message) {
	switch ctx.Round() % phaseLen {
	case stepAlive:
		ctx.Broadcast(runtime.Message{Kind: kindAlive})
	case stepMark:
		n.deg = 0
		for _, m := range inbox {
			if m.Kind == kindAlive {
				n.deg++
			}
		}
		n.marked = ctx.View().Rand.Float64() < 1/float64(n.deg+1)
		if n.marked {
			ctx.Broadcast(runtime.Message{Kind: kindMark, Aux: uint32(n.deg)})
		}
	case stepJoin:
		if !n.marked {
			return
		}
		// Join unless a marked neighbor has higher priority: larger active
		// degree, ties broken by larger identifier (Theorem 2).
		view := ctx.View()
		join := true
		for p, m := range inbox {
			if m.Kind != kindMark {
				continue
			}
			if deg := int(m.Aux); deg > n.deg || (deg == n.deg && view.NeighborIDs[p] > view.ID) {
				join = false
				break
			}
		}
		if join {
			ctx.CommitNode(In)
			ctx.Broadcast(runtime.Message{Kind: kindRuler})
			ctx.Halt()
		}
	case stepCover1:
		for _, m := range inbox {
			if m.Kind == kindRuler {
				ctx.CommitNode(Out)
				ctx.Broadcast(runtime.Message{Kind: kindCovered})
				ctx.Halt()
				return
			}
		}
	case stepCover2:
		for _, m := range inbox {
			if m.Kind == kindCovered {
				ctx.CommitNode(Out)
				ctx.Halt()
				return
			}
		}
	}
}

// DetVariant selects the stopping rule of the Theorem 3 algorithm.
type DetVariant int

const (
	// LogDelta runs Θ(log Δ) halving iterations: a (2, O(log Δ))-ruling set.
	LogDelta DetVariant = iota + 1
	// LogLogN runs Θ(log log n) halving iterations: a (2, O(log log n))-
	// ruling set (intended for Δ = polylog(n) workloads).
	LogLogN
)

// Det is the Theorem 3 deterministic ruling-set algorithm. Every iteration
// computes a dominating set of the active graph via the pseudoforest
// algorithm of footnote 7 (point at your smallest-identifier active
// neighbor; parents of leaves dominate; a Cole–Vishkin MIS sweep covers the
// remaining pseudoforest) and retires everything outside it; after the
// iterations an MIS of the few surviving nodes is computed with Linial
// coloring, color reduction and a class sweep.
//
// The identifier space is assumed to be < n² (both ids.RandomPerm and
// ids.RandomSparse satisfy this).
type Det struct {
	Variant DetVariant
	// IterationFactor scales the number of halving iterations (default 3,
	// which drives the surviving count low enough that the finisher's
	// contribution to the node average is negligible).
	IterationFactor int
}

// Name implements runtime.Algorithm.
func (d Det) Name() string {
	if d.Variant == LogLogN {
		return "ruling/det-loglogn"
	}
	return "ruling/det-logdelta"
}

// Iterations returns the number of halving iterations for the given global
// parameters; exported so tests can check the β budget.
func (d Det) Iterations(n, maxDeg int) int {
	f := d.IterationFactor
	if f <= 0 {
		f = 3
	}
	var base float64
	if d.Variant == LogLogN {
		base = math.Log2(math.Log2(float64(n)) + 1)
	} else {
		base = math.Log2(float64(maxDeg) + 1)
	}
	it := int(math.Ceil(float64(f) * base))
	if it < 1 {
		it = 1
	}
	return it
}

// Det message kinds, numbered above the coloring stages' kinds.
const (
	kindCensus     = coloring.FreeKind + iota // I am active
	kindChosen                                // you are my pseudoforest parent
	kindLeaf                                  // I am a pseudoforest leaf
	kindLeafParent                            // I am a leaf's parent
	kindRemoved                               // I left the pseudoforest
)

// detSlab holds a Det run's programs, their port-indexed children flags
// and the arena of their finisher MIS stages.
type detSlab struct {
	nodes    []detNode
	children []bool
	mis      coloring.MISArena
}

// Nodes implements runtime.Algorithm.
func (d Det) Nodes(views []runtime.NodeView, progs []runtime.Program, slab any) any {
	s, _ := slab.(*detSlab)
	if s == nil {
		s = new(detSlab)
	}
	arcs := 0
	for v := range views {
		arcs += views[v].Degree
	}
	s.nodes = runtime.Reslice(s.nodes, len(views))
	s.children = runtime.Reslice(s.children, arcs)
	if len(views) == 0 {
		return s
	}
	// N and MaxDegree are global, so every node shares one schedule.
	n, maxDeg := views[0].N, views[0].MaxDegree
	space := int64(n) * int64(n)
	if space < 4 {
		space = 4
	}
	bits := bitsFor64(space - 1)
	rounds, iters := d.iterationRounds(bits), d.Iterations(n, maxDeg)
	children := s.children
	for v := range s.nodes {
		deg := views[v].Degree
		s.nodes[v] = detNode{
			view:     views[v],
			bits:     bits,
			rounds:   rounds,
			iters:    iters,
			children: children[:deg:deg],
		}
		children = children[deg:]
		progs[v] = &s.nodes[v]
	}
	// The finisher's MIS stages are fixed by the views alone, so they are
	// built here, where they share one plan, and stay untouched until
	// phaseFinish.
	s.mis.Fill(views, func(v int) *coloring.MIS { return &s.nodes[v].mis })
	return s
}

// detPhase is the position of a node inside one halving iteration (or the
// finisher). Each of the first six phases is one round of the iteration.
type detPhase uint8

const (
	phaseCensus     detPhase = iota // announce to active neighbors
	phaseChoose                     // point at the smallest active identifier
	phaseLeaf                       // pseudoforest leaves notify their parent
	phaseLeafParent                 // leaf-parents announce
	phaseRemoved                    // removed nodes tell their neighbors
	phaseDecide                     // retire, idle as a leaf-parent, or start CV
	phaseIdle                       // wait in lockstep until the iteration ends
	phaseCV                         // Cole–Vishkin on the surviving pseudoforest
	phaseSweep                      // MIS sweep over the 6 CV colors
	phaseFinish                     // MIS finisher on the survivors
)

// detNode runs the Theorem 3 iterations as a phase switch: every node of
// every iteration spends exactly `rounds` rounds in it unless it retires,
// so survivors stay in lockstep.
type detNode struct {
	view         runtime.NodeView
	bits, rounds int
	iters, it    int
	phase        detPhase
	idle         int // rounds left in phaseIdle
	parentPort   int
	parentID     int64
	children     []bool // port-indexed: the neighbor pointed at us
	isLeaf       bool
	leafParent   bool
	removed      bool
	cv           coloring.CV6
	sweep        coloring.MISSweep
	mis          coloring.MIS
}

var _ runtime.Program = (*detNode)(nil)

func (n *detNode) Round(ctx *runtime.Context, inbox []runtime.Message) {
	if n.step(ctx, inbox) {
		ctx.Halt()
	}
}

// step advances the node by one round and reports whether it committed.
// Phases that end the iteration fall through to the next iteration's (or
// the finisher's) first round within the same call, with no inbox.
func (n *detNode) step(ctx *runtime.Context, inbox []runtime.Message) bool {
	for {
		switch n.phase {
		case phaseCensus:
			ctx.Broadcast(runtime.Message{Kind: kindCensus})
			n.phase = phaseChoose
			return false
		case phaseChoose:
			n.parentPort = -1
			for p, m := range inbox {
				if id := n.view.NeighborIDs[p]; m.Kind == kindCensus && (n.parentPort < 0 || id < n.parentID) {
					n.parentPort, n.parentID = p, id
				}
			}
			if n.parentPort < 0 {
				// Isolated nodes idle through this iteration in lockstep
				// and survive; they join the ruling set in the finisher.
				n.phase, n.idle = phaseIdle, n.rounds-1
				return false
			}
			ctx.Send(n.parentPort, runtime.Message{Kind: kindChosen})
			n.phase = phaseLeaf
			return false
		case phaseLeaf:
			degP := 0
			for p, m := range inbox {
				n.children[p] = m.Kind == kindChosen
				if n.children[p] {
					degP++
				}
			}
			// Pseudoforest degree: children plus the parent edge unless
			// mutual.
			if !n.children[n.parentPort] {
				degP++
			}
			n.isLeaf = degP == 1
			if n.isLeaf {
				ctx.Send(n.parentPort, runtime.Message{Kind: kindLeaf})
			}
			n.phase = phaseLeafParent
			return false
		case phaseLeafParent:
			n.leafParent = false
			for _, m := range inbox {
				if m.Kind == kindLeaf {
					n.leafParent = true
					break
				}
			}
			// Pseudoforest neighbors of a leaf-parent leave the
			// pseudoforest.
			if n.leafParent {
				ctx.Broadcast(runtime.Message{Kind: kindLeafParent})
			}
			n.phase = phaseRemoved
			return false
		case phaseRemoved:
			n.removed = n.isLeaf || n.leafParent
			for p, m := range inbox {
				if m.Kind == kindLeafParent && (p == n.parentPort || n.children[p]) {
					n.removed = true
				}
			}
			// Removed nodes tell their pseudoforest neighbors, so the rest
			// knows its surviving pseudoforest parent.
			if n.removed {
				ctx.Broadcast(runtime.Message{Kind: kindRemoved})
			}
			n.phase = phaseDecide
			return false
		case phaseDecide:
			// Retired nodes (outside the dominating set, dominated by a
			// leaf-parent) commit immediately and halt; nobody reads from
			// them again. Leaf-parents are in the dominating set but
			// outside the surviving pseudoforest: they idle in lockstep
			// while the rest runs Cole–Vishkin and the MIS sweep.
			if n.removed {
				if !n.leafParent {
					ctx.CommitNode(Out)
					return true
				}
				n.phase, n.idle = phaseIdle, coloring.CVRounds(n.bits)+6
				return false
			}
			cvParent := n.parentPort
			if inbox[n.parentPort].Kind == kindRemoved {
				cvParent = -1
			}
			n.cv = coloring.NewCV6(n.view.ID, n.bits, cvParent)
			n.phase = phaseCV
		case phaseIdle:
			if n.idle--; n.idle > 0 {
				return false
			}
			n.nextIteration()
		case phaseCV:
			if !n.cv.Round(ctx, inbox) {
				return false
			}
			n.sweep = coloring.NewMISSweep(6, n.cv.Color())
			n.phase = phaseSweep
		case phaseSweep:
			if !n.sweep.Round(ctx, inbox) {
				return false
			}
			if !n.sweep.Joined() {
				ctx.CommitNode(Out)
				return true
			}
			n.nextIteration()
		case phaseFinish:
			if !n.mis.Round(ctx, inbox) {
				return false
			}
			if n.mis.Joined() {
				ctx.CommitNode(In)
			} else {
				ctx.CommitNode(Out)
			}
			return true
		}
		inbox = nil // the next phase starts in this round
	}
}

// nextIteration moves a surviving (dominating-set) node to the next
// halving iteration, or to the MIS finisher after the last one.
func (n *detNode) nextIteration() {
	if n.it++; n.it < n.iters {
		n.phase = phaseCensus
		return
	}
	n.phase = phaseFinish
}

// iterationRounds is the fixed lockstep length of one halving iteration.
func (d Det) iterationRounds(bits int) int {
	return 5 + coloring.CVRounds(bits) + 6
}

func bitsFor64(v int64) int {
	b := 1
	for int64(1)<<uint(b) <= v {
		b++
	}
	return b
}

// SetFromResult extracts the ruling-set membership vector from a run.
func SetFromResult(res *runtime.Result) []bool {
	in := make([]bool, len(res.NodeOut))
	for v, out := range res.NodeOut {
		in[v] = out == In
	}
	return in
}
