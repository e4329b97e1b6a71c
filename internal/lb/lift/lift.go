// Package lift implements random lifts of graphs ([ALM02], used in
// Section 4.5): the order-q lift replaces every node by a fiber of q
// copies and every edge by a uniformly random perfect matching between the
// two fibers. Lemma 12: a lifted node lies on a cycle of length <= ℓ with
// probability at most Δ^ℓ/q, and lifted cliques keep small independence
// numbers — the two properties the MIS lower bound needs.
package lift

import (
	"fmt"
	"math/rand/v2"

	"avgloc/internal/graph"
	"avgloc/internal/lb/basegraph"
)

// Random returns an order-q random lift of g. Node ṽ = v*q + c is copy c
// of base node v; the projection is ṽ/q.
func Random(g *graph.Graph, q int, rng *rand.Rand) (*graph.Graph, error) {
	if q < 1 {
		return nil, fmt.Errorf("lift: order must be >= 1, got %d", q)
	}
	b := graph.NewBuilder(g.N() * q)
	perm := make([]int, q)
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(q, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for c := 0; c < q; c++ {
			b.AddEdge(u*q+c, v*q+perm[c])
		}
	}
	return b.Build()
}

// Project returns the base node of a lifted node.
func Project(lifted, q int) int { return lifted / q }

// IsCoveringMap verifies that lifted is a valid order-q lift of base: the
// projection preserves degrees and maps the neighborhood of every lifted
// node bijectively onto the neighborhood of its base node. The first
// violation is reported in neighbor order, so the error is deterministic.
func IsCoveringMap(base, lifted *graph.Graph, q int) error {
	if lifted.N() != base.N()*q {
		return fmt.Errorf("lift: %d lifted nodes, want %d", lifted.N(), base.N()*q)
	}
	if lifted.M() != base.M()*q {
		return fmt.Errorf("lift: %d lifted edges, want %d", lifted.M(), base.M()*q)
	}
	// Per-base-node neighbor counts, all zero between nodes: a node that
	// passes has counts only at its base neighbors, which are then reset.
	baseCount := make([]int32, base.N())
	liftCount := make([]int32, base.N())
	for lv := 0; lv < lifted.N(); lv++ {
		v := Project(lv, q)
		if lifted.Deg(lv) != base.Deg(v) {
			return fmt.Errorf("lift: node %d degree %d != base %d", lv, lifted.Deg(lv), base.Deg(v))
		}
		for _, u := range base.Neighbors(v) {
			baseCount[u]++
		}
		for _, lu := range lifted.Neighbors(lv) {
			liftCount[Project(int(lu), q)]++
		}
		// The degrees are equal, so once every base neighbor's count
		// matches, no lifted arc is left over for a non-neighbor fiber.
		for _, u := range base.Neighbors(v) {
			if liftCount[u] != baseCount[u] {
				return fmt.Errorf("lift: node %d sees %d copies of base neighbor %d, want %d", lv, liftCount[u], u, baseCount[u])
			}
		}
		for _, u := range base.Neighbors(v) {
			baseCount[u], liftCount[u] = 0, 0
		}
	}
	return nil
}

// ShortCycleFraction returns the fraction of nodes lying on a cycle of
// length at most l — the quantity Lemma 12 bounds by Δ^l/q and
// Corollary 15 by 1/β.
func ShortCycleFraction(g *graph.Graph, l int) float64 {
	if g.N() == 0 {
		return 0
	}
	count := 0
	scan := g.NewCycleScanner()
	for v := 0; v < g.N(); v++ {
		if c := scan.ShortestCycleThrough(v, l); c > 0 {
			count++
		}
	}
	return float64(count) / float64(g.N())
}

// Instance is a lifted lower-bound instance with cluster provenance.
type Instance struct {
	Base *basegraph.Instance
	Q    int
	G    *graph.Graph
	// ClusterOf maps lifted nodes to skeleton nodes.
	ClusterOf []int32
}

// BuildInstance lifts a base-graph instance by order q.
func BuildInstance(base *basegraph.Instance, q int, rng *rand.Rand) (*Instance, error) {
	lg, err := Random(base.G, q, rng)
	if err != nil {
		return nil, err
	}
	cl := make([]int32, lg.N())
	for lv := range cl {
		cl[lv] = base.ClusterOf[Project(lv, q)]
	}
	return &Instance{Base: base, Q: q, G: lg, ClusterOf: cl}, nil
}

// Label returns the Definition 8 label of the lifted arc u→v, inherited
// from the projected base arc.
func (inst *Instance) Label(u, v int32) (basegraph.ArcLabel, bool) {
	return inst.Base.Label(int32(Project(int(u), inst.Q)), int32(Project(int(v), inst.Q)))
}

// Graph returns the lifted graph (iso.Labeled).
func (inst *Instance) Graph() *graph.Graph { return inst.G }

// MaxExp returns the largest label exponent, k+1 (iso.Labeled).
func (inst *Instance) MaxExp() int { return inst.Base.MaxExp() }

// Cluster returns the lifted nodes of skeleton cluster v.
func (inst *Instance) Cluster(v int) []int32 {
	var out []int32
	for lv, c := range inst.ClusterOf {
		if int(c) == v {
			out = append(out, int32(lv))
		}
	}
	return out
}
