// Package orient implements the sinkless-orientation algorithms of
// Section 3.3:
//
//   - DetAveraged (Theorem 6): deterministic, node-averaged O(log* n) with
//     worst case O(log n) shape, via short-cycle preferred orientation, the
//     three-edge/self-loop reduction, clustering and contraction.
//   - DetWorstCase: the deterministic baseline that orients every component
//     from one canonical shortest cycle outward; its locality on the
//     benchmark workloads (random regular graphs) is Θ(log n) for both the
//     average and the worst case — the contrast E5 measures.
//   - RandMarking: the [GS17a]-style randomized algorithm (every
//     unsatisfied node marks a random unoriented incident edge; uniquely
//     marked edges orient away from the marker), node-averaged O(1).
//
// Sinkless orientation is an edge-output problem; the committed edge value
// is the node index the edge points at (an int, endpoint-symmetric). All
// three algorithms run on the locality-charged executor (internal/locality).
package orient

import (
	"fmt"

	"avgloc/internal/graph"
	"avgloc/internal/locality"
	"avgloc/internal/runtime"
)

// checkMinDegree refuses graphs of minimum degree below 3, where every
// runner's assumption of a cycle per component fails. All three Run
// methods call it first, so they fail alike at any seed and trial count.
func checkMinDegree(name string, g *graph.Graph) error {
	if g.N() > 0 && g.MinDegree() < 3 {
		return fmt.Errorf("%s: needs minimum degree 3, got %d", name, g.MinDegree())
	}
	return nil
}

// DetWorstCase orients every connected component away from one canonical
// shortest cycle: the cycle is oriented cyclically and every other node
// points along its BFS parent toward the cycle; leftover edges point at the
// higher-identifier endpoint. All commits happen at a clock equal to the
// largest BFS depth plus the cycle length — the honest locality of this
// scheme, Θ(log n) on random regular workloads.
type DetWorstCase struct{}

// Name identifies the algorithm.
func (DetWorstCase) Name() string { return "orient/det-worstcase" }

// Run executes the algorithm; ids break orientation ties. It is
// deterministic: the seed is unused.
func (d DetWorstCase) Run(g *graph.Graph, ids []int64, _ uint64) (*runtime.Result, error) {
	if err := checkMinDegree(d.Name(), g); err != nil {
		return nil, err
	}
	toward := make([]int32, g.M())
	for e := range toward {
		toward[e] = -1
	}
	comp, ncomp := g.Components()
	onCycle := make([]bool, g.N())
	locRadius := 2

	orient := func(e, from int) {
		u, v := g.Endpoints(e)
		if from == u {
			toward[e] = int32(v)
		} else {
			toward[e] = int32(u)
		}
	}

	for c := int32(0); c < int32(ncomp); c++ {
		seq := canonicalComponentCycle(g, comp, c)
		if seq == nil {
			continue // forest component: no sinkless constraint possible
		}
		for i, v := range seq {
			onCycle[v] = true
			u := seq[(i+1)%len(seq)]
			p := g.PortTo(int(v), int(u))
			e := g.EdgeID(int(v), p)
			if toward[e] < 0 {
				orient(e, int(v))
			}
		}
		if len(seq) > locRadius {
			locRadius = len(seq)
		}
	}

	// BFS layers toward the cycles; every off-cycle node orients one edge
	// toward a strictly closer neighbor (conflict-free by layering).
	var sources []int
	for v := 0; v < g.N(); v++ {
		if onCycle[v] {
			sources = append(sources, v)
		}
	}
	if len(sources) > 0 {
		dist := g.MultiSourceBFS(sources)
		for v := 0; v < g.N(); v++ {
			d := dist[v]
			if d <= 0 {
				continue
			}
			if int(d) > locRadius {
				locRadius = int(d)
			}
			for p := 0; p < g.Deg(v); p++ {
				if dist[g.Neighbor(v, p)] == d-1 {
					if e := g.EdgeID(v, p); toward[e] < 0 {
						orient(e, v)
					}
					break
				}
			}
		}
	}

	for e := 0; e < g.M(); e++ {
		if toward[e] >= 0 {
			continue
		}
		u, v := g.Endpoints(e)
		if ids[u] > ids[v] {
			toward[e] = int32(u)
		} else {
			toward[e] = int32(v)
		}
	}

	s := locality.New(g)
	s.Advance(locRadius, "global-cycle orientation locality (BFS depth + cycle length)")
	for e := 0; e < g.M(); e++ {
		s.CommitEdge(e, toward[e])
	}
	return s.Result()
}

// canonicalComponentCycle returns the node sequence of a shortest cycle of
// component c (through its lowest-index girth witness), or nil for forests.
func canonicalComponentCycle(g *graph.Graph, comp []int32, c int32) []int32 {
	var best []int32
	bestLen := -1
	scan := g.NewCycleScanner()
	for v := 0; v < g.N(); v++ {
		if comp[v] != c {
			continue
		}
		l := scan.ShortestCycleThrough(v, bestLen)
		if l > 0 && (bestLen < 0 || l < bestLen) {
			if seq := cycleThrough(g, v, l); seq != nil {
				best = seq
				bestLen = l
			}
		}
	}
	return best
}

// cycleThrough reconstructs one cycle of exactly length l through v via a
// BFS that records, per reached node, the initial port out of v; a cycle
// closes on a non-tree edge between branches with different initial ports,
// or on a direct edge back to v.
func cycleThrough(g *graph.Graph, v, l int) []int32 {
	n := g.N()
	dist := make([]int32, n)
	parent := make([]int32, n)
	root := make([]int32, n)
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
		root[i] = -1
	}
	dist[v] = 0
	var queue []int32
	for p := 0; p < g.Deg(v); p++ {
		u := g.Neighbor(v, p)
		if u == v {
			continue
		}
		if dist[u] < 0 {
			dist[u] = 1
			parent[u] = int32(v)
			root[u] = int32(p)
			queue = append(queue, int32(u))
		} else if l == 2 {
			return []int32{int32(v), int32(u)} // parallel edge
		}
	}
	chainTo := func(x int32) []int32 {
		var seq []int32
		for y := x; y != int32(v); y = parent[y] {
			seq = append(seq, y)
		}
		return seq
	}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for p := 0; p < g.Deg(int(x)); p++ {
			u := int32(g.Neighbor(int(x), p))
			if int(u) == v {
				if dist[x] >= 2 && int(dist[x])+1 == l {
					seq := append([]int32{int32(v)}, reverse(chainTo(x))...)
					return seq
				}
				continue
			}
			if dist[u] < 0 {
				dist[u] = dist[x] + 1
				parent[u] = x
				root[u] = root[x]
				queue = append(queue, u)
				continue
			}
			if root[u] != root[x] && int(dist[u]+dist[x])+1 == l {
				left := reverse(chainTo(x))
				right := chainTo(u)
				seq := append([]int32{int32(v)}, left...)
				seq = append(seq, right...)
				return seq
			}
		}
	}
	return nil
}

func reverse(xs []int32) []int32 {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
	return xs
}
