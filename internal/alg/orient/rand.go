package orient

import (
	"fmt"
	"math/rand/v2"

	"avgloc/internal/graph"
	"avgloc/internal/locality"
	"avgloc/internal/runtime"
)

// RandMarking is the randomized sinkless-orientation algorithm in the style
// of [GS17a] (node-averaged complexity O(1), Section 3.3): in each 2-round
// phase, every node without an outgoing edge marks one uniformly random
// unoriented incident edge; an edge marked by exactly one endpoint is
// oriented away from the marker, satisfying it. A node's last unoriented
// edge is implicitly protected: the node marks it every phase, so a
// neighbor's mark always collides.
//
// Correctness caveat, and why this runs centrally: greedy partial
// orientations can paint themselves into corners where no sinkless
// completion exists (the reason [GS17a] needs minimum degree 500 for the
// plain version). The central simulation preserves the exact invariant
// instead: in the "pool graph" (unoriented edges), no connected component
// may ever consist solely of unsatisfied nodes and be a tree — such a
// component has fewer edges than nodes needing out-edges. The invariant
// holds initially (min-degree-3 components contain cycles) and every
// orientation that would break it is skipped for the phase (the marker
// retries; this happens rarely and only near the end). Under the
// invariant, any leftover nodes at the phase cap are finished
// deterministically by orienting each pool component from its cycle or
// from a satisfied anchor node outward.
type RandMarking struct {
	// PhaseCap bounds the randomized phases (default 24 + 8·log2 n).
	PhaseCap int
}

// Name identifies the algorithm.
func (RandMarking) Name() string { return "orient/rand-marking" }

// Run executes the algorithm with per-node PRNGs derived from seed.
func (r RandMarking) Run(g *graph.Graph, ids []int64, seed uint64) (*runtime.Result, error) {
	if err := checkMinDegree(r.Name(), g); err != nil {
		return nil, err
	}
	n, m := g.N(), g.M()
	s := locality.New(g)
	rngs := make([]*rand.Rand, n)
	for v := 0; v < n; v++ {
		rngs[v] = rand.New(rand.NewPCG(seed, uint64(v)*0x9E3779B97F4A7C15+0xBF58476D1CE4E5B9))
	}

	toward := make([]int32, m)
	edgeRound := make([]int32, m)
	for e := range toward {
		toward[e] = -1
		edgeRound[e] = -1
	}
	satisfied := make([]bool, n)
	left := n // checkMinDegree: every node needs an out-edge

	phaseCap := r.PhaseCap
	if phaseCap <= 0 {
		phaseCap = 24
		for x := 2; x < n; x *= 2 {
			phaseCap += 8
		}
	}

	marks := make([]int8, m)
	marker := make([]int32, m)
	for phase := 0; phase < phaseCap && left > 0; phase++ {
		for e := range marks {
			marks[e] = 0
			marker[e] = -1
		}
		for v := 0; v < n; v++ {
			if satisfied[v] {
				continue
			}
			pool := poolEdges(g, toward, v)
			e := pool[rngs[v].IntN(len(pool))]
			if marks[e] < 2 {
				marks[e]++
			}
			marker[e] = int32(v)
		}
		s.Advance(2, fmt.Sprintf("marking phase %d", phase))
		now := int32(s.Clock())
		for e := 0; e < m; e++ {
			if marks[e] != 1 {
				continue
			}
			from := int(marker[e])
			if satisfied[from] {
				continue
			}
			u, v := g.Endpoints(e)
			to := v
			if from == v {
				to = u
			}
			if !orientationSafe(g, toward, satisfied, e, to) {
				continue // would strand an all-unsatisfied tree; retry later
			}
			toward[e] = int32(to)
			edgeRound[e] = now
			satisfied[from] = true
			left--
		}
		// Contagion sweep (one hop per phase): an unsatisfied node with a
		// satisfied pool-neighbor orients that edge toward the neighbor —
		// always invariant-safe, both resulting sides carry a satisfied
		// anchor. Then every unoriented edge between two satisfied nodes
		// is defaulted toward the higher identifier; its orientation is
		// fixed as of now.
		snapshot := make([]bool, n)
		copy(snapshot, satisfied)
		for v := 0; v < n; v++ {
			if snapshot[v] {
				continue
			}
			for p := 0; p < g.Deg(v); p++ {
				e := g.EdgeID(v, p)
				if toward[e] >= 0 {
					continue
				}
				// One hop per phase: only neighbors satisfied before this
				// sweep count, so contagion doesn't chain within a phase.
				if u := g.Neighbor(v, p); snapshot[u] {
					toward[e] = int32(u)
					edgeRound[e] = now
					satisfied[v] = true
					left--
					break
				}
			}
		}
		for e := 0; e < m; e++ {
			if toward[e] >= 0 {
				continue
			}
			u, v := g.Endpoints(e)
			if satisfied[u] && satisfied[v] {
				if ids[u] > ids[v] {
					toward[e] = int32(u)
				} else {
					toward[e] = int32(v)
				}
				edgeRound[e] = now
			}
		}
	}

	if left > 0 {
		if err := finishFromAnchors(g, s, toward, edgeRound, satisfied, &left); err != nil {
			return nil, err
		}
	}

	// Any still-unoriented edges (both endpoints satisfied in the very
	// last phase, or finished above) default toward the higher identifier.
	now := int32(s.Clock())
	for e := 0; e < m; e++ {
		if toward[e] < 0 {
			u, v := g.Endpoints(e)
			if ids[u] > ids[v] {
				toward[e] = int32(u)
			} else {
				toward[e] = int32(v)
			}
			edgeRound[e] = now
		}
		s.CommitEdgeAt(e, toward[e], int(edgeRound[e]))
	}
	return s.Result()
}

func poolEdges(g *graph.Graph, toward []int32, v int) []int32 {
	var pool []int32
	for _, e := range g.EdgeIDs(v) {
		if toward[e] < 0 {
			pool = append(pool, e)
		}
	}
	return pool
}

// orientationSafe reports whether orienting edge e toward `to` keeps the
// invariant: the pool component of `to` (after removing e) must contain a
// satisfied node or a cycle. The marker's side always stays safe because
// the marker becomes satisfied.
func orientationSafe(g *graph.Graph, toward []int32, satisfied []bool, e, to int) bool {
	// BFS over pool edges from `to`, pretending e is gone.
	visitedNodes := map[int]bool{to: true}
	visitedEdges := map[int]bool{e: true}
	queue := []int{to}
	nodes, edges := 1, 0
	anchored := false
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if satisfied[x] {
			anchored = true
			break
		}
		for p := 0; p < g.Deg(x); p++ {
			ex := g.EdgeID(x, p)
			if toward[ex] >= 0 || visitedEdges[ex] {
				continue
			}
			visitedEdges[ex] = true
			edges++
			u := g.Neighbor(x, p)
			if !visitedNodes[u] {
				visitedNodes[u] = true
				nodes++
				queue = append(queue, u)
			}
		}
	}
	if anchored {
		return true
	}
	// All-unsatisfied component: safe iff it has a cycle (edges >= nodes).
	return edges >= nodes
}

// finishFromAnchors deterministically satisfies the remaining nodes: each
// pool component is oriented from its satisfied anchors (or from one of its
// cycles) outward-in, charged at the largest distance involved.
func finishFromAnchors(g *graph.Graph, s *locality.Sim, toward, edgeRound []int32, satisfied []bool, left *int) error {
	// Build the pool graph over all nodes (satisfied ones may be anchors).
	b := graph.NewBuilder(g.N())
	poolEdgeID := make(map[[2]int]int)
	for e := 0; e < g.M(); e++ {
		if toward[e] >= 0 {
			continue
		}
		u, v := g.Endpoints(e)
		b.AddEdge(u, v)
		poolEdgeID[[2]int{u, v}] = e
	}
	pg := b.MustBuild()
	comp, ncomp := pg.Components()

	// Anchors: satisfied nodes, plus an oriented canonical cycle for
	// components without one.
	anchors := make([]int, 0)
	hasAnchor := make([]bool, ncomp)
	for v := 0; v < g.N(); v++ {
		if satisfied[v] && pg.Deg(v) > 0 {
			anchors = append(anchors, v)
			hasAnchor[comp[v]] = true
		}
	}
	depth := 0
	for c := int32(0); c < int32(ncomp); c++ {
		if hasAnchor[c] {
			continue
		}
		hasNodes := false
		for v := 0; v < g.N(); v++ {
			if comp[v] == c && pg.Deg(v) > 0 {
				hasNodes = true
				break
			}
		}
		if !hasNodes {
			continue
		}
		seq := canonicalComponentCycle(pg, comp, c)
		if seq == nil {
			return fmt.Errorf("orient/rand: invariant violated — all-unsatisfied tree component survived")
		}
		for i, v := range seq {
			u := seq[(i+1)%len(seq)]
			pe := poolEdgeID[normPair(int(v), int(u))]
			if toward[pe] < 0 {
				toward[pe] = int32(u)
				if satisfied[int(v)] == false {
					satisfied[int(v)] = true
					*left--
				}
			}
			anchors = append(anchors, int(v))
		}
		if len(seq) > depth {
			depth = len(seq)
		}
	}

	dist := pg.MultiSourceBFS(anchors)
	for v := 0; v < g.N(); v++ {
		d := dist[v]
		if d <= 0 || satisfied[v] {
			continue
		}
		if int(d) > depth {
			depth = int(d)
		}
		for p := 0; p < pg.Deg(v); p++ {
			u := pg.Neighbor(v, p)
			if dist[u] == d-1 {
				pe := poolEdgeID[normPair(v, u)]
				if toward[pe] < 0 {
					toward[pe] = int32(u)
					satisfied[v] = true
					*left--
				}
				break
			}
		}
		if !satisfied[v] {
			// The parent edge was already oriented toward v's parent by
			// v's own earlier pass... cannot happen: each edge is oriented
			// once and layering orients child->parent only.
			return fmt.Errorf("orient/rand: repair failed to satisfy node %d", v)
		}
	}
	s.Advance(depth+2, "deterministic anchor/cycle completion for stuck nodes")
	now := int32(s.Clock())
	for e := 0; e < g.M(); e++ {
		if toward[e] >= 0 && edgeRound[e] < 0 {
			edgeRound[e] = now
		}
	}
	return nil
}

func normPair(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}
