package graph

// BFS returns the distance (in hops) from src to every node; unreachable
// nodes get -1.
func (g *Graph) BFS(src int) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(int(v)) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// MultiSourceBFS returns, for every node, the distance to the nearest node
// in sources (-1 if unreachable). Used to measure domination radii of
// ruling sets.
func (g *Graph) MultiSourceBFS(sources []int) []int32 {
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, len(sources))
	for _, s := range sources {
		if dist[s] < 0 {
			dist[s] = 0
			queue = append(queue, int32(s))
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(int(v)) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Components returns a component id per node and the number of components.
func (g *Graph) Components() ([]int32, int) {
	comp := make([]int32, g.n)
	for i := range comp {
		comp[i] = -1
	}
	next := int32(0)
	var queue []int32
	for s := 0; s < g.n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(int(v)) {
				if comp[u] < 0 {
					comp[u] = next
					queue = append(queue, u)
				}
			}
		}
		next++
	}
	return comp, int(next)
}

// CycleScanner runs shortest-cycle queries against one graph, reusing its
// scratch arrays across calls: each query touches only the BFS ball it
// explores instead of paying an O(n) reset, which turns whole-graph sweeps
// (Girth, short-cycle fractions) from O(n²) into O(Σ ball size).
//
// Depth cut: scanning the edges of a depth-d node can only close cycles of
// length 2d+1 (an edge to another depth-d node) or 2d+2 (an edge to a depth
// d+1 node). A cycle of length 2d is closed by an edge between depths d-1
// and d, which the scan of the depth d-1 endpoint already saw. So a query
// stops before depth d once 2d+1 exceeds maxLen or reaches the best cycle
// found so far, and never expands a level that cannot improve its answer.
type CycleScanner struct {
	g     *Graph
	root  []int32
	dist  []int32
	seen  []int32 // stamp of the last query that touched this node
	stamp int32
	queue []int32
}

// NewCycleScanner returns a scanner for g.
func (g *Graph) NewCycleScanner() *CycleScanner {
	return &CycleScanner{
		g:    g,
		root: make([]int32, g.n),
		dist: make([]int32, g.n),
		seen: make([]int32, g.n),
	}
}

// ShortestCycleThrough returns the length of the shortest cycle containing
// node v, or -1 if v lies on no cycle of length <= maxLen (maxLen <= 0
// means unbounded). Parallel edges count as 2-cycles.
//
// The search runs a BFS from v that tracks, for every reached node, the
// first arc taken out of v; a cycle through v closes when two different
// initial arcs meet.
func (s *CycleScanner) ShortestCycleThrough(v int, maxLen int) int {
	g := s.g
	deg := g.Deg(v)
	if deg < 2 || maxLen == 1 { // no cycle is shorter than a parallel edge pair
		return -1
	}
	s.stamp++
	stamp := s.stamp
	// root[u]: index of the initial port out of v on the BFS path to u.
	mark := func(u int32, r, d int32) {
		s.seen[u] = stamp
		s.root[u] = r
		s.dist[u] = d
	}
	mark(int32(v), -1, 0)
	queue := s.queue[:0]
	for p := 0; p < deg; p++ {
		u := g.Neighbor(v, p)
		if u == v {
			continue
		}
		if s.seen[u] == stamp {
			s.queue = queue
			return 2 // parallel edge
		}
		mark(int32(u), int32(p), 1)
		queue = append(queue, int32(u))
	}
	best := -1
	for qi := 0; qi < len(queue); qi++ {
		x := queue[qi]
		shortest := 2*int(s.dist[x]) + 1 // see the depth cut on CycleScanner
		if maxLen > 0 && shortest > maxLen {
			break
		}
		if best > 0 && shortest >= best {
			break
		}
		for p, u := range g.Neighbors(int(x)) {
			if int(u) == v {
				// A second edge back to v closes a cycle unless it is the
				// tree edge we came in on at depth 1.
				if s.dist[x] == 1 && int32(g.TwinPort(int(x), p)) == s.root[x] {
					continue
				}
				l := int(s.dist[x]) + 1
				if best < 0 || l < best {
					best = l
				}
				continue
			}
			if s.seen[u] != stamp {
				mark(u, s.root[x], s.dist[x]+1)
				queue = append(queue, u)
			} else if s.root[u] != s.root[x] {
				l := int(s.dist[u] + s.dist[x] + 1)
				if best < 0 || l < best {
					best = l
				}
			}
		}
	}
	s.queue = queue
	if best > 0 && maxLen > 0 && best > maxLen {
		return -1
	}
	return best
}

// ShortestCycleThrough is the single-query convenience form; sweeps over
// many nodes should use a CycleScanner.
func (g *Graph) ShortestCycleThrough(v int, maxLen int) int {
	return g.NewCycleScanner().ShortestCycleThrough(v, maxLen)
}

// Girth returns the length of the shortest cycle in g, or -1 for forests.
// Graphs have no self-loops, so no answer is shorter than 2.
func (g *Graph) Girth() int {
	s := g.NewCycleScanner()
	best := -1
	for v := 0; v < g.n && best != 2; v++ {
		// Once a cycle is known, later nodes only matter if they lie on a
		// strictly shorter one.
		maxLen := 0
		if best > 0 {
			maxLen = best - 1
		}
		if l := s.ShortestCycleThrough(v, maxLen); l > 0 {
			best = l
		}
	}
	return best
}

// TreelikeBall reports whether the radius-r ball around v is a tree, i.e.
// whether v sees no cycle within distance r. This is the "G_k^k(v) is a
// tree" condition of Theorem 11: it holds iff every cycle through a node of
// the ball avoids the ball's interior. We check it by running a BFS of
// depth r from v: the ball is a tree exactly when every edge scanned out of
// a node at depth < r, other than the tree edge back to its parent, leads
// to a node not reached before. Any other such edge closes a cycle inside
// the ball, of length at most dx + du + 1 <= 2r.
func (g *Graph) TreelikeBall(v, r int) bool {
	dist := make(map[int32]int32, 64)
	parentArc := make(map[int32]int32, 64)
	dist[int32(v)] = 0
	queue := []int32{int32(v)}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		dx := dist[x]
		if int(dx) >= r {
			continue
		}
		for p := range g.Neighbors(int(x)) {
			u := int32(g.Neighbor(int(x), p))
			arc := g.offsets[x] + int32(p)
			if pa, ok := parentArc[x]; ok && arc == pa {
				continue // the tree edge back to the parent
			}
			if du, seen := dist[u]; seen {
				// Non-tree edge within the ball: v sees a cycle of length
				// <= dx + du + 1 <= 2r, so the view is not a tree.
				_ = du
				return false
			}
			dist[u] = dx + 1
			parentArc[u] = g.twin[arc]
			queue = append(queue, u)
		}
	}
	return true
}

// BallNodes returns the nodes at distance <= r from v, in BFS order.
func (g *Graph) BallNodes(v, r int) []int32 {
	dist := make(map[int32]int32, 64)
	dist[int32(v)] = 0
	order := []int32{int32(v)}
	for qi := 0; qi < len(order); qi++ {
		x := order[qi]
		if int(dist[x]) >= r {
			continue
		}
		for _, u := range g.Neighbors(int(x)) {
			if _, seen := dist[u]; !seen {
				dist[u] = dist[x] + 1
				order = append(order, u)
			}
		}
	}
	return order
}

// InducedSubgraph returns the subgraph induced by keep along with the
// mapping old→new (-1 for dropped nodes) and new→old.
func (g *Graph) InducedSubgraph(keep []bool) (*Graph, []int32, []int32) {
	toNew := make([]int32, g.n)
	var toOld []int32
	for v := 0; v < g.n; v++ {
		if keep[v] {
			toNew[v] = int32(len(toOld))
			toOld = append(toOld, int32(v))
		} else {
			toNew[v] = -1
		}
	}
	b := NewBuilder(len(toOld))
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		if keep[u] && keep[v] {
			b.AddEdge(int(toNew[u]), int(toNew[v]))
		}
	}
	return b.MustBuild(), toNew, toOld
}
