package matching

import (
	"fmt"
	"math"
	"sort"

	"avgloc/internal/alg/coloring"
	"avgloc/internal/graph"
	"avgloc/internal/locality"
	"avgloc/internal/runtime"
)

// Det is the deterministic maximal matching of Theorem 5: iterate "compute
// an integral matching whose addition removes a constant fraction of the
// live edges" until no edges remain. Each iteration starts from the
// fractional matching f_e = 2^(-ceil(log2(d_u+d_v))) <= 1/(d_u+d_v) and
// rounds it level by level in the style of [AKO18]/[Fis20]: the edges of
// the lowest value 2^-i are paired up at their endpoints into paths and
// cycles, which are cut into segments of length Θ(log Δ) and alternately
// doubled/zeroed; endpoints of paths may only be doubled when the node has
// fractional slack for it. After the level-L..1 stages the value-1 edges
// form a matching.
//
// The rounding core runs on the locality-charged executor (internal/locality):
// the pairing, path 3-coloring, segment cutting and alternation are
// computed centrally, and every stage charges its distributed cost —
// O(log* Δ) for recoloring the linkage paths with the precomputed poly(Δ)
// base coloring, plus O(segment length) for the segment-local alternation.
// An initial charge covers Linial's poly(Δ)-coloring of the whole graph
// (the paper uses the same trick to pay log* n only once).
//
// Shape to reproduce (Theorem 5): edge-averaged complexity O(log²Δ +
// log* n) and node-averaged complexity O(log³Δ + log* n), both independent
// of n; worst case O(log²Δ · log n).
type Det struct {
	// SegmentFactor scales the segment length c = SegmentFactor * L
	// (L = number of value levels); longer segments lose less weight per
	// stage but charge more rounds. Default 4.
	SegmentFactor int
	// MaxIterations caps the outer loop (safety net; default 64 + 8·log2 m).
	MaxIterations int
}

// Name identifies the algorithm.
func (Det) Name() string { return "matching/det" }

// Run executes the algorithm on g and returns the commit-round ledger.
func (d Det) Run(g *graph.Graph) (*runtime.Result, error) {
	s := locality.New(g)
	segFactor := d.SegmentFactor
	if segFactor <= 0 {
		segFactor = 4
	}

	n, m := g.N(), g.M()
	liveEdge := make([]bool, m)
	liveDeg := make([]int, n)
	liveEdges := 0
	for e := 0; e < m; e++ {
		liveEdge[e] = true
		liveEdges++
		u, v := g.Endpoints(e)
		liveDeg[u]++
		liveDeg[v]++
	}
	// Isolated nodes are complete immediately (no incident edges).

	// One-time poly(Δ)-coloring via Linial, so that the per-stage path
	// recoloring later costs only O(log* Δ). Charge: the schedule length
	// of Linial over the n² identifier space.
	space := int64(n) * int64(n)
	if space < 4 {
		space = 4
	}
	maxDeg := g.MaxDegree()
	if maxDeg > 0 {
		initRounds := len(coloring.LinialSchedule(space, maxDeg)) - 1
		if initRounds < 1 {
			initRounds = 1
		}
		s.Advance(initRounds, "initial Linial poly(Δ) base coloring")
	}

	maxIters := d.MaxIterations
	if maxIters <= 0 {
		maxIters = 64
		for mm := 2; mm < m; mm *= 2 {
			maxIters += 8
		}
	}

	for iter := 0; liveEdges > 0; iter++ {
		if iter >= maxIters {
			return nil, fmt.Errorf("matching/det: no progress after %d iterations (%d edges left)", iter, liveEdges)
		}
		matchedEdges := d.roundingIteration(s, g, liveEdge, liveDeg, segFactor)
		if len(matchedEdges) == 0 {
			return nil, fmt.Errorf("matching/det: rounding produced an empty matching with %d live edges", liveEdges)
		}
		// Commit the matching and retire all edges incident to matched
		// nodes (they can never join later: maximality is preserved).
		matched := make(map[int]bool, 2*len(matchedEdges))
		inM := make(map[int]bool, len(matchedEdges))
		for _, e := range matchedEdges {
			u, v := g.Endpoints(e)
			matched[u], matched[v] = true, true
			inM[e] = true
		}
		for e := 0; e < m; e++ {
			if !liveEdge[e] {
				continue
			}
			u, v := g.Endpoints(e)
			if !matched[u] && !matched[v] {
				continue
			}
			s.CommitEdge(e, output(inM[e]))
			liveEdge[e] = false
			liveEdges--
			liveDeg[u]--
			liveDeg[v]--
		}
	}
	return s.Result()
}

// roundingIteration computes one integral matching among the live edges by
// level-by-level rounding and charges the corresponding rounds.
func (d Det) roundingIteration(s *locality.Sim, g *graph.Graph, liveEdge []bool, liveDeg []int, segFactor int) []int {
	m := g.M()
	// Current maximum live degree determines the level count.
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		if liveDeg[v] > maxDeg {
			maxDeg = liveDeg[v]
		}
	}
	if maxDeg == 0 {
		return nil
	}
	L := int(math.Ceil(math.Log2(float64(2 * maxDeg))))
	if L < 1 {
		L = 1
	}
	// lev[e]: current value exponent (f_e = 2^-lev); -1 = zeroed; -2 = not
	// participating (dead edge).
	lev := make([]int, m)
	// load[v]: sum of 2^(L-lev[e]) over live valued edges, so the
	// fractional-matching constraint is load <= 2^L exactly.
	load := make([]int64, g.N())
	for e := 0; e < m; e++ {
		lev[e] = -2
		if !liveEdge[e] {
			continue
		}
		u, v := g.Endpoints(e)
		l := int(math.Ceil(math.Log2(float64(liveDeg[u] + liveDeg[v]))))
		if l < 0 {
			l = 0
		}
		if l > L {
			l = L
		}
		lev[e] = l
		load[u] += int64(1) << uint(L-l)
		load[v] += int64(1) << uint(L-l)
	}
	s.Advance(1, "degree exchange for fractional values")

	c := segFactor * L // segment length for path cutting
	if c < 4 {
		c = 4
	}
	// Per-stage distributed cost: identify pairs (1), recolor the linkage
	// paths with Linial over the poly(Δ) base colors (O(log* Δ) — constant
	// schedule for palette (Δ+1)^4 at degree 2), reduce to 3 colors (~6),
	// then segment-local collection over <= 2c hops for cutting and
	// alternation.
	base := int64(maxDeg+1) * int64(maxDeg+1)
	if base < 16 {
		base = 16
	}
	pathColorRounds := len(coloring.LinialSchedule(base*base, 2)) - 1 + 6
	stageCost := 1 + pathColorRounds + 2*c

	for i := L; i >= 1; i-- {
		d.roundLevel(g, lev, load, liveEdge, i, L, c)
		s.Advance(stageCost, fmt.Sprintf("rounding stage level %d", i))
	}

	var matchedEdges []int
	for e := 0; e < m; e++ {
		if lev[e] == 0 {
			matchedEdges = append(matchedEdges, e)
		}
	}
	return matchedEdges
}

// pairLink records, for a path/cycle element (an edge of the level
// subgraph), its paired partner edge at each of its two endpoints (-1 if
// unpaired there). Index 0 is the lower endpoint.
type pairLink struct{ at [2]int }

// roundLevel doubles-or-zeroes every level-i edge. Pairing, path/cycle
// decomposition, cutting and alternation as described on Det.
func (d Det) roundLevel(g *graph.Graph, lev []int, load []int64, liveEdge []bool, i, L, c int) {
	// Collect level-i elements and pair them at each node by port order.
	elem := make(map[int]*pairLink)
	for e := range lev {
		if lev[e] == i {
			elem[e] = &pairLink{at: [2]int{-1, -1}}
		}
	}
	if len(elem) == 0 {
		return
	}
	sideIndex := func(e, v int) int {
		u, _ := g.Endpoints(e)
		if v == u {
			return 0
		}
		return 1
	}
	for v := 0; v < g.N(); v++ {
		var ports []int
		for p := 0; p < g.Deg(v); p++ {
			e := g.EdgeID(v, p)
			if lev[e] == i {
				ports = append(ports, e)
			}
		}
		for k := 0; k+1 < len(ports); k += 2 {
			a, b := ports[k], ports[k+1]
			elem[a].at[sideIndex(a, v)] = b
			elem[b].at[sideIndex(b, v)] = a
		}
	}

	// Walk components (paths and cycles) and apply segment alternation.
	visited := make(map[int]bool, len(elem))
	unit := int64(1) << uint(L-i)
	capacity := int64(1) << uint(L)

	apply := func(seq []int, isCycle bool) {
		// Cut every c-th element; boundary elements of paths that are
		// unpaired at a node need slack permission to be raised.
		k := len(seq)
		cut := make([]bool, k)
		if isCycle {
			for p := 0; p < k; p += c {
				cut[p] = true
			}
		} else {
			for p := c; p < k; p += c {
				cut[p] = true
			}
		}
		// permitted(e): raising e is safe at both endpoints — at each
		// endpoint, either e is paired there (partner drops) or the node
		// has slack >= unit.
		permitted := func(e int) bool {
			lnk := elem[e]
			u, v := g.Endpoints(e)
			for side, node := range [2]int{u, v} {
				if lnk.at[side] >= 0 {
					continue
				}
				if capacity-load[node] < unit {
					return false
				}
			}
			return true
		}
		// Two parity candidates; drop cut elements and unpermitted raises,
		// keep the larger raise set.
		best := -1
		var bestRaise []int
		for parity := 0; parity < 2; parity++ {
			var raise []int
			prevRaised := -2
			for p := 0; p < k; p++ {
				if cut[p] || p%2 != parity {
					continue
				}
				if p == prevRaised+1 {
					continue // safety: never raise adjacent elements
				}
				if !permitted(seq[p]) {
					continue
				}
				// On cycles, position 0 and k-1 are adjacent.
				if isCycle && p == k-1 && len(raise) > 0 && raise[0] == seq[0] {
					continue
				}
				raise = append(raise, seq[p])
				prevRaised = p
			}
			if len(raise) > best {
				best = len(raise)
				bestRaise = raise
			}
		}
		raised := make(map[int]bool, len(bestRaise))
		for _, e := range bestRaise {
			raised[e] = true
		}
		for _, e := range seq {
			u, v := g.Endpoints(e)
			if raised[e] {
				lev[e] = i - 1
				load[u] += unit
				load[v] += unit
			} else {
				lev[e] = -1 // zeroed: stays a live edge with no value
				load[u] -= unit
				load[v] -= unit
			}
		}
	}

	// Walk components in increasing edge order: map iteration order would
	// leak into the alternation phase of cycles and the slack accounting of
	// path endpoints, making the matching differ from run to run.
	keys := make([]int, 0, len(elem))
	for e := range elem {
		keys = append(keys, e)
	}
	sort.Ints(keys)
	for _, e := range keys {
		if visited[e] {
			continue
		}
		seq, isCycle := walkComponent(elem, e)
		for _, x := range seq {
			visited[x] = true
		}
		apply(seq, isCycle)
	}
}

// walkComponent enumerates the path or cycle containing start, in order.
func walkComponent(elem map[int]*pairLink, start int) ([]int, bool) {
	// Probe from start following one direction; either we hit an end (path)
	// or return to start (cycle).
	prev, cur := -1, start
	for {
		next := other(elem[cur], prev)
		if next < 0 {
			break // cur is a path end
		}
		if next == start {
			seq := []int{start}
			p, c := start, firstLink(elem[start])
			for c != start {
				seq = append(seq, c)
				p, c = c, other(elem[c], p)
			}
			return seq, true
		}
		prev, cur = cur, next
	}
	// Enumerate the path from the end we found.
	seq := []int{cur}
	p, c := -1, cur
	for {
		next := other(elem[c], p)
		if next < 0 {
			break
		}
		seq = append(seq, next)
		p, c = c, next
	}
	return seq, false
}

func firstLink(l *pairLink) int {
	if l.at[0] >= 0 {
		return l.at[0]
	}
	return l.at[1]
}

// other returns a link of l different from `not`, or -1.
func other(l *pairLink, not int) int {
	for _, cand := range l.at {
		if cand >= 0 && cand != not {
			return cand
		}
	}
	return -1
}
