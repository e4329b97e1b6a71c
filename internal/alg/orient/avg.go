package orient

import (
	"fmt"
	"sort"

	"avgloc/internal/graph"
	"avgloc/internal/locality"
	"avgloc/internal/runtime"
)

// DetAveraged is the Theorem 6 deterministic sinkless orientation with
// node-averaged complexity O(log* n) and worst-case O(log n) shape, for
// graphs of minimum degree 3. Following the proof in Appendix B:
//
//  1. Edges on short cycles (length <= 6r) receive the preferred
//     orientation of a canonical minimal cycle containing them; nodes
//     touching a short cycle obtain an outgoing edge and are done.
//  2. Every remaining node selects three unoriented edges. An edge
//     selected from one side only is the selector's "self-loop": it is
//     oriented away from the selector immediately (the other side never
//     relies on it). Mutually selected edges form a virtual graph H with
//     girth > 6r and degree <= 3.
//  3. H is clustered around a greedy maximal (2r+1)-independent set of
//     centers (self-loop holders and other satisfied nodes act as
//     absorbing anchors). Cluster members orient toward the anchors and
//     finish; each center keeps alive up to three node-disjoint walks to
//     other centers, which contract to the virtual edges of the next
//     level. Round charges are dilated by 4r+4 per level, as in the paper.
//  4. After SwitchDepth levels the remainder is finished from anchors and
//     canonical cycles — the paper's switch to the standard O(log n)
//     algorithm, which bounds the worst case.
//
// The construction runs on the locality-charged executor; commit rounds
// per edge are what E5 measures.
type DetAveraged struct {
	// R is the paper's constant r (short cycles have length <= 6R).
	// Default 2: the proof wants r >= 15 for its worst-case constants,
	// which needs astronomically large graphs; the averaged-complexity
	// shape survives small r (E5 measures it).
	R int
	// SwitchDepth is the recursion depth at which the baseline finisher
	// takes over (default 2).
	SwitchDepth int
}

// Name identifies the algorithm.
func (DetAveraged) Name() string { return "orient/det-averaged" }

// vnode is a virtual node: a surviving real node (cluster center).
type vnode struct {
	real       int32
	ports      []int
	satisfied  bool
	selfLoop   bool
	walkTarget bool // survives to the next level (current clustering pass)
}

// vedge is a virtual edge: a real path between two real nodes.
type vedge struct {
	a, b    int     // vnode indices (== real node indices throughout)
	redges  []int32 // real edge ids along the path a→b
	rnodes  []int32 // real node sequence, len(redges)+1, rnodes[0] = a
	dirFrom int     // -1 unoriented; else the vnode it points away from
	retired bool    // consumed as a walk segment of a contracted vedge
}

type avgState struct {
	g         *graph.Graph
	s         *locality.Sim
	nodes     []*vnode
	edges     []*vedge
	toward    []int32
	edgeRound []int32

	// Scratch for shortestVirtualCycle's bidirectional BFS (stamped arrays
	// instead of maps, frontier slices reused across calls).
	bfsStamp       int32
	seenA, seenB   []int32 // stamp when last reached from each side
	distA, distB   []int32
	parA, parB     []int32
	frontA, frontB []int32
	spareA, spareB []int32
}

// Run executes the algorithm; ids break default-orientation ties.
func (d DetAveraged) Run(g *graph.Graph, ids []int64) (*runtime.Result, error) {
	if err := checkMinDegree(d.Name(), g); err != nil {
		return nil, err
	}
	r := d.R
	if r <= 0 {
		r = 2
	}
	switchDepth := d.SwitchDepth
	if switchDepth <= 0 {
		switchDepth = 2
	}

	st := &avgState{
		g:         g,
		s:         locality.New(g),
		nodes:     make([]*vnode, g.N()),
		toward:    make([]int32, g.M()),
		edgeRound: make([]int32, g.M()),
	}
	for e := range st.toward {
		st.toward[e] = -1
		st.edgeRound[e] = -1
	}
	for v := 0; v < g.N(); v++ {
		st.nodes[v] = &vnode{real: int32(v)}
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		ve := &vedge{a: u, b: v, redges: []int32{int32(e)}, rnodes: []int32{int32(u), int32(v)}, dirFrom: -1}
		st.nodes[u].ports = append(st.nodes[u].ports, len(st.edges))
		st.nodes[v].ports = append(st.nodes[v].ports, len(st.edges))
		st.edges = append(st.edges, ve)
	}

	dilation := 1
	for depth := 0; ; depth++ {
		if st.liveCount() == 0 {
			break
		}
		if depth >= switchDepth {
			st.finishBaseline(dilation)
			break
		}
		st.orientShortCycles(6*r, dilation)
		h := st.selectThree(dilation)
		st.clusterAndContract(h, r, dilation)
		st.cleanupResolved(ids)
		dilation *= 4*r + 4
	}

	if live := st.liveCount(); live > 0 {
		return nil, fmt.Errorf("orient/det-averaged: %d nodes left unsatisfied", live)
	}

	// Final pass: every remaining unoriented virtual edge has two
	// satisfied endpoints and is oriented consistently along its real path
	// (interior path nodes get out-edges either way). The raw per-edge
	// default below is a backstop only — every real edge belongs to
	// exactly one non-retired virtual edge, so it should find nothing.
	st.cleanupResolved(ids)
	now := int32(st.s.Clock())
	for e := 0; e < g.M(); e++ {
		if st.toward[e] >= 0 {
			continue
		}
		u, v := g.Endpoints(e)
		t := v
		if ids[u] > ids[v] {
			t = u
		}
		st.toward[e] = int32(t)
		st.edgeRound[e] = now
	}
	for e := 0; e < g.M(); e++ {
		st.s.CommitEdgeAt(e, st.toward[e], int(st.edgeRound[e]))
	}
	return st.s.Result()
}

func (st *avgState) liveCount() int {
	live := 0
	for _, nd := range st.nodes {
		if nd != nil && !nd.satisfied {
			live++
		}
	}
	return live
}

// orientV orients virtual edge ei away from vnode `from`, committing every
// real path edge at the current clock. Interior path nodes receive an
// outgoing edge whichever direction the path flows, so they become
// satisfied here.
func (st *avgState) orientV(ei, from int) {
	ve := st.edges[ei]
	if ve.dirFrom >= 0 || ve.retired {
		return
	}
	ve.dirFrom = from
	seq := ve.rnodes
	redges := ve.redges
	if from == ve.b {
		seq = reversePath(seq)
		redges = reversePath(redges)
	}
	now := int32(st.s.Clock())
	for k, re := range redges {
		if st.toward[re] < 0 {
			st.toward[re] = seq[k+1]
			st.edgeRound[re] = now
		}
	}
	for k := 1; k+1 < len(ve.rnodes); k++ {
		st.nodes[ve.rnodes[k]].satisfied = true
	}
}

func reversePath(xs []int32) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}

func (st *avgState) unorientedPorts(x int) []int {
	var out []int
	for _, ei := range st.nodes[x].ports {
		if st.edges[ei].dirFrom < 0 && !st.edges[ei].retired {
			out = append(out, ei)
		}
	}
	return out
}

func (st *avgState) hasOut(x int) bool {
	for _, ei := range st.nodes[x].ports {
		if st.edges[ei].dirFrom == x {
			return true
		}
	}
	return false
}

func otherEnd(ve *vedge, x int) int {
	if ve.a == x {
		return ve.b
	}
	return ve.a
}

// cleanupResolved defaults every unoriented virtual edge between two
// satisfied nodes at the current clock; their completion shouldn't wait for
// the recursion. Defaulting is safe in either direction — interior path
// nodes get an out-edge regardless, and neither endpoint relies on it.
func (st *avgState) cleanupResolved(ids []int64) {
	for ei, ve := range st.edges {
		if ve.dirFrom >= 0 || ve.retired {
			continue
		}
		if !st.nodes[ve.a].satisfied || !st.nodes[ve.b].satisfied {
			continue
		}
		from := ve.a
		if ids[st.nodes[ve.b].real] < ids[st.nodes[ve.a].real] {
			from = ve.b
		}
		st.orientV(ei, from)
	}
}

// orientShortCycles finds, for each unoriented virtual edge, a minimal
// short cycle through it (length <= bound) and orients it along the
// cycle's canonical direction. Endpoints of short-cycle edges become
// satisfied (the paper's out-degree lemma); the defensive check keeps any
// exception unsatisfied for the later phases.
func (st *avgState) orientShortCycles(bound, dilation int) {
	touched := map[int]bool{}
	for ei, ve := range st.edges {
		if ve.dirFrom >= 0 || ve.retired || st.nodes[ve.a].satisfied && st.nodes[ve.b].satisfied {
			continue
		}
		seq := st.shortestVirtualCycle(ei, bound)
		if seq == nil {
			continue
		}
		k := len(seq)
		for i := 0; i < k; i++ {
			x, y := seq[i], seq[(i+1)%k]
			if x == ve.a && y == ve.b {
				st.orientV(ei, ve.a)
				break
			}
			if x == ve.b && y == ve.a {
				st.orientV(ei, ve.b)
				break
			}
		}
		touched[ve.a] = true
		touched[ve.b] = true
	}
	for x := range touched {
		if st.hasOut(x) {
			st.nodes[x].satisfied = true
		}
	}
	st.s.Advance((bound+2)*dilation, "short-cycle preferred orientation")
}

// shortestVirtualCycle returns the canonical vnode sequence of a minimal
// short cycle through edge ei, or nil. Parallel virtual edges are
// 2-cycles.
//
// The search is a meet-in-the-middle BFS: two frontiers grow from ei's
// endpoints through the surviving virtual graph, and a cycle closes when an
// edge scan touches the opposite frontier. On high-girth inputs — exactly
// the interesting regime, where almost every edge has no short cycle — this
// explores O(Δ^(bound/2)) nodes per edge instead of O(Δ^bound), which is
// what makes the E5 short-cycle phase fast.
func (st *avgState) shortestVirtualCycle(ei, bound int) []int {
	ve := st.edges[ei]
	a, b := ve.a, ve.b
	for _, ej := range st.nodes[a].ports {
		if ej != ei && st.edges[ej].dirFrom < 0 && !st.edges[ej].retired && otherEnd(st.edges[ej], a) == b {
			if a < b {
				return []int{a, b}
			}
			return []int{b, a}
		}
	}
	maxPath := bound - 1 // a length-L cycle through ei is an a→b path of L-1 edges
	if maxPath < 2 {
		return nil
	}
	if st.seenA == nil {
		n := len(st.nodes)
		st.seenA, st.seenB = make([]int32, n), make([]int32, n)
		st.distA, st.distB = make([]int32, n), make([]int32, n)
		st.parA, st.parB = make([]int32, n), make([]int32, n)
	}
	st.bfsStamp++
	stamp := st.bfsStamp
	st.seenA[a], st.distA[a], st.parA[a] = stamp, 0, -1
	st.seenB[b], st.distB[b], st.parB[b] = stamp, 0, -1
	frontA := append(st.frontA[:0], int32(a))
	frontB := append(st.frontB[:0], int32(b))
	nextA, nextB := st.spareA[:0], st.spareB[:0]
	dA, dB := 0, 0
	best := -1
	var meetA, meetB int32

	// expand grows one side by one BFS level, scanning every live virtual
	// edge out of the frontier. An edge whose far end carries the opposite
	// stamp closes a candidate cycle; the shortest one wins. Invariant:
	// after the sides reach depths (dA, dB), every a→b path of length at
	// most dA+dB+1 has been seen with its exact length, so the loop may
	// stop as soon as best <= dA+dB+1 (or the bound is exceeded).
	expand := func(front, next []int32, seen, dist, par []int32, oSeen, oDist []int32, depth int, fromB bool) []int32 {
		next = next[:0]
		for _, x := range front {
			for _, ej := range st.nodes[x].ports {
				if ej == ei || st.edges[ej].dirFrom >= 0 || st.edges[ej].retired {
					continue
				}
				nx := int32(otherEnd(st.edges[ej], int(x)))
				if oSeen[nx] == stamp {
					if l := depth + 1 + int(oDist[nx]); best < 0 || l < best {
						best = l
						if fromB {
							meetA, meetB = nx, x
						} else {
							meetA, meetB = x, nx
						}
					}
				}
				if seen[nx] != stamp {
					seen[nx] = stamp
					dist[nx] = int32(depth) + 1
					par[nx] = x
					next = append(next, nx)
				}
			}
		}
		return next
	}

	for len(frontA) > 0 && len(frontB) > 0 {
		if best >= 0 && best <= dA+dB+1 {
			break
		}
		if dA+dB+1 > maxPath {
			break
		}
		if len(frontA) <= len(frontB) {
			nextA = expand(frontA, nextA, st.seenA, st.distA, st.parA, st.seenB, st.distB, dA, false)
			frontA, nextA = nextA, frontA
			dA++
		} else {
			nextB = expand(frontB, nextB, st.seenB, st.distB, st.parB, st.seenA, st.distA, dB, true)
			frontB, nextB = nextB, frontB
			dB++
		}
	}
	st.frontA, st.frontB = frontA[:0], frontB[:0]
	st.spareA, st.spareB = nextA[:0], nextB[:0]
	if best < 0 || best > maxPath {
		return nil
	}
	// Reconstruct a→…→meetA, meetB→…→b; the walk has minimal length, hence
	// is simple, and together with ei it is the minimal cycle.
	var seq []int
	for y := meetA; y != -1; y = st.parA[y] {
		seq = append(seq, int(y))
	}
	reverseInts(seq)
	for y := meetB; y != -1; y = st.parB[y] {
		seq = append(seq, int(y))
	}
	return canonicalCycleSeq(seq)
}

// canonicalCycleSeq rotates/reflects a cycle to start at its minimum node,
// heading toward the smaller of the two possible directions.
func canonicalCycleSeq(seq []int) []int {
	k := len(seq)
	mi := 0
	for i, x := range seq {
		if x < seq[mi] {
			mi = i
		}
	}
	fwd := make([]int, 0, k)
	rev := make([]int, 0, k)
	for i := 0; i < k; i++ {
		fwd = append(fwd, seq[(mi+i)%k])
		rev = append(rev, seq[(mi-i+k)%k])
	}
	if lessSeq(rev, fwd) {
		return rev
	}
	return fwd
}

func lessSeq(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// selectThree runs the anchor sweep and the 3-edge selection. Mutually
// selected edges form H (returned); one-sided selections resolve as
// self-loops.
func (st *avgState) selectThree(dilation int) map[int]bool {
	for x, nd := range st.nodes {
		if nd == nil || nd.satisfied {
			continue
		}
		for _, ei := range st.unorientedPorts(x) {
			if st.nodes[otherEnd(st.edges[ei], x)].satisfied {
				st.orientV(ei, x)
				nd.satisfied = true
				break
			}
		}
	}
	st.s.Advance(2*dilation, "anchor sweep toward satisfied neighbors")

	choice := make(map[int][]int)
	for x, nd := range st.nodes {
		if nd == nil || nd.satisfied {
			continue
		}
		adj := st.unorientedPorts(x)
		sort.Ints(adj)
		if len(adj) > 3 {
			adj = adj[:3]
		}
		choice[x] = adj
	}
	h := make(map[int]bool)
	for x, chosen := range choice {
		for _, ei := range chosen {
			if st.edges[ei].dirFrom >= 0 {
				continue
			}
			u := otherEnd(st.edges[ei], x)
			if containsInt(choice[u], ei) {
				h[ei] = true
				continue
			}
			// One-sided selection: x's self-loop; orient away from x.
			st.orientV(ei, x)
			st.nodes[x].satisfied = true
			st.nodes[x].selfLoop = true
		}
	}
	st.s.Advance(3*dilation, "3-edge selection and self-loop resolution")
	return h
}

// clusterAndContract clusters H, resolves cluster interiors and contracts
// the kept-alive walks into next-level virtual edges.
func (st *avgState) clusterAndContract(h map[int]bool, r, dilation int) {
	spacing := 2*r + 1
	var hNodes []int
	seen := map[int]bool{}
	for ei := range h {
		ve := st.edges[ei]
		if ve.dirFrom >= 0 {
			continue
		}
		for _, x := range []int{ve.a, ve.b} {
			if !seen[x] {
				seen[x] = true
				hNodes = append(hNodes, x)
			}
		}
	}
	if len(hNodes) == 0 {
		st.s.Advance(dilation, "empty H: nothing to cluster")
		return
	}
	sort.Ints(hNodes)

	hPorts := func(x int) []int {
		var out []int
		for _, ei := range st.nodes[x].ports {
			if h[ei] && st.edges[ei].dirFrom < 0 && !st.edges[ei].retired {
				out = append(out, ei)
			}
		}
		return out
	}

	// Anchors: satisfied H-participants (self-loop holders and neighbors
	// already resolved). Centers: greedy maximal (2r+1)-independent set
	// among unsatisfied H-nodes, also spaced from anchors.
	anchor := map[int]bool{}
	for _, x := range hNodes {
		if st.nodes[x].satisfied {
			anchor[x] = true
		}
	}
	blocked := map[int]bool{}
	for x := range anchor {
		for y, dy := range st.hBall(hPorts, x, spacing) {
			if dy <= spacing {
				blocked[y] = true
			}
		}
	}
	for _, nd := range st.nodes {
		if nd != nil {
			nd.walkTarget = false
		}
	}
	var centers []int
	isCenter := map[int]bool{}
	for _, x := range hNodes {
		if st.nodes[x].satisfied || blocked[x] {
			continue
		}
		centers = append(centers, x)
		isCenter[x] = true
		st.nodes[x].walkTarget = true
		for y, dy := range st.hBall(hPorts, x, spacing) {
			if dy <= spacing {
				blocked[y] = true
			}
		}
	}

	// Walks: globally node-disjoint (interiors) walks from each center to
	// up to three distinct other centers/anchors, found by bounded BFS.
	usedInterior := map[int]bool{}
	type walk struct {
		from   int
		edges  []int
		target int
	}
	var walks []walk
	walkEdge := map[int]bool{}
	for _, c := range centers {
		targets := map[int]bool{c: true}
		count := 0
		for count < 3 {
			w := st.findWalk(hPorts, c, targets, usedInterior, walkEdge, 4*spacing)
			if w == nil {
				break
			}
			targets[w.target] = true
			for i, x := range w.nodes {
				if i != 0 && i != len(w.nodes)-1 {
					usedInterior[x] = true
				}
			}
			for _, ei := range w.edges {
				walkEdge[ei] = true
			}
			walks = append(walks, walk{from: c, edges: w.edges, target: w.target})
			count++
		}
	}

	// Resolve non-kept members: BFS over H from anchors, centers and walk
	// interiors; members orient toward the parent.
	keep := map[int]bool{}
	for x := range usedInterior {
		keep[x] = true
	}
	for _, c := range centers {
		keep[c] = true
	}
	var sources []int
	for _, x := range hNodes {
		if anchor[x] || keep[x] {
			sources = append(sources, x)
		}
	}
	dist := st.hMultiBFS(hPorts, hNodes, sources)
	ordered := make([]int, 0, len(hNodes))
	ordered = append(ordered, hNodes...)
	sort.Slice(ordered, func(i, j int) bool { return dist[ordered[i]] < dist[ordered[j]] })
	for _, x := range ordered {
		if st.nodes[x].satisfied || keep[x] || dist[x] <= 0 {
			continue
		}
		for _, ei := range hPorts(x) {
			u := otherEnd(st.edges[ei], x)
			if walkEdge[ei] {
				continue
			}
			if du, ok := dist[u]; ok && du == dist[x]-1 {
				st.orientV(ei, x)
				st.nodes[x].satisfied = true
				break
			}
		}
	}

	// Contract the walks into next-level virtual edges; the consumed
	// segments are retired so their real edges have exactly one owner.
	for _, w := range walks {
		redges, rnodes := st.concatWalk(w.from, w.edges)
		ve := &vedge{a: w.from, b: w.target, redges: redges, rnodes: rnodes, dirFrom: -1}
		idx := len(st.edges)
		st.edges = append(st.edges, ve)
		st.nodes[w.from].ports = append(st.nodes[w.from].ports, idx)
		st.nodes[w.target].ports = append(st.nodes[w.target].ports, idx)
		for _, ei := range w.edges {
			st.edges[ei].retired = true
		}
	}

	charge := spacing*10*dilation + (4*r+4)*dilation
	st.s.Advance(charge, fmt.Sprintf("clustering radius %d, walk contraction", spacing))
}

type foundWalk struct {
	nodes  []int
	edges  []int
	target int
}

// findWalk BFS-searches from c through unsatisfied, unused H-nodes to the
// nearest center/anchor not already targeted, within the given radius.
func (st *avgState) findWalk(hPorts func(int) []int, c int, targets, usedInterior, usedEdge map[int]bool, radius int) *foundWalk {
	type qe struct {
		node, dist int
	}
	parent := map[int]int{c: -1}
	parentEdge := map[int]int{}
	queue := []qe{{c, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.dist >= radius {
			continue
		}
		for _, ei := range hPorts(cur.node) {
			if usedEdge[ei] {
				continue
			}
			nx := otherEnd(st.edges[ei], cur.node)
			if _, seen := parent[nx]; seen {
				continue
			}
			if usedInterior[nx] {
				continue
			}
			parent[nx] = cur.node
			parentEdge[nx] = ei
			// A walk may end at any satisfied anchor or another center —
			// a node that will exist at the next level.
			if (st.nodes[nx].satisfied || st.isWalkTarget(nx)) && !targets[nx] {
				var nodesSeq []int
				var edgesSeq []int
				for y := nx; y != c; y = parent[y] {
					nodesSeq = append(nodesSeq, y)
					edgesSeq = append(edgesSeq, parentEdge[y])
				}
				nodesSeq = append(nodesSeq, c)
				reverseInts(nodesSeq)
				reverseInts(edgesSeq)
				return &foundWalk{nodes: nodesSeq, edges: edgesSeq, target: nx}
			}
			if !st.nodes[nx].satisfied {
				queue = append(queue, qe{nx, cur.dist + 1})
			}
		}
	}
	return nil
}

// isWalkTarget reports whether x survives to the next level as a vnode: it
// is marked by clusterAndContract via the center set, tracked with a
// transient field on vnode.
func (st *avgState) isWalkTarget(x int) bool { return st.nodes[x].walkTarget }

func reverseInts(xs []int) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// concatWalk concatenates the real paths of the walk's virtual edges.
func (st *avgState) concatWalk(from int, walkEdges []int) ([]int32, []int32) {
	var redges []int32
	rnodes := []int32{st.nodes[from].real}
	cur := from
	for _, ei := range walkEdges {
		ve := st.edges[ei]
		seq := ve.rnodes
		res := ve.redges
		if cur == ve.b {
			seq = reversePath(seq)
			res = reversePath(res)
		}
		redges = append(redges, res...)
		rnodes = append(rnodes, seq[1:]...)
		cur = otherEnd(ve, cur)
	}
	return redges, rnodes
}

// hBall returns distances within radius over H from x.
func (st *avgState) hBall(hPorts func(int) []int, x, radius int) map[int]int {
	dist := map[int]int{x: 0}
	queue := []int{x}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if dist[cur] >= radius {
			continue
		}
		for _, ei := range hPorts(cur) {
			nx := otherEnd(st.edges[ei], cur)
			if _, seen := dist[nx]; !seen {
				dist[nx] = dist[cur] + 1
				queue = append(queue, nx)
			}
		}
	}
	return dist
}

// hMultiBFS returns distances from the source set over H.
func (st *avgState) hMultiBFS(hPorts func(int) []int, hNodes, sources []int) map[int]int {
	dist := map[int]int{}
	var queue []int
	for _, s := range sources {
		dist[s] = 0
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, ei := range hPorts(cur) {
			nx := otherEnd(st.edges[ei], cur)
			if _, seen := dist[nx]; !seen {
				dist[nx] = dist[cur] + 1
				queue = append(queue, nx)
			}
		}
	}
	return dist
}

// finishBaseline resolves every remaining unsatisfied vnode: each pool
// component of unoriented virtual edges is oriented from a satisfied
// anchor or from a canonical cycle outward-in, charged at the depth of the
// BFS times the dilation.
func (st *avgState) finishBaseline(dilation int) {
	// Pool graph over vnode indices.
	unoriented := func(x int) []int { return st.unorientedPorts(x) }
	inPool := map[int]bool{}
	for _, ve := range st.edges {
		if ve.dirFrom < 0 {
			inPool[ve.a] = true
			inPool[ve.b] = true
		}
	}
	var anchors []int
	for x := range inPool {
		if st.nodes[x].satisfied {
			anchors = append(anchors, x)
		}
	}
	sort.Ints(anchors)
	depth := 2

	// Components without an anchor need a cycle.
	comp := map[int]int{}
	cid := 0
	var order []int
	for x := range inPool {
		order = append(order, x)
	}
	sort.Ints(order)
	for _, x := range order {
		if _, seen := comp[x]; seen {
			continue
		}
		queue := []int{x}
		comp[x] = cid
		var members []int
		hasAnchor := false
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			members = append(members, cur)
			if st.nodes[cur].satisfied {
				hasAnchor = true
			}
			for _, ei := range unoriented(cur) {
				nx := otherEnd(st.edges[ei], cur)
				if _, seen := comp[nx]; !seen {
					comp[nx] = cid
					queue = append(queue, nx)
				}
			}
		}
		if !hasAnchor {
			seq := st.findPoolCycle(members)
			if seq != nil {
				for i := range seq {
					x1, x2 := seq[i], seq[(i+1)%len(seq)]
					for _, ei := range unoriented(x1) {
						if otherEnd(st.edges[ei], x1) == x2 && st.edges[ei].dirFrom < 0 {
							st.orientV(ei, x1)
							break
						}
					}
					st.nodes[seq[i]].satisfied = true
					anchors = append(anchors, seq[i])
				}
				if len(seq) > depth {
					depth = len(seq)
				}
			}
		}
		cid++
	}

	// Layered orientation toward anchors.
	dist := st.hMultiBFS(unoriented, order, anchors)
	sort.Slice(order, func(i, j int) bool { return dist[order[i]] < dist[order[j]] })
	for _, x := range order {
		if st.nodes[x].satisfied {
			continue
		}
		dx, ok := dist[x]
		if !ok {
			continue
		}
		if dx > depth {
			depth = dx
		}
		for _, ei := range unoriented(x) {
			if du, ok2 := dist[otherEnd(st.edges[ei], x)]; ok2 && du == dx-1 {
				st.orientV(ei, x)
				st.nodes[x].satisfied = true
				break
			}
		}
	}
	st.s.Advance((depth+2)*dilation, "baseline finisher: anchors and canonical cycles")
}

// findPoolCycle returns a cycle (as a vnode sequence) within the pool
// component, or nil for trees.
func (st *avgState) findPoolCycle(members []int) []int {
	// DFS with parent tracking; first back edge closes a cycle.
	parent := map[int]int{}
	parentEdge := map[int]int{}
	visited := map[int]bool{}
	for _, root := range members {
		if visited[root] {
			continue
		}
		stack := []int{root}
		parent[root] = -1
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if visited[cur] {
				continue
			}
			visited[cur] = true
			for _, ei := range st.unorientedPorts(cur) {
				nx := otherEnd(st.edges[ei], cur)
				if !visited[nx] {
					if _, has := parent[nx]; !has {
						parent[nx] = cur
						parentEdge[nx] = ei
						stack = append(stack, nx)
					}
					continue
				}
				if parentEdge[cur] == ei {
					continue
				}
				// Back edge cur→nx: cycle nx..cur.
				var seq []int
				y := cur
				for y != nx && y != -1 {
					seq = append(seq, y)
					y = parent[y]
				}
				if y == -1 {
					continue // crossed into another DFS branch; skip
				}
				seq = append(seq, nx)
				return seq
			}
		}
	}
	return nil
}

func containsInt(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
