package runtime

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"

	"avgloc/internal/graph"
)

// execution holds the mutable state of one run. Its buffers are a handful
// of arenas sized once from the graph — arc-indexed ones for what lives on
// ports, node-indexed ones for what lives on nodes — so engine setup
// performs O(1) allocations, and an execution bound to a graph can be reset
// and reused across trials (see Engine). The topology is not copied: node
// v's port p is arc offsets[v]+p of the graph's own CSR layout, and a
// message sent on arc a lands in the receiver's inbox slot twin[a].
type execution struct {
	g         *graph.Graph
	alg       Algorithm
	maxRounds int
	round     int32 // the round being executed

	// Topology borrowed from the graph (graph.Arcs); never written.
	offsets []int32 // len n+1
	twin    []int32 // len arcs

	// Arc-indexed arenas. cur holds each arc's inbox slot for this round;
	// Send writes the next round's slot of the receiving arc directly.
	cur       []Message
	next      []Message
	sentAt    []int32 // round of the last Send on each sender arc; -1 before any
	edgeOut   []int32 // CommitEdge output per sender arc
	edgeRound []int32 // CommitEdge round per sender arc; -1 = uncommitted
	nbrIDs    []int64 // NeighborIDs arena

	// Node-indexed arenas. slab is what alg.Nodes returned for progs; it
	// goes back to the next run's Nodes.
	progs  []Program
	slab   any
	ctxs   []Context
	views  []NodeView
	rngs   []rand.Rand
	pcgs   []rand.PCG
	haltAt []int32

	// active is the frontier worklist: exactly the nodes that have not
	// halted, in increasing order. A node leaves the list at its halt round
	// (stable in-place compaction), so per-round work is O(Σ deg(active))
	// rather than O(n).
	active []int32

	messages int64     // messages sent so far
	errs     []nodeErr // run errors, in the order they were recorded
}

// nodeErr is a run error recorded by node v.
type nodeErr struct {
	v   int32
	err error
}

// newExecution allocates an execution for g. Only topology-independent
// sizing happens here; per-run state is installed by reset. Setup is
// O(n + m) and copies nothing from the graph: the Δ lookup is a cached
// graph attribute and the arc layout is the graph's own.
func newExecution(g *graph.Graph) *execution {
	n := g.N()
	offsets, twin := g.Arcs()
	arcs := len(twin)
	return &execution{
		g:         g,
		offsets:   offsets,
		twin:      twin,
		cur:       make([]Message, arcs),
		next:      make([]Message, arcs),
		sentAt:    make([]int32, arcs),
		edgeOut:   make([]int32, arcs),
		edgeRound: make([]int32, arcs),
		nbrIDs:    make([]int64, arcs),
		progs:     make([]Program, n),
		ctxs:      make([]Context, n),
		views:     make([]NodeView, n),
		rngs:      make([]rand.Rand, n),
		pcgs:      make([]rand.PCG, n),
		haltAt:    make([]int32, n),
		active:    make([]int32, n),
	}
}

// reset installs a fresh run of alg under cfg, reusing every arena. After
// reset the execution is in the same state a freshly built execution would
// be in.
func (ex *execution) reset(alg Algorithm, cfg Config) {
	g := ex.g
	n := g.N()
	ex.alg = alg
	ex.maxRounds = cfg.MaxRounds
	if ex.maxRounds <= 0 {
		ex.maxRounds = DefaultMaxRounds(n)
	}
	ex.round = 0
	ex.messages = 0
	ex.errs = nil
	// Message buffers may hold leftovers from an aborted run; per-step
	// inbox clearing only guarantees cleanliness for completed runs.
	clear(ex.cur)
	clear(ex.next)
	clear(ex.edgeOut)
	for a := range ex.sentAt {
		ex.sentAt[a] = -1
		ex.edgeRound[a] = -1
	}
	ex.active = ex.active[:cap(ex.active)]
	maxDeg := g.MaxDegree()
	for v := 0; v < n; v++ {
		lo, hi := ex.offsets[v], ex.offsets[v+1]
		nbr := ex.nbrIDs[lo:hi:hi]
		for p, u := range g.Neighbors(v) {
			nbr[p] = cfg.IDs[u]
		}
		ex.pcgs[v] = *rand.NewPCG(cfg.Seed, uint64(v)*0x9E3779B97F4A7C15+0xD1B54A32D192ED03)
		ex.rngs[v] = *rand.New(&ex.pcgs[v])
		ex.views[v] = NodeView{
			ID:          cfg.IDs[v],
			Degree:      int(hi - lo),
			NeighborIDs: nbr,
			N:           n,
			MaxDegree:   maxDeg,
			Rand:        &ex.rngs[v],
		}
		ex.ctxs[v] = Context{ex: ex, v: int32(v), base: lo, nodeRound: -1}
		ex.haltAt[v] = -1
		ex.active[v] = int32(v)
	}
	clear(ex.progs)
	ex.slab = alg.Nodes(ex.views, ex.progs, ex.slab)
}

// step runs node v for the current round against its inbox; its sends
// have already landed in the next-round buffer when Round returns. The
// inbox is cleared after delivery, which keeps the double buffer clean
// without a full O(m) sweep per round: a slot is non-empty only while it
// carries an undelivered message for a live node.
func (ex *execution) step(v int32) {
	inbox := ex.cur[ex.offsets[v]:ex.offsets[v+1]]
	ex.progs[v].Round(&ex.ctxs[v], inbox)
	clear(inbox)
}

// flip swaps the message buffers. Stale slots need no sweep: step clears
// each inbox on delivery, and slots addressed to halted nodes are never
// read again.
func (ex *execution) flip() {
	ex.cur, ex.next = ex.next, ex.cur
}

// runFrontier is the round loop. Per-round cost is proportional to
// the active frontier, not to n: each round steps exactly the live nodes
// and compacts the worklist in place (stably, preserving increasing node
// order) as nodes halt. This is what makes simulation wall-clock track the
// node-averaged structure of the paper — when most nodes finish in O(1)
// rounds, most of the simulation's work is over after O(1) rounds too.
func (ex *execution) runFrontier() (*Result, error) {
	for {
		round := ex.round
		w := 0
		for _, v := range ex.active {
			ex.step(v)
			if ex.ctxs[v].halted {
				ex.haltAt[v] = round
			} else {
				ex.active[w] = v
				w++
			}
		}
		ex.active = ex.active[:w]
		if w == 0 {
			return ex.collect(int(round))
		}
		if int(round) >= ex.maxRounds {
			return nil, fmt.Errorf("%w: %s did not finish within %d rounds on %s",
				ErrRoundLimit, ex.alg.Name(), ex.maxRounds, ex.g)
		}
		ex.flip()
		ex.round++
	}
}

// collect merges the per-node ledgers into a Result. Every slice placed in
// the Result is freshly allocated: the execution's arenas are reused by the
// next reset, so nothing in a Result may alias them. Run errors are
// reported in node order, each node's in the order it recorded them.
func (ex *execution) collect(rounds int) (*Result, error) {
	n, m := ex.g.N(), ex.g.M()
	res := &Result{
		Rounds:     rounds,
		NodeCommit: make([]int32, n),
		EdgeCommit: make([]int32, m),
		NodeHalt:   append([]int32(nil), ex.haltAt...),
		NodeOut:    make([]int32, n),
		EdgeOut:    make([]int32, m),
		Messages:   ex.messages,
	}
	for e := 0; e < m; e++ {
		res.EdgeCommit[e] = -1
	}
	slices.SortStableFunc(ex.errs, func(a, b nodeErr) int { return cmp.Compare(a.v, b.v) })
	pending := ex.errs
	var errs []error
	for v := 0; v < n; v++ {
		for len(pending) > 0 && pending[0].v == int32(v) {
			errs = append(errs, pending[0].err)
			pending = pending[1:]
		}
		ctx := &ex.ctxs[v]
		res.NodeCommit[v] = ctx.nodeRound
		res.NodeOut[v] = ctx.nodeOut
		base := ex.offsets[v]
		for p, e := range ex.g.EdgeIDs(v) {
			a := base + int32(p)
			r := ex.edgeRound[a]
			switch {
			case r < 0:
			case res.EdgeCommit[e] < 0:
				res.EdgeCommit[e] = r
				res.EdgeOut[e] = ex.edgeOut[a]
			default:
				// Both endpoints committed: values must agree.
				if res.EdgeOut[e] != ex.edgeOut[a] {
					errs = append(errs, fmt.Errorf(
						"runtime: edge %d committed inconsistently (%v vs %v)",
						e, res.EdgeOut[e], ex.edgeOut[a]))
				}
				if r < res.EdgeCommit[e] {
					res.EdgeCommit[e] = r
				}
			}
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("runtime: %d commit errors, first: %w", len(errs), errs[0])
	}
	return res, nil
}
