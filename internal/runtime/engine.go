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
// v's port p is arc offsets[v]+p of the graph's own CSR layout, leading to
// node heads[a]; a message sent on arc a lands in the receiver's inbox
// slot twin[a], and a broadcast by node u lands in u's own slot, which
// each receiver gathers through heads.
type execution struct {
	g         *graph.Graph
	alg       Algorithm
	maxRounds int
	round     int32 // the round being executed

	// Topology borrowed from the graph (graph.Arcs, graph.Heads); never
	// written.
	offsets []int32 // len n+1
	twin    []int32 // len arcs
	heads   []int32 // len arcs

	// Arc-indexed arenas. cur holds each arc's inbox slot for this round;
	// Send writes the next round's slot of the receiving arc directly. The
	// two message buffers are nil until the engine's first Send
	// (startSending).
	cur       []Message
	next      []Message
	sentAt    []int32 // round of the last send on each sender arc; -1 before any
	edgeOut   []int32 // CommitEdge output per sender arc
	edgeRound []int32 // CommitEdge round per sender arc; -1 = uncommitted
	nbrIDs    []int64 // NeighborIDs arena

	// Broadcast slots, node-indexed and double buffered like cur and next:
	// Broadcast writes the sender's slot in bnext, and a receiver reads its
	// neighbors' slots in bcur. A slot is empty unless its node broadcast
	// in the round it was written for: step empties a node's bnext slot
	// before the node runs, and the round after a node halts empties the
	// slot it held two rounds back (halted lists those nodes).
	bcur   []Message
	bnext  []Message
	halted []int32   // the nodes that halted in the previous round
	inbox  []Message // scratch inbox of MaxDegree entries for inboxes built from slots

	// sending and broadcasting record whether some node used Send, and
	// whether some Broadcast delivered, in the current round; flip turns
	// them into the next round's mode.
	sending      bool
	broadcasting bool
	mode         inboxMode

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

// inboxMode says where a round's inboxes come from, by what the previous
// round sent: bit 0 is set if some Broadcast delivered, bit 1 if some node
// used Send.
type inboxMode uint8

const (
	inboxEmpty inboxMode = iota // nothing was sent
	inboxSlots                  // broadcasts only: gather from the slots
	inboxArcs                   // sends only: the arc buffer
	inboxBoth                   // the arc buffer, empty ports from the slots
)

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
		heads:     g.Heads(),
		sentAt:    make([]int32, arcs),
		edgeOut:   make([]int32, arcs),
		edgeRound: make([]int32, arcs),
		nbrIDs:    make([]int64, arcs),
		bcur:      make([]Message, n),
		bnext:     make([]Message, n),
		halted:    make([]int32, 0, n),
		inbox:     make([]Message, g.MaxDegree()),
		progs:     make([]Program, n),
		ctxs:      make([]Context, n),
		views:     make([]NodeView, n),
		rngs:      make([]rand.Rand, n),
		pcgs:      make([]rand.PCG, n),
		haltAt:    make([]int32, n),
		active:    make([]int32, n),
	}
}

// startSending records that the round used Send, on its first Send, and
// allocates the arc message double buffer on the engine's first Send;
// later runs reuse it.
func (ex *execution) startSending() {
	ex.sending = true
	if ex.next == nil {
		ex.cur = make([]Message, len(ex.twin))
		ex.next = make([]Message, len(ex.twin))
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
	ex.sending, ex.broadcasting, ex.mode = false, false, inboxEmpty
	ex.messages = 0
	ex.errs = nil
	// Arc buffers may hold leftovers from an aborted run, or messages sent
	// to halted nodes; per-step inbox clearing only keeps live nodes' arcs
	// clean. The broadcast slots need no sweep: round 0 steps every node,
	// emptying one buffer, and round 1 empties the other through step and
	// the halted list, before any slot of either is read.
	clear(ex.cur)
	clear(ex.next)
	ex.halted = ex.halted[:0]
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
		for p, u := range ex.heads[lo:hi] {
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

// step runs node v for the current round against its inbox, built as the
// round's mode says. Only the arc inbox needs clearing after delivery,
// which keeps the arc double buffer clean without a full O(m) sweep per
// round: an arc slot is non-empty only while it carries an undelivered
// message for a live node. The scratch inbox is rebuilt whole for every
// node, and no program keeps its inbox past Round. Before the node runs,
// step empties its bnext slot, which still holds what it broadcast two
// rounds back, so the slot is empty next round unless it broadcasts now.
func (ex *execution) step(v int32) {
	lo, hi := ex.offsets[v], ex.offsets[v+1]
	ex.bnext[v] = Message{}
	switch ex.mode {
	case inboxEmpty:
		inbox := ex.inbox[:hi-lo]
		clear(inbox)
		ex.progs[v].Round(&ex.ctxs[v], inbox)
	case inboxSlots:
		inbox := ex.inbox[:hi-lo]
		for p, u := range ex.heads[lo:hi] {
			inbox[p] = ex.bcur[u]
		}
		ex.progs[v].Round(&ex.ctxs[v], inbox)
	case inboxArcs:
		inbox := ex.cur[lo:hi]
		ex.progs[v].Round(&ex.ctxs[v], inbox)
		clear(inbox)
	case inboxBoth:
		// A port's arc slot is set exactly when its sender's Send won the
		// port; otherwise the sender's Broadcast, if any, did.
		inbox := ex.cur[lo:hi]
		for p, u := range ex.heads[lo:hi] {
			if inbox[p].Kind == 0 {
				inbox[p] = ex.bcur[u]
			}
		}
		ex.progs[v].Round(&ex.ctxs[v], inbox)
		clear(inbox)
	}
}

// flip swaps the message buffers and sets the next round's mode. Stale
// slots need no sweep: step clears each arc inbox on delivery, arc slots
// addressed to halted nodes are never read again, and broadcast slots are
// emptied by their node's step or, once it halts, by runFrontier.
func (ex *execution) flip() {
	ex.cur, ex.next = ex.next, ex.cur
	ex.bcur, ex.bnext = ex.bnext, ex.bcur
	ex.mode = inboxEmpty
	if ex.broadcasting {
		ex.mode |= inboxSlots
	}
	if ex.sending {
		ex.mode |= inboxArcs
	}
	ex.sending, ex.broadcasting = false, false
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
		// A node that halted last round no longer steps to empty its
		// bnext slot, which holds its broadcast of two rounds back.
		for _, v := range ex.halted {
			ex.bnext[v] = Message{}
		}
		ex.halted = ex.halted[:0]
		w := 0
		for _, v := range ex.active {
			ex.step(v)
			if ex.ctxs[v].halted {
				ex.haltAt[v] = round
				ex.halted = append(ex.halted, v)
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
