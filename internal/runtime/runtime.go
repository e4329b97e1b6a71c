// Package runtime implements the synchronous LOCAL/CONGEST round engine of
// Section 2 of the paper. An algorithm is a per-node program; in every
// synchronous round each node receives the messages its neighbors sent in
// the previous round, updates its state, and sends new messages. The engine
// records, for every node and every edge, the round at which its output was
// committed — the "computation time" T_v, T_e of Definition 1 — together
// with the committed outputs, as int32 columns.
//
// Node programs are state machines (Program): the engine calls Round once
// per synchronous round with the node's inbox, and a program keeps whatever
// phase, counters and scratch it needs between calls. Programs are pure
// functions of their local state, inbox and node-private PRNG, so a run is
// reproducible bit for bit; a test checks the executor against an
// independent naive reference implementation.
//
// The executor is sequential and keeps an active worklist holding exactly
// the nodes that have not halted; a node leaves the worklist at its halt
// round (the frontier invariant), so the cost of a round is proportional
// to the surviving frontier, not to n. Under the paper's node-averaged regime —
// where all but a vanishing fraction of nodes finish in O(1) rounds — total
// simulation work is Θ(Σ_v T_v) instead of Θ(n · max_v T_v).
//
// Engine binds the executor to one graph and reuses its internal arenas
// across runs, which makes repeated trials on the same graph (the shape of
// every measurement loop in internal/core) allocation-free in the round
// loop. The arenas are indexed by the graph's own arcs and nodes: the
// engine borrows the graph's CSR offsets, twin-arc and arc-head arrays
// rather than copying them. Messages are fixed 16-byte values holding no
// pointers, so nothing is boxed and the garbage collector scans nothing.
// A Broadcast writes one slot for its sender, and each receiver gathers
// its inbox from its neighbors' slots; a Send writes the message straight
// into the receiving arc's slot of an arc-indexed next-round buffer, which
// the engine allocates only once some run on it sends. An Algorithm builds
// the programs of all nodes at once into one slab, which the engine hands
// back to it on the next run.
package runtime

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"avgloc/internal/graph"
)

// Message is the payload a node sends to one neighbor, delivered one round
// later. It is a fixed 16-byte value holding no pointers, so the engine's
// message buffers need no boxing, write barriers or GC scanning. Kind says
// what the message means: every algorithm package declares its kinds as
// constants from 1, and Kind 0 is the empty slot — an inbox entry with
// Kind 0 means no message arrived on that port, and sending one is a run
// error. Aux and Val carry the payload the kind defines. Identifiers need
// not ride in a message: the receiver reads the sender's from
// NodeView.NeighborIDs.
type Message struct {
	Kind uint32
	Aux  uint32
	Val  int64
}

// NodeView is the static local information a node starts with: its own
// identifier, port-numbered neighborhood with neighbor identifiers (the
// standard LOCAL assumption), and the global parameters n and Δ that LOCAL
// algorithms conventionally know.
type NodeView struct {
	ID          int64
	Degree      int
	NeighborIDs []int64
	N           int
	MaxDegree   int
	Rand        *rand.Rand // node-private randomness; nil for deterministic runs
}

// Program is the per-node state machine. Round is invoked once per
// synchronous round with the messages received on each port (entries with
// Kind 0 mean no message). The first invocation has ctx.Round() == 0 and
// an empty inbox: outputs committed there depend on purely local
// information.
type Program interface {
	Round(ctx *Context, inbox []Message)
}

// Algorithm builds the programs of a run.
type Algorithm interface {
	// Name identifies the algorithm in reports and benchmarks.
	Name() string
	// Nodes sets progs[v] to a fresh program for the node with view
	// views[v], for every v (len(progs) == len(views)). slab is what
	// Nodes returned on the engine's previous run, or nil on its first:
	// the algorithm keeps its programs and their per-node or per-port
	// scratch in one slab, reuses it when slab is its own kind with room
	// enough (see Slab and Reslice), and returns it for the next run.
	// Nothing of a previous run may leak into the new programs.
	Nodes(views []NodeView, progs []Program, slab any) any
}

// Reslice returns s with length n and every element zeroed, reusing its
// array when it has the capacity. Algorithms carve their slabs with it.
func Reslice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Slab is Nodes for an algorithm whose slab is just its programs, one T
// per node: it reuses slab when it is the *[]T an earlier call returned,
// zeroes len(progs) programs in it, points progs[v] at the v-th, and
// returns the slab.
func Slab[T any, P interface {
	*T
	Program
}](progs []Program, slab any) *[]T {
	nodes, _ := slab.(*[]T)
	if nodes == nil {
		nodes = new([]T)
	}
	*nodes = Reslice(*nodes, len(progs))
	for v := range *nodes {
		progs[v] = P(&(*nodes)[v])
	}
	return nodes
}

// OutputKind describes where a problem's outputs live, which determines the
// completion-time semantics of Definition 1.
type OutputKind int

const (
	// NodeOutputs is for problems labelling nodes (MIS, ruling sets,
	// coloring): T_v is v's own commit round and T_e = max(T_u, T_v).
	NodeOutputs OutputKind = iota + 1
	// EdgeOutputs is for problems labelling edges (matching, orientation):
	// T_e is the edge's commit round and T_v is the max over v's incident
	// edges.
	EdgeOutputs
)

// Context is the per-node handle passed to Program.Round. It is only valid
// during the call. It holds no slices of its own: the node's ports are the
// arcs base..base+Degree-1 of the execution's arc-indexed arenas.
type Context struct {
	ex        *execution
	v         int32 // index of the node's view in ex.views
	base      int32 // the node's first arc: port p is arc base+p
	nodeOut   int32
	nodeRound int32 // -1 until CommitNode
	halted    bool
}

// View returns the node's static local information.
func (c *Context) View() *NodeView { return &c.ex.views[c.v] }

// Round returns the current round number (0 for the initial round).
func (c *Context) Round() int { return int(c.ex.round) }

// fail records a run error of this node; Run reports it after the run.
func (c *Context) fail(format string, args ...any) {
	c.ex.errs = append(c.ex.errs, nodeErr{v: c.v, err: fmt.Errorf(format, args...)})
}

// badPort records a run error naming the node and a port outside
// [0, Degree) that it tried to use.
func (c *Context) badPort(what string, port int) {
	view := &c.ex.views[c.v]
	c.fail("runtime: node %d %s port %d outside [0,%d) in round %d", view.ID, what, port, view.Degree, c.ex.round)
}

// Send delivers a message on the given port next round: it is written
// straight into the receiver's inbox slot of the next-round arc buffer. At
// most one message per port per round may be sent (bundle payloads into
// one message value instead), and a port that Broadcast already served
// this round counts as sent; violations, empty messages (Kind 0) and
// ports outside [0, Degree) are reported as run errors and deliver
// nothing.
func (c *Context) Send(port int, m Message) {
	ex := c.ex
	if uint(port) >= uint(ex.views[c.v].Degree) {
		c.badPort("sent on", port)
		return
	}
	if !ex.sending {
		ex.startSending()
	}
	a := c.base + int32(port)
	if m.Kind == 0 || ex.sentAt[a] == ex.round {
		c.badSend(a, m)
		return
	}
	ex.sentAt[a] = ex.round
	ex.messages++
	ex.next[ex.twin[a]] = m
}

// Broadcast sends the same message on every port. It stamps the node's
// arcs as sent, so a second Broadcast, or a Send and a Broadcast on one
// port, is a run error on that port exactly as two Sends would be, and
// the first message is the one delivered. It then writes the message
// once, into the node's broadcast slot, from which each neighbor's inbox
// gathers it next round.
func (c *Context) Broadcast(m Message) {
	ex := c.ex
	lo := c.base
	round, sentAt := ex.round, ex.sentAt[lo:lo+int32(ex.views[c.v].Degree)]
	var sent int64
	for i := range sentAt {
		if m.Kind == 0 || sentAt[i] == round {
			c.badSend(lo+int32(i), m)
			continue
		}
		sentAt[i] = round
		sent++
	}
	if sent > 0 {
		ex.messages += sent
		ex.bnext[c.v] = m
		ex.broadcasting = true
	}
}

// badSend records the run error of a send on arc a that delivers nothing.
func (c *Context) badSend(a int32, m Message) {
	port := a - c.base
	if m.Kind == 0 {
		c.fail("runtime: node %d sent an empty message on port %d in round %d", c.ex.views[c.v].ID, port, c.ex.round)
		return
	}
	c.fail("runtime: node %d sent twice on port %d in round %d", c.ex.views[c.v].ID, port, c.ex.round)
}

// CommitNode irrevocably fixes this node's output at the current round.
// Committing twice is an error (reported by Run).
func (c *Context) CommitNode(out int32) {
	if c.nodeRound >= 0 {
		c.fail("runtime: node %d committed twice (round %d)", c.ex.views[c.v].ID, c.ex.round)
		return
	}
	c.nodeOut = out
	c.nodeRound = c.ex.round
}

// HasCommitted reports whether this node already committed its output.
func (c *Context) HasCommitted() bool { return c.nodeRound >= 0 }

// CommitEdge irrevocably fixes the output of the edge on the given port at
// the current round. Either endpoint may commit an edge; if both do, the
// values must agree (checked by Run). A port outside [0, Degree) is a run
// error.
func (c *Context) CommitEdge(port int, out int32) {
	ex := c.ex
	if uint(port) >= uint(ex.views[c.v].Degree) {
		c.badPort("committed", port)
		return
	}
	a := c.base + int32(port)
	if ex.edgeRound[a] >= 0 {
		c.fail("runtime: node %d committed port %d twice (round %d)", ex.views[c.v].ID, port, ex.round)
		return
	}
	ex.edgeOut[a] = out
	ex.edgeRound[a] = ex.round
}

// Halt stops this node: its Round will not be called again, and messages
// addressed to it are dropped. Neighbors are not notified implicitly.
func (c *Context) Halt() { c.halted = true }

// Result is the outcome of a run.
type Result struct {
	// Rounds is the number of the last round executed (the final round in
	// which some node was still running). A run where every node halts in
	// the initial round has Rounds == 0.
	Rounds int
	// NodeCommit[v] is the round at which node v committed (-1 if never).
	NodeCommit []int32
	// EdgeCommit[e] is the earliest round at which either endpoint
	// committed edge e (-1 if never).
	EdgeCommit []int32
	// NodeHalt[v] is the round at which node v halted (-1 if it ran to the
	// round limit).
	NodeHalt []int32
	// NodeOut[v] is node v's committed output. An uncommitted node reads
	// 0; NodeCommit[v] == -1 is what marks it uncommitted.
	NodeOut []int32
	// EdgeOut[e] is edge e's committed output. An uncommitted edge reads 0;
	// EdgeCommit[e] == -1 is what marks it uncommitted.
	EdgeOut []int32
	// Messages is the total number of messages sent.
	Messages int64
}

// Config controls a run.
type Config struct {
	// IDs is the identifier assignment (len == g.N()). Required.
	IDs []int64
	// Seed seeds the per-node PRNGs; node v uses PCG(Seed, v-mixed).
	// Deterministic algorithms may ignore it.
	Seed uint64
	// MaxRounds aborts the run if some node is still live after this many
	// rounds. Zero selects a generous default based on n.
	MaxRounds int
}

// ErrRoundLimit is returned when a run exceeds its round budget.
var ErrRoundLimit = errors.New("runtime: round limit exceeded")

// DefaultMaxRounds returns the default round budget for an n-node graph.
func DefaultMaxRounds(n int) int {
	budget := 512
	for m := 2; m < n; m *= 2 {
		budget += 64
	}
	return budget
}

// Engine is a round executor bound to one graph. It borrows the graph's
// CSR offsets, twin-arc and arc-head arrays as its topology and sizes its
// buffers once from the graph: the per-arc send stamps, edge output and
// edge commit columns and neighbor-ID arena, and the per-node broadcast
// slots, contexts, views and PRNGs. The arc message double buffer is
// allocated by the first Send on the engine, so an engine whose
// algorithms only broadcast never holds it. Every Run reuses them, and
// hands the algorithm back the program slab of the previous run, so
// repeated trials on the same graph — the shape of every measurement loop
// — cost O(1) allocations per run (the Result columns) plus whatever the
// programs allocate as they run.
//
// An Engine is not safe for concurrent use; give each worker its own.
// Results returned by Run never alias engine buffers and stay valid after
// subsequent runs. NodeView values handed to programs (including their
// NeighborIDs) are invalidated by the next Run on the same engine.
type Engine struct {
	ex *execution
}

// NewEngine builds an engine for g. Setup is O(n + m).
func NewEngine(g *graph.Graph) *Engine {
	return &Engine{ex: newExecution(g)}
}

// Run executes alg under cfg on the engine's graph, reusing the engine's
// buffers. Semantics are identical to the package-level Run.
func (e *Engine) Run(alg Algorithm, cfg Config) (*Result, error) {
	if len(cfg.IDs) != e.ex.g.N() {
		return nil, fmt.Errorf("runtime: got %d ids for %d nodes", len(cfg.IDs), e.ex.g.N())
	}
	e.ex.reset(alg, cfg)
	return e.ex.runFrontier()
}

// Run executes alg on g under cfg and returns the measurement ledger. For
// repeated runs on the same graph, build an Engine once and reuse it.
func Run(g *graph.Graph, alg Algorithm, cfg Config) (*Result, error) {
	return NewEngine(g).Run(alg, cfg)
}
