package runtime

// An independent reference executor, kept deliberately naive (per-node
// inbox slices, full O(n) scans per round, no arenas, no frontier), used as
// the semantic oracle for the frontier engine: the optimized executor must
// match it field-for-field on every Result.

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"avgloc/internal/graph"
)

// referenceRun replicates the engine's semantics with none of the
// frontier/arena/slot machinery. Each node gets a private one-node
// execution whose twin array is the identity, so the Context methods write
// the node's sends into its own outbox, its broadcast into its own single
// slot and its edge commits into its own per-port ledger; the reference
// then scatters every delivered port through g.Neighbor/TwinPort itself:
// a port stamped as sent this round carries the outbox message if Send
// won it and the broadcast otherwise.
func referenceRun(g *graph.Graph, alg Algorithm, cfg Config) (*Result, error) {
	n := g.N()
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds(n)
	}
	nodes := make([]*execution, n)
	ctxs := make([]*Context, n)
	views := make([]NodeView, n)
	progs := make([]Program, n)
	halted := make([]bool, n)
	haltAt := make([]int32, n)
	cur := make([][]Message, n)
	next := make([][]Message, n)
	for v := 0; v < n; v++ {
		deg := g.Deg(v)
		nbrIDs := make([]int64, deg)
		for p := 0; p < deg; p++ {
			nbrIDs[p] = cfg.IDs[g.Neighbor(v, p)]
		}
		views[v] = NodeView{
			ID:          cfg.IDs[v],
			Degree:      deg,
			NeighborIDs: nbrIDs,
			N:           n,
			MaxDegree:   g.MaxDegree(),
			Rand:        rand.New(rand.NewPCG(cfg.Seed, uint64(v)*0x9E3779B97F4A7C15+0xD1B54A32D192ED03)),
		}
		node := &execution{
			views:     views[v : v+1],
			twin:      make([]int32, deg),
			next:      make([]Message, deg), // the node's outbox
			sentAt:    make([]int32, deg),
			edgeOut:   make([]int32, deg),
			edgeRound: make([]int32, deg),
			bnext:     make([]Message, 1), // the node's broadcast
		}
		for p := 0; p < deg; p++ {
			node.twin[p] = int32(p)
			node.sentAt[p] = -1
			node.edgeRound[p] = -1
		}
		nodes[v] = node
		ctxs[v] = &Context{ex: node, nodeRound: -1}
		haltAt[v] = -1
		cur[v] = make([]Message, deg)
		next[v] = make([]Message, deg)
	}
	alg.Nodes(views, progs, nil)
	live := n
	round := int32(0)
	for {
		for v := 0; v < n; v++ {
			if halted[v] {
				continue
			}
			node := nodes[v]
			node.round = round
			progs[v].Round(ctxs[v], cur[v])
			outbox, bcast := node.next, node.bnext[0]
			for p, m := range outbox {
				if node.sentAt[p] != round {
					continue
				}
				if m.Kind == 0 {
					m = bcast // no Send won the port: the broadcast did
				}
				next[g.Neighbor(v, p)][g.TwinPort(v, p)] = m
				outbox[p] = Message{}
			}
		}
		for v := 0; v < n; v++ {
			if !halted[v] && ctxs[v].halted {
				halted[v] = true
				haltAt[v] = round
				live--
			}
		}
		if live == 0 {
			break
		}
		if int(round) >= maxRounds {
			return nil, fmt.Errorf("%w: reference", ErrRoundLimit)
		}
		cur, next = next, cur
		for v := range next {
			clear(next[v])
		}
		round++
	}

	m := g.M()
	res := &Result{
		Rounds:     int(round),
		NodeCommit: make([]int32, n),
		EdgeCommit: make([]int32, m),
		NodeHalt:   haltAt,
		NodeOut:    make([]int32, n),
		EdgeOut:    make([]int32, m),
	}
	for e := 0; e < m; e++ {
		res.EdgeCommit[e] = -1
	}
	for v := 0; v < n; v++ {
		node, ctx := nodes[v], ctxs[v]
		if len(node.errs) > 0 {
			return nil, node.errs[0].err
		}
		res.NodeCommit[v] = ctx.nodeRound
		res.NodeOut[v] = ctx.nodeOut
		res.Messages += node.messages
		for p := 0; p < g.Deg(v); p++ {
			if node.edgeRound[p] < 0 {
				continue
			}
			e := g.EdgeID(v, p)
			if res.EdgeCommit[e] < 0 {
				res.EdgeCommit[e] = node.edgeRound[p]
				res.EdgeOut[e] = node.edgeOut[p]
			} else if node.edgeRound[p] < res.EdgeCommit[e] {
				res.EdgeCommit[e] = node.edgeRound[p]
			}
		}
	}
	return res, nil
}

type refProgFunc func(*Context, []Message)

func (f refProgFunc) Round(ctx *Context, inbox []Message) { f(ctx, inbox) }

type refAlgFunc struct {
	name string
	node func(view NodeView) refProgFunc
}

func (a refAlgFunc) Name() string { return a.name }

func (a refAlgFunc) Nodes(views []NodeView, progs []Program, _ any) any {
	for v := range views {
		progs[v] = a.node(views[v])
	}
	return nil
}

// coinGossip is a randomized algorithm exercising every Context facility:
// per-node PRNG, messages, node commits, edge commits (from both sides) and
// staggered halts.
func coinGossip() Algorithm {
	return refAlgFunc{
		name: "test/coin-gossip",
		node: func(view NodeView) refProgFunc {
			heads := 0
			return func(ctx *Context, inbox []Message) {
				for _, m := range inbox {
					if m.Kind != 0 {
						heads += int(m.Val)
					}
				}
				if view.Rand.Uint64()%4 == 0 || ctx.Round() > 20 {
					if !ctx.HasCommitted() {
						ctx.CommitNode(int32(heads))
					}
					for p := 0; p < view.Degree; p++ {
						lo := view.ID
						if view.NeighborIDs[p] < lo {
							lo = view.NeighborIDs[p]
						}
						ctx.CommitEdge(p, int32(lo))
					}
					ctx.Halt()
					return
				}
				ctx.Broadcast(Message{Kind: 1, Val: int64(view.Rand.Uint64() % 2)})
			}
		},
	}
}

// mixedGossip mixes Send and Broadcast within rounds: each round a node
// broadcasts, sends on a random subset of its ports, or stays silent, so
// rounds deliver slots only, arcs only, or both. A node's output folds in
// every message with the port it arrived on.
func mixedGossip() Algorithm {
	return refAlgFunc{
		name: "test/mixed-gossip",
		node: func(view NodeView) refProgFunc {
			sum := int64(0)
			return func(ctx *Context, inbox []Message) {
				for p, m := range inbox {
					if m.Kind != 0 {
						sum = sum*31 + int64(p+1)*int64(m.Kind)*(m.Val+1)
					}
				}
				if view.Rand.Uint64()%6 == 0 || ctx.Round() > 20 {
					ctx.CommitNode(int32(sum))
					ctx.Halt()
					return
				}
				val := int64(view.Rand.Uint64() % 8)
				switch view.Rand.Uint64() % 3 {
				case 0:
					ctx.Broadcast(Message{Kind: 1, Val: val})
				case 1:
					for p := 0; p < view.Degree; p++ {
						if view.Rand.Uint64()%2 == 0 {
							ctx.Send(p, Message{Kind: 2, Val: val + int64(p)})
						}
					}
				}
			}
		},
	}
}

func TestFrontierMatchesReference(t *testing.T) {
	for _, alg := range []func() Algorithm{coinGossip, mixedGossip} {
		t.Run(alg().Name(), func(t *testing.T) { testFrontierMatchesReference(t, alg) })
	}
}

func testFrontierMatchesReference(t *testing.T, alg func() Algorithm) {
	rng := rand.New(rand.NewPCG(7, 9))
	for trial := 0; trial < 30; trial++ {
		n := 8 + int(rng.Uint64()%60)
		g := graph.GNP(n, 0.12, rng)
		idsAssign := make([]int64, n)
		for i := range idsAssign {
			idsAssign[i] = int64(i)
		}
		rng.Shuffle(n, func(i, j int) { idsAssign[i], idsAssign[j] = idsAssign[j], idsAssign[i] })
		cfg := Config{IDs: idsAssign, Seed: rng.Uint64()}
		want, err1 := referenceRun(g, alg(), cfg)
		got, err2 := Run(g, alg(), cfg)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: frontier result diverges from reference\nwant %+v\ngot  %+v", trial, want, got)
		}
	}
}

func TestEngineReuseMatchesFreshRuns(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	g := graph.GNP(50, 0.15, rng)
	idsAssign := make([]int64, g.N())
	for i := range idsAssign {
		idsAssign[i] = int64(i)
	}
	eng := NewEngine(g)
	for trial := 0; trial < 10; trial++ {
		// Alternate a broadcast-only and a mixed algorithm on one engine.
		alg := coinGossip
		if trial%2 == 1 {
			alg = mixedGossip
		}
		cfg := Config{IDs: idsAssign, Seed: uint64(1000 + trial)}
		fresh, err1 := Run(g, alg(), cfg)
		reused, err2 := eng.Run(alg(), cfg)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v / %v", trial, err1, err2)
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("trial %d: reused engine diverges from fresh engine", trial)
		}
	}
}

// TestEngineReuseAfterAbort checks that a round-limit abort leaves no stale
// state behind for the next run on the same engine.
func TestEngineReuseAfterAbort(t *testing.T) {
	g := graph.Cycle(9)
	idsAssign := make([]int64, g.N())
	for i := range idsAssign {
		idsAssign[i] = int64(i)
	}
	chatter := refAlgFunc{
		name: "test/chatter",
		node: func(view NodeView) refProgFunc {
			return func(ctx *Context, _ []Message) { ctx.Broadcast(Message{Kind: 1}) }
		},
	}
	eng := NewEngine(g)
	if _, err := eng.Run(chatter, Config{IDs: idsAssign, MaxRounds: 4}); err == nil {
		t.Fatal("expected round-limit error")
	}
	cfg := Config{IDs: idsAssign, Seed: 5}
	fresh, err1 := Run(g, coinGossip(), cfg)
	reused, err2 := eng.Run(coinGossip(), cfg)
	if err1 != nil || err2 != nil {
		t.Fatalf("%v / %v", err1, err2)
	}
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatal("engine reuse after abort diverges from fresh engine")
	}
}
