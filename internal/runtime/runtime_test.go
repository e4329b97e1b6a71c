package runtime_test

import (
	"errors"
	"math/rand/v2"
	goruntime "runtime"
	"strings"
	"testing"

	"avgloc/internal/alg/coloring"
	"avgloc/internal/alg/matching"
	"avgloc/internal/alg/mis"
	"avgloc/internal/alg/ruling"
	"avgloc/internal/graph"
	"avgloc/internal/ids"
	"avgloc/internal/runtime"
	"avgloc/internal/runtime/runtimetest"
)

// constant commits immediately without communication.
var constant = runtimetest.Algorithm("test/constant", func(runtime.NodeView) runtimetest.Func {
	return func(ctx *runtime.Context, _ []runtime.Message) {
		ctx.CommitNode(42)
		ctx.Halt()
	}
})

// floodMax floods the maximum identifier for k rounds, then commits it.
func floodMax(k int) runtime.Algorithm {
	return runtimetest.Algorithm("test/floodmax", func(view runtime.NodeView) runtimetest.Func {
		best := view.ID
		return func(ctx *runtime.Context, inbox []runtime.Message) {
			for _, m := range inbox {
				if m.Kind != 0 && m.Val > best {
					best = m.Val
				}
			}
			if ctx.Round() == k {
				ctx.CommitNode(int32(best))
				ctx.Halt()
				return
			}
			ctx.Broadcast(runtime.Message{Kind: 1, Val: best})
		}
	})
}

// edgeMin commits each edge with the smaller endpoint identifier, from both
// sides, exercising double edge commits.
var edgeMin = runtimetest.Algorithm("test/edgemin", func(view runtime.NodeView) runtimetest.Func {
	return func(ctx *runtime.Context, _ []runtime.Message) {
		for p := 0; p < view.Degree; p++ {
			v := view.ID
			if u := view.NeighborIDs[p]; u < v {
				v = u
			}
			ctx.CommitEdge(p, int32(v))
		}
		ctx.Halt()
	}
})

func run(t *testing.T, g *graph.Graph, alg runtime.Algorithm, cfg runtime.Config) *runtime.Result {
	t.Helper()
	res, err := runtime.Run(g, alg, cfg)
	if err != nil {
		t.Fatalf("%s: %v", alg.Name(), err)
	}
	return res
}

func TestConstantCommitsAtRoundZero(t *testing.T) {
	g := graph.Cycle(5)
	res := run(t, g, constant, runtime.Config{IDs: ids.Sequential(5)})
	if res.Rounds != 0 {
		t.Fatalf("rounds = %d, want 0", res.Rounds)
	}
	for v, r := range res.NodeCommit {
		if r != 0 {
			t.Fatalf("node %d committed at %d", v, r)
		}
		if res.NodeOut[v] != 42 {
			t.Fatalf("node %d output %v", v, res.NodeOut[v])
		}
	}
	if res.Messages != 0 {
		t.Fatalf("messages = %d, want 0", res.Messages)
	}
}

func TestFloodMaxReachesEccentricity(t *testing.T) {
	// On a path with the max id at one end, flooding for k rounds reaches
	// exactly distance k.
	n := 10
	g := graph.Path(n)
	assignment := ids.Sequential(n) // node 9 holds the max id
	k := 4
	res := run(t, g, floodMax(k), runtime.Config{IDs: assignment})
	for v := 0; v < n; v++ {
		want := int64(v + k) // best id within distance k along the path
		if want > int64(n-1) {
			want = int64(n - 1)
		}
		if res.NodeOut[v] != int32(want) {
			t.Fatalf("node %d got %v, want %d", v, res.NodeOut[v], want)
		}
		if res.NodeCommit[v] != int32(k) {
			t.Fatalf("node %d committed at %d", v, res.NodeCommit[v])
		}
	}
	if res.Rounds != k {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	// Every node broadcasts in rounds 0..k-1: 2m messages per round.
	want := int64(k) * int64(2*g.M())
	if res.Messages != want {
		t.Fatalf("messages = %d, want %d", res.Messages, want)
	}
}

func TestEdgeCommitsMergeConsistently(t *testing.T) {
	g := graph.Complete(4)
	res := run(t, g, edgeMin, runtime.Config{IDs: ids.Sequential(4)})
	for e := 0; e < g.M(); e++ {
		u, _ := g.Endpoints(e)
		if res.EdgeOut[e] != int32(u) {
			t.Fatalf("edge %d output %v, want %d", e, res.EdgeOut[e], u)
		}
		if res.EdgeCommit[e] != 0 {
			t.Fatalf("edge %d committed at %d", e, res.EdgeCommit[e])
		}
	}
}

// conflicting commits different edge values from the two endpoints.
var conflicting = runtimetest.Algorithm("test/conflict", func(view runtime.NodeView) runtimetest.Func {
	return func(ctx *runtime.Context, _ []runtime.Message) {
		for p := 0; p < view.Degree; p++ {
			ctx.CommitEdge(p, int32(view.ID)) // each side commits its own id
		}
		ctx.Halt()
	}
})

func TestInconsistentEdgeCommitIsAnError(t *testing.T) {
	g := graph.Path(2)
	_, err := runtime.Run(g, conflicting, runtime.Config{IDs: ids.Sequential(2)})
	if err == nil {
		t.Fatal("expected inconsistency error")
	}
}

// never runs forever.
var never = runtimetest.Algorithm("test/never", func(runtime.NodeView) runtimetest.Func {
	return func(*runtime.Context, []runtime.Message) {}
})

func TestRoundLimit(t *testing.T) {
	g := graph.Cycle(3)
	_, err := runtime.Run(g, never, runtime.Config{IDs: ids.Sequential(3), MaxRounds: 7})
	if !errors.Is(err, runtime.ErrRoundLimit) {
		t.Fatalf("got %v, want ErrRoundLimit", err)
	}
}

// doubleCommit commits the node output twice.
var doubleCommit = runtimetest.Algorithm("test/double", func(runtime.NodeView) runtimetest.Func {
	return func(ctx *runtime.Context, _ []runtime.Message) {
		ctx.CommitNode(1)
		ctx.CommitNode(2)
		ctx.Halt()
	}
})

func TestDoubleCommitIsAnError(t *testing.T) {
	g := graph.Path(2)
	if _, err := runtime.Run(g, doubleCommit, runtime.Config{IDs: ids.Sequential(2)}); err == nil {
		t.Fatal("expected double-commit error")
	}
}

func TestLubyProducesMIS(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < 10; trial++ {
		g := graph.GNP(60, 0.1, rng)
		res := run(t, g, mis.Luby{}, runtime.Config{
			IDs:  ids.RandomPerm(g.N(), rng),
			Seed: rng.Uint64(),
		})
		if err := graph.IsMaximalIndependentSet(g, mis.SetFromResult(res)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestGhaffariProducesMIS(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomRegular(60, 6, rng)
		res := run(t, g, mis.Ghaffari{}, runtime.Config{
			IDs:  ids.RandomPerm(g.N(), rng),
			Seed: rng.Uint64(),
		})
		if err := graph.IsMaximalIndependentSet(g, mis.SetFromResult(res)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestIDValidation(t *testing.T) {
	g := graph.Cycle(4)
	if _, err := runtime.Run(g, constant, runtime.Config{IDs: ids.Sequential(3)}); err == nil {
		t.Fatal("expected id-length error")
	}
}

// inboxPort names a port by its receiving node's ID and its port there.
type inboxPort struct {
	id   int64
	port int
}

// received is what badSender's nodes got in round 1: every non-empty
// message counted once, and its kind by the port it arrived on.
type received struct {
	messages int
	kinds    map[inboxPort]uint32
}

// badSender has node 0 misbehave through send(ctx) in round 0; in round 1
// every node counts the messages it received and records the kind of each
// by the port it arrived on.
func badSender(got *received, send func(ctx *runtime.Context, view runtime.NodeView)) runtime.Algorithm {
	return runtimetest.Algorithm("test/bad-sender", func(view runtime.NodeView) runtimetest.Func {
		return func(ctx *runtime.Context, inbox []runtime.Message) {
			if ctx.Round() == 0 {
				if view.ID == 0 {
					send(ctx, view)
				}
				return
			}
			for p, m := range inbox {
				if m.Kind != 0 {
					got.messages++
					got.kinds[inboxPort{view.ID, p}] = m.Kind
				}
			}
			ctx.Halt()
		}
	})
}

// runBadSender runs badSender on a 4-cycle and checks that the run fails
// with an error mentioning each of want, and that node 0's neighbors
// received exactly delivered messages. It returns the kind each port of
// node 0 delivered, 0 for none.
func runBadSender(t *testing.T, delivered int, send func(*runtime.Context, runtime.NodeView), want ...string) [2]uint32 {
	t.Helper()
	got := received{kinds: make(map[inboxPort]uint32)}
	g := graph.Cycle(4)
	_, err := runtime.Run(g, badSender(&got, send), runtime.Config{IDs: ids.Sequential(4)})
	if err == nil {
		t.Fatal("bad sends accepted")
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("error %q does not mention %q", err, w)
		}
	}
	if got.messages != delivered {
		t.Fatalf("%d messages delivered, want %d", got.messages, delivered)
	}
	var kinds [2]uint32
	for p := range kinds {
		u := g.Neighbor(0, p)
		for q, w := range g.Neighbors(u) {
			if w == 0 {
				kinds[p] = got.kinds[inboxPort{int64(u), q}]
			}
		}
	}
	return kinds
}

// TestBadPortIsRunError: a port outside [0, Degree) is a run error naming
// the node and the port, and the message reaches no one — the arc-indexed
// arenas must never let it spill into a neighbor's arcs.
func TestBadPortIsRunError(t *testing.T) {
	runBadSender(t, 0, func(ctx *runtime.Context, view runtime.NodeView) {
		ctx.Send(view.Degree, runtime.Message{Kind: 1})
		ctx.Send(-1, runtime.Message{Kind: 1})
		ctx.CommitEdge(view.Degree, 1)
	}, "3 commit errors", "node 0 sent on port 2 outside [0,2)")
}

// TestEmptyMessageIsRunError: a Kind 0 message, which would read as no
// message at all, is a run error naming the node and the port, and is not
// counted or delivered.
func TestEmptyMessageIsRunError(t *testing.T) {
	runBadSender(t, 0, func(ctx *runtime.Context, _ runtime.NodeView) {
		ctx.Send(1, runtime.Message{Val: 7})
	}, "1 commit errors", "node 0 sent an empty message on port 1 in round 0")
}

// TestDoubleSendIsRunError: a second send on one port in one round is a
// run error naming the node and the port; the first message is delivered
// and the second does not overwrite it.
func TestDoubleSendIsRunError(t *testing.T) {
	got := runBadSender(t, 1, func(ctx *runtime.Context, _ runtime.NodeView) {
		ctx.Send(0, runtime.Message{Kind: 1})
		ctx.Send(0, runtime.Message{Kind: 2})
	}, "1 commit errors", "node 0 sent twice on port 0 in round 0")
	if got[0] != 1 {
		t.Fatalf("port 0 delivered kind %d, want the first message's 1", got[0])
	}
}

// TestMixedSendBroadcastRunErrors: Broadcast counts as a send on every
// port, so mixing it with Send, or broadcasting twice, is a run error
// naming the node and the port, exactly as two Sends on one port are. The
// first message to claim a port is the one delivered, and only delivered
// ports carry a message.
func TestMixedSendBroadcastRunErrors(t *testing.T) {
	k := func(kind uint32) runtime.Message { return runtime.Message{Kind: kind} }
	for _, tc := range []struct {
		name string
		send func(ctx *runtime.Context)
		want []string
		got  [2]uint32 // the Kind node 0's ports 0 and 1 deliver; 0 = nothing
	}{
		{"broadcast after send", func(ctx *runtime.Context) {
			ctx.Send(0, k(1))
			ctx.Broadcast(k(2))
		}, []string{"1 commit errors", "node 0 sent twice on port 0 in round 0"}, [2]uint32{1, 2}},
		{"send after broadcast", func(ctx *runtime.Context) {
			ctx.Broadcast(k(1))
			ctx.Send(1, k(2))
		}, []string{"1 commit errors", "node 0 sent twice on port 1 in round 0"}, [2]uint32{1, 1}},
		{"second broadcast", func(ctx *runtime.Context) {
			ctx.Broadcast(k(1))
			ctx.Broadcast(k(2))
		}, []string{"2 commit errors", "node 0 sent twice on port 0 in round 0"}, [2]uint32{1, 1}},
		{"broadcast after sends on every port", func(ctx *runtime.Context) {
			ctx.Send(0, k(1))
			ctx.Send(1, k(2))
			ctx.Broadcast(k(3))
		}, []string{"2 commit errors", "node 0 sent twice on port 0 in round 0"}, [2]uint32{1, 2}},
		{"empty broadcast", func(ctx *runtime.Context) {
			ctx.Broadcast(runtime.Message{Val: 7})
		}, []string{"2 commit errors", "node 0 sent an empty message on port 0 in round 0"}, [2]uint32{0, 0}},
		{"broadcast after an empty broadcast", func(ctx *runtime.Context) {
			ctx.Broadcast(runtime.Message{Val: 7})
			ctx.Broadcast(k(1))
		}, []string{"2 commit errors", "node 0 sent an empty message on port 0 in round 0"}, [2]uint32{1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			delivered := 0
			for _, kind := range tc.got {
				if kind != 0 {
					delivered++
				}
			}
			got := runBadSender(t, delivered, func(ctx *runtime.Context, _ runtime.NodeView) { tc.send(ctx) }, tc.want...)
			for p, kind := range tc.got {
				if got[p] != kind {
					t.Errorf("port %d delivered kind %d, want %d", p, got[p], kind)
				}
			}
		})
	}
}

// TestEngineFootprint pins the bytes NewEngine allocates, an exact and
// noise-free figure: at most 70% of what the engine with copied topology,
// an outbox arena and untyped output columns allocated (15.54 MB and
// 15.15 MB on these graphs).
func TestEngineFootprint(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, tc := range []struct {
		g      *graph.Graph
		before float64 // MB
	}{
		{graph.RandomRegular(16384, 8, rng), 15.54},
		{graph.RandomTree(32768, rng), 15.15},
	} {
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		eng := runtime.NewEngine(tc.g)
		goruntime.ReadMemStats(&m1)
		goruntime.KeepAlive(eng)
		got := float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		t.Logf("%v: NewEngine %.2f MB (%.0f%% of %.2f MB)", tc.g, got, 100*got/tc.before, tc.before)
		if got > 0.70*tc.before {
			t.Errorf("%v: NewEngine allocated %.2f MB, want at most 70%% of %.2f MB", tc.g, got, tc.before)
		}
	}
}

// TestArcBuffersOnlyForSends pins where the engine's largest arena goes: a
// reused engine running mis.Luby, which only broadcasts, never allocates
// the arc message double buffer, and one running matching.IsraeliItai,
// which sends, allocates it on its first run and reuses it on every later
// one.
func TestArcBuffersOnlyForSends(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 44))
	g := graph.RandomRegular(1024, 6, rng)
	eng := runtime.NewEngine(g)
	cfg := runtime.Config{IDs: ids.RandomPerm(g.N(), rng)}
	for i := 0; i < 3; i++ {
		cfg.Seed++
		if _, err := eng.Run(mis.Luby{}, cfg); err != nil {
			t.Fatal(err)
		}
		if bufs := runtime.ArcBuffers(eng); bufs[0] != nil || bufs[1] != nil {
			t.Fatalf("mis/luby run %d allocated the arc message buffers", i)
		}
	}
	var first [2][]runtime.Message
	for i := 0; i < 3; i++ {
		cfg.Seed++
		if _, err := eng.Run(matching.IsraeliItai{}, cfg); err != nil {
			t.Fatal(err)
		}
		bufs := runtime.ArcBuffers(eng)
		if len(bufs[0]) != 2*g.M() || len(bufs[1]) != 2*g.M() {
			t.Fatalf("matching/israeliitai run %d: arc buffers of %d and %d messages, want %d",
				i, len(bufs[0]), len(bufs[1]), 2*g.M())
		}
		if i == 0 {
			first = bufs
			continue
		}
		same := func(a, b []runtime.Message) bool { return &a[0] == &b[0] }
		if !(same(bufs[0], first[0]) && same(bufs[1], first[1]) ||
			same(bufs[0], first[1]) && same(bufs[1], first[0])) {
			t.Fatalf("matching/israeliitai run %d allocated new arc buffers", i)
		}
	}
}

// TestRunAllocsIndependentOfN pins the engine's allocation-free round
// loop: on a reused engine a run of each randomized algorithm allocates
// the same number of objects (the Result and its columns) on a 1024-node
// and an 8192-node graph. A per-node program, a boxed message or per-phase
// scratch would make the count grow with n.
func TestRunAllocsIndependentOfN(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	small, large := graph.RandomRegular(1024, 8, rng), graph.RandomRegular(8192, 8, rng)
	for _, alg := range []runtime.Algorithm{
		mis.Luby{}, mis.Ghaffari{}, ruling.Rand22{},
		matching.IsraeliItai{}, matching.RandLuby{}, coloring.RandGreedy{},
	} {
		var allocs [2]float64
		for i, g := range []*graph.Graph{small, large} {
			eng := runtime.NewEngine(g)
			cfg := runtime.Config{IDs: ids.RandomPerm(g.N(), rng)}
			allocs[i] = testing.AllocsPerRun(5, func() {
				cfg.Seed++
				if _, err := eng.Run(alg, cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("%s: %v allocs per run at n=%d and n=%d", alg.Name(), allocs, small.N(), large.N())
		if allocs[0] != allocs[1] {
			t.Errorf("%s: %v allocs per run at n=%d but %v at n=%d",
				alg.Name(), allocs[0], small.N(), allocs[1], large.N())
		}
	}
}
