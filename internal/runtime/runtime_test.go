package runtime_test

import (
	"errors"
	"math/rand/v2"
	goruntime "runtime"
	"strings"
	"testing"

	"avgloc/internal/alg/mis"
	"avgloc/internal/graph"
	"avgloc/internal/ids"
	"avgloc/internal/runtime"
)

// constant commits immediately without communication.
type constant struct{}

func (constant) Name() string { return "test/constant" }
func (constant) Node(runtime.NodeView) runtime.Program {
	return progFunc(func(ctx *runtime.Context, _ []runtime.Message) {
		ctx.CommitNode(42)
		ctx.Halt()
	})
}

type progFunc func(*runtime.Context, []runtime.Message)

func (f progFunc) Round(ctx *runtime.Context, inbox []runtime.Message) { f(ctx, inbox) }

// floodMax floods the maximum identifier for k rounds, then commits it.
type floodMax struct{ k int }

func (f floodMax) Name() string { return "test/floodmax" }
func (f floodMax) Node(view runtime.NodeView) runtime.Program {
	best := view.ID
	return progFunc(func(ctx *runtime.Context, inbox []runtime.Message) {
		for _, m := range inbox {
			if m == nil {
				continue
			}
			if id := m.(int64); id > best {
				best = id
			}
		}
		if ctx.Round() == f.k {
			ctx.CommitNode(int32(best))
			ctx.Halt()
			return
		}
		ctx.Broadcast(best)
	})
}

// edgeMin commits each edge with the smaller endpoint identifier, from both
// sides, exercising double edge commits.
type edgeMin struct{}

func (edgeMin) Name() string { return "test/edgemin" }
func (edgeMin) Node(view runtime.NodeView) runtime.Program {
	return progFunc(func(ctx *runtime.Context, _ []runtime.Message) {
		for p := 0; p < view.Degree; p++ {
			v := view.ID
			if u := view.NeighborIDs[p]; u < v {
				v = u
			}
			ctx.CommitEdge(p, int32(v))
		}
		ctx.Halt()
	})
}

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
	res := run(t, g, constant{}, runtime.Config{IDs: ids.Sequential(5)})
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
	res := run(t, g, floodMax{k: k}, runtime.Config{IDs: assignment})
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
	res := run(t, g, edgeMin{}, runtime.Config{IDs: ids.Sequential(4)})
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
type conflicting struct{}

func (conflicting) Name() string { return "test/conflict" }
func (conflicting) Node(view runtime.NodeView) runtime.Program {
	return progFunc(func(ctx *runtime.Context, _ []runtime.Message) {
		for p := 0; p < view.Degree; p++ {
			ctx.CommitEdge(p, int32(view.ID)) // each side commits its own id
		}
		ctx.Halt()
	})
}

func TestInconsistentEdgeCommitIsAnError(t *testing.T) {
	g := graph.Path(2)
	_, err := runtime.Run(g, conflicting{}, runtime.Config{IDs: ids.Sequential(2)})
	if err == nil {
		t.Fatal("expected inconsistency error")
	}
}

// never runs forever.
type never struct{}

func (never) Name() string { return "test/never" }
func (never) Node(runtime.NodeView) runtime.Program {
	return progFunc(func(ctx *runtime.Context, _ []runtime.Message) {})
}

func TestRoundLimit(t *testing.T) {
	g := graph.Cycle(3)
	_, err := runtime.Run(g, never{}, runtime.Config{IDs: ids.Sequential(3), MaxRounds: 7})
	if !errors.Is(err, runtime.ErrRoundLimit) {
		t.Fatalf("got %v, want ErrRoundLimit", err)
	}
}

// doubleCommit commits the node output twice.
type doubleCommit struct{}

func (doubleCommit) Name() string { return "test/double" }
func (doubleCommit) Node(runtime.NodeView) runtime.Program {
	return progFunc(func(ctx *runtime.Context, _ []runtime.Message) {
		ctx.CommitNode(1)
		ctx.CommitNode(2)
		ctx.Halt()
	})
}

func TestDoubleCommitIsAnError(t *testing.T) {
	g := graph.Path(2)
	if _, err := runtime.Run(g, doubleCommit{}, runtime.Config{IDs: ids.Sequential(2)}); err == nil {
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
	if _, err := runtime.Run(g, constant{}, runtime.Config{IDs: ids.Sequential(3)}); err == nil {
		t.Fatal("expected id-length error")
	}
}

// badPort has node 0 send on and commit ports outside [0, Degree) in round
// 0; in round 1 every node counts the messages it received.
type badPort struct{ received *int }

func (badPort) Name() string { return "test/bad-port" }
func (b badPort) Node(view runtime.NodeView) runtime.Program {
	return progFunc(func(ctx *runtime.Context, inbox []runtime.Message) {
		if ctx.Round() == 0 {
			if view.ID == 0 {
				ctx.Send(view.Degree, 1)
				ctx.Send(-1, 1)
				ctx.CommitEdge(view.Degree, 1)
			}
			return
		}
		for _, m := range inbox {
			if m != nil {
				*b.received++
			}
		}
		ctx.Halt()
	})
}

// TestBadPortIsRunError: a port outside [0, Degree) is a run error naming
// the node and the port, and the message reaches no one — the arc-indexed
// arenas must never let it spill into a neighbor's arcs.
func TestBadPortIsRunError(t *testing.T) {
	received := 0
	g := graph.Cycle(4)
	_, err := runtime.Run(g, badPort{&received}, runtime.Config{IDs: ids.Sequential(4)})
	if err == nil {
		t.Fatal("bad ports accepted")
	}
	for _, want := range []string{"3 commit errors", "node 0 sent on port 2 outside [0,2)"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if received != 0 {
		t.Fatalf("%d messages delivered from bad ports", received)
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
