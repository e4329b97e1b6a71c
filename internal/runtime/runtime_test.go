package runtime_test

import (
	"errors"
	"math/rand/v2"
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
			ctx.CommitNode(best)
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
			ctx.CommitEdge(p, v)
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
		if res.NodeOut[v] != want {
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
		if res.EdgeOut[e] != int64(u) {
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
			ctx.CommitEdge(p, view.ID) // each side commits its own id
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
