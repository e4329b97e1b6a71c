package runtime_test

import (
	"math/rand/v2"
	"testing"

	"avgloc/internal/graph"
	"avgloc/internal/ids"
	"avgloc/internal/runtime"
)

// instantHalt commits and halts in round 0: running it measures pure engine
// setup plus one trivial round.
type instantHalt struct{}

func (instantHalt) Name() string { return "bench/instant" }
func (instantHalt) Node(runtime.NodeView) runtime.Program {
	return progFunc(func(ctx *runtime.Context, _ []runtime.Message) {
		ctx.CommitNode(0)
		ctx.Halt()
	})
}

// sparseTail halts everything in round 0 except one node in a hundred,
// which broadcasts for `tail` rounds first — the paper's averaged regime in
// caricature (1% live frontier).
type sparseTail struct{ tail int }

func (sparseTail) Name() string { return "bench/sparse-tail" }
func (s sparseTail) Node(view runtime.NodeView) runtime.Program {
	live := view.ID%100 == 0
	return progFunc(func(ctx *runtime.Context, _ []runtime.Message) {
		if !live || ctx.Round() >= s.tail {
			if !ctx.HasCommitted() {
				ctx.CommitNode(int32(ctx.Round()))
			}
			ctx.Halt()
			return
		}
		ctx.Broadcast(1)
	})
}

// BenchmarkEngineSetup measures building and running the engine once per
// iteration on a mid-size graph with an instantly halting algorithm —
// allocation and setup cost, nothing else. Compare against
// BenchmarkEngineSetupReused to see what Engine reuse saves.
func BenchmarkEngineSetup(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := graph.RandomRegular(4096, 8, rng)
	assignment := ids.Sequential(g.N())
	cfg := runtime.Config{IDs: assignment}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runtime.Run(g, instantHalt{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSetupReused is BenchmarkEngineSetup on one shared Engine:
// the arena-reset path used by repeated measurement trials.
func BenchmarkEngineSetupReused(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := graph.RandomRegular(4096, 8, rng)
	assignment := ids.Sequential(g.N())
	cfg := runtime.Config{IDs: assignment}
	eng := runtime.NewEngine(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(instantHalt{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundSparseFrontier runs 256 rounds with ~1% of nodes live after
// round 0. With the frontier worklist the per-round cost tracks the live
// set; a full-scan engine pays O(n) every round regardless.
func BenchmarkRoundSparseFrontier(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	g := graph.RandomRegular(8192, 4, rng)
	assignment := ids.Sequential(g.N())
	cfg := runtime.Config{IDs: assignment}
	eng := runtime.NewEngine(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(sparseTail{tail: 256}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rounds != 256 {
			b.Fatalf("rounds = %d", res.Rounds)
		}
	}
}
