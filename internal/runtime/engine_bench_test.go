package runtime_test

import (
	"math/rand/v2"
	"testing"

	"avgloc/internal/alg/matching"
	"avgloc/internal/alg/mis"
	"avgloc/internal/graph"
	"avgloc/internal/ids"
	"avgloc/internal/runtime"
	"avgloc/internal/runtime/runtimetest"
)

// instantHalt commits and halts in round 0: running it measures pure engine
// setup plus one trivial round.
var instantHalt = runtimetest.Algorithm("bench/instant", func(runtime.NodeView) runtimetest.Func {
	return func(ctx *runtime.Context, _ []runtime.Message) {
		ctx.CommitNode(0)
		ctx.Halt()
	}
})

// sparseTail halts everything in round 0 except one node in a hundred,
// which broadcasts for `tail` rounds first — the paper's averaged regime in
// caricature (1% live frontier).
func sparseTail(tail int) runtime.Algorithm {
	return runtimetest.Algorithm("bench/sparse-tail", func(view runtime.NodeView) runtimetest.Func {
		live := view.ID%100 == 0
		return func(ctx *runtime.Context, _ []runtime.Message) {
			if !live || ctx.Round() >= tail {
				if !ctx.HasCommitted() {
					ctx.CommitNode(int32(ctx.Round()))
				}
				ctx.Halt()
				return
			}
			ctx.Broadcast(runtime.Message{Kind: 1})
		}
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
		if _, err := runtime.Run(g, instantHalt, cfg); err != nil {
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
		if _, err := eng.Run(instantHalt, cfg); err != nil {
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
		res, err := eng.Run(sparseTail(256), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rounds != 256 {
			b.Fatalf("rounds = %d", res.Rounds)
		}
	}
}

// BenchmarkEngineRunLuby runs mis/luby on one reused engine over a
// 131072-node 8-regular graph, the scale of the large sweeps: the message
// round loop, program slab reuse and the Result columns, per trial.
func BenchmarkEngineRunLuby(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	g := graph.RandomRegular(131072, 8, rng)
	benchEngineRun(b, g, mis.Luby{}, ids.RandomPerm(g.N(), rng))
}

// BenchmarkEngineRunIsraeliItai runs matching/israeliitai on one reused
// engine over a 131072-node 6-regular graph: proposals and acceptances go
// through Send's arc path, match announcements through Broadcast.
func BenchmarkEngineRunIsraeliItai(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 8))
	g := graph.RandomRegular(131072, 6, rng)
	benchEngineRun(b, g, matching.IsraeliItai{}, ids.RandomPerm(g.N(), rng))
}

// BenchmarkEngineRunRandLubyTorus runs matching/randluby on one reused
// engine over the 64×64 torus, serve-miss's Send-heavy spec: three Send
// rounds per phase, then a Broadcast round of match announcements.
func BenchmarkEngineRunRandLubyTorus(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 10))
	g := graph.Torus(64, 64)
	benchEngineRun(b, g, matching.RandLuby{}, ids.RandomPerm(g.N(), rng))
}

// benchEngineRun runs alg on one reused engine over g, one seed per
// iteration.
func benchEngineRun(b *testing.B, g *graph.Graph, alg runtime.Algorithm, assignment []int64) {
	eng := runtime.NewEngine(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(alg, runtime.Config{IDs: assignment, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
