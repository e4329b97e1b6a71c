package ruling_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"avgloc/internal/alg/ruling"
	"avgloc/internal/graph"
	"avgloc/internal/ids"
	"avgloc/internal/measure"
	"avgloc/internal/runtime"
)

func runOn(t *testing.T, g *graph.Graph, alg runtime.Algorithm, seed uint64) *runtime.Result {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xabcdef))
	res, err := runtime.Run(g, alg, runtime.Config{
		IDs:  ids.RandomPerm(g.N(), rng),
		Seed: seed,
	})
	if err != nil {
		t.Fatalf("%s on %s: %v", alg.Name(), g, err)
	}
	return res
}

func TestRand22ProducesRulingSet(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	workloads := []*graph.Graph{
		graph.Cycle(50),
		graph.Complete(12),
		graph.Star(30),
		graph.GNP(80, 0.08, rng),
		graph.RandomRegular(60, 5, rng),
		graph.Grid(8, 9),
	}
	for i, g := range workloads {
		for trial := 0; trial < 3; trial++ {
			res := runOn(t, g, ruling.Rand22{}, uint64(100*i+trial))
			set := ruling.SetFromResult(res)
			if err := graph.IsRulingSet(g, set, 2); err != nil {
				t.Fatalf("workload %d trial %d: %v", i, trial, err)
			}
		}
	}
}

func TestRand22NodeAveragedIsSmall(t *testing.T) {
	// Theorem 2: node-averaged complexity O(1). On a 5-regular random
	// graph the measured node average should be well below the worst case.
	rng := rand.New(rand.NewPCG(23, 24))
	g := graph.RandomRegular(400, 5, rng)
	agg := measure.NewAgg(g.N(), g.M())
	for trial := 0; trial < 5; trial++ {
		res := runOn(t, g, ruling.Rand22{}, uint64(trial))
		tm, err := measure.Completion(g, res, runtime.NodeOutputs)
		if err != nil {
			t.Fatal(err)
		}
		agg.Add(tm)
	}
	if avg := agg.NodeAvg(); avg > 15 {
		t.Fatalf("node-averaged complexity suspiciously high: %.2f", avg)
	}
	if agg.NodeAvg() > agg.WorstMean() {
		t.Fatal("average exceeds worst case")
	}
}

func TestDetProducesRulingSet(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 26))
	workloads := []struct {
		g    *graph.Graph
		name string
	}{
		{graph.Cycle(40), "cycle"},
		{graph.GNP(60, 0.1, rng), "gnp"},
		{graph.RandomRegular(64, 4, rng), "regular"},
		{graph.Grid(6, 7), "grid"},
		{graph.Star(20), "star"},
	}
	for _, variant := range []ruling.DetVariant{ruling.LogDelta, ruling.LogLogN} {
		for _, w := range workloads {
			alg := ruling.Det{Variant: variant}
			res := runOn(t, w.g, alg, 7)
			set := ruling.SetFromResult(res)
			if err := graph.IsIndependentSet(w.g, set); err != nil {
				t.Fatalf("%s/%s: %v", alg.Name(), w.name, err)
			}
			beta := alg.Iterations(w.g.N(), w.g.MaxDegree()) + 1
			if err := graph.IsRulingSet(w.g, set, beta); err != nil {
				t.Fatalf("%s/%s: domination radius exceeds %d: %v", alg.Name(), w.name, beta, err)
			}
		}
	}
}

func TestDetDeterministic(t *testing.T) {
	// Deterministic algorithm: identical outputs whatever the seed.
	g := graph.Grid(5, 8)
	assignment := ids.Sequential(g.N())
	alg := ruling.Det{Variant: ruling.LogDelta}
	a, err := runtime.Run(g, alg, runtime.Config{IDs: assignment, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runtime.Run(g, alg, runtime.Config{IDs: assignment, Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if a.NodeOut[v] != b.NodeOut[v] {
			t.Fatalf("node %d output differs across seeds", v)
		}
	}
}

func TestDetBetaTracksLogDelta(t *testing.T) {
	// The (2, O(log Δ)) variant's measured domination radius must grow at
	// most logarithmically in Δ: compare against the iteration budget.
	rng := rand.New(rand.NewPCG(27, 28))
	for _, d := range []int{3, 6, 12} {
		g := graph.RandomRegular(120, d, rng)
		alg := ruling.Det{Variant: ruling.LogDelta}
		res := runOn(t, g, alg, 5)
		set := ruling.SetFromResult(res)
		radius, err := graph.DominationRadius(g, set)
		if err != nil {
			t.Fatal(err)
		}
		budget := alg.Iterations(g.N(), d) + 1
		if radius > budget {
			t.Fatalf("Δ=%d: radius %d exceeds budget %d", d, radius, budget)
		}
		want := int(math.Ceil(3*math.Log2(float64(d)+1))) + 1
		if budget != want {
			t.Fatalf("iteration budget %d, want %d", budget, want)
		}
	}
}
