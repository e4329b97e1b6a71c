package matching_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"avgloc/internal/alg/matching"
	"avgloc/internal/graph"
	"avgloc/internal/measure"
	"avgloc/internal/runtime"
)

func TestDetMaximalMatching(t *testing.T) {
	for i, g := range workloads(t, 51) {
		res, err := matching.Det{}.Run(g, nil, 0)
		if err != nil {
			t.Fatalf("workload %d (%s): %v", i, g, err)
		}
		if err := graph.IsMaximalMatching(g, matching.SetFromResult(res)); err != nil {
			t.Fatalf("workload %d (%s): %v", i, g, err)
		}
	}
}

func TestDetMatchingProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0xfeed))
		n := 5 + int(seed%60)
		g := graph.GNP(n, 0.15, rng)
		res, err := matching.Det{}.Run(g, nil, 0)
		if err != nil {
			return false
		}
		return graph.IsMaximalMatching(g, matching.SetFromResult(res)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDetMatchingEdgeAvgIndependentOfN(t *testing.T) {
	// Theorem 5 shape: at fixed Δ, the edge-averaged complexity must not
	// grow with n (worst case may grow like log n).
	rng := rand.New(rand.NewPCG(53, 54))
	var avgs []float64
	for _, n := range []int{128, 512} {
		g := graph.RandomRegular(n, 4, rng)
		res, err := matching.Det{}.Run(g, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := measure.Completion(g, res, runtime.EdgeOutputs)
		if err != nil {
			t.Fatal(err)
		}
		avgs = append(avgs, measure.EdgeAvg(tm))
	}
	if avgs[1] > 1.5*avgs[0]+2 {
		t.Fatalf("edge average grew with n at fixed Δ: %v", avgs)
	}
}

func TestDetMatchingProgressPerIteration(t *testing.T) {
	// The rounding must produce a matching that retires a decent fraction
	// of the edges; with the default parameters the whole run should need
	// only O(log n) iterations — bounded here via the worst-case rounds.
	rng := rand.New(rand.NewPCG(55, 56))
	g := graph.RandomRegular(300, 8, rng)
	res, err := matching.Det{}.Run(g, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.IsMaximalMatching(g, matching.SetFromResult(res)); err != nil {
		t.Fatal(err)
	}
	tm, err := measure.Completion(g, res, runtime.EdgeOutputs)
	if err != nil {
		t.Fatal(err)
	}
	if w := measure.Worst(tm); w > 20000 {
		t.Fatalf("deterministic matching took too long: %d rounds", w)
	}
	if measure.EdgeAvg(tm) > float64(measure.Worst(tm)) {
		t.Fatal("edge average exceeds worst case")
	}
}
