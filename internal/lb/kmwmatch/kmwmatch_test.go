package kmwmatch_test

import (
	"math/rand/v2"
	"testing"

	"avgloc/internal/alg/matching"
	"avgloc/internal/graph"
	"avgloc/internal/ids"
	"avgloc/internal/lb/basegraph"
	"avgloc/internal/lb/kmwmatch"
	"avgloc/internal/runtime"
)

func buildSmall(t *testing.T) *kmwmatch.Instance {
	t.Helper()
	base, err := basegraph.Build(basegraph.Params{K: 1, Beta: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(91, 92))
	inst, err := kmwmatch.Build(base, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestStructure(t *testing.T) {
	inst := buildSmall(t)
	if inst.G.N() != 2*inst.Half {
		t.Fatalf("n=%d, half=%d", inst.G.N(), inst.Half)
	}
	// Cross edges form a perfect matching between copies, same cluster on
	// both sides.
	seen := make([]bool, inst.G.N())
	for v := 0; v < inst.Half; v++ {
		e := int(inst.CrossEdges[v])
		a, b := inst.G.Endpoints(e)
		if a != v || b != v+inst.Half {
			t.Fatalf("cross edge %d joins (%d,%d), want (%d,%d)", e, a, b, v, v+inst.Half)
		}
		if inst.ClusterOf[a] != inst.ClusterOf[b] {
			t.Fatalf("cross edge %d crosses clusters", e)
		}
		if seen[a] || seen[b] {
			t.Fatal("cross edges share a node")
		}
		seen[a], seen[b] = true, true
	}
}

func TestMaximalMatchingUsesCrossEdges(t *testing.T) {
	// Appendix C.4: any maximal matching must contain almost all of the
	// S(c0)–S(c0') perfect-matching edges once β is large — S(c0) is an
	// independent set that dwarfs its neighbor clusters, so most of its
	// nodes can only be covered by their cross edge. The crowding needs
	// |S(c1)| << |S(c0)| (ratio β/2), so this asserts at k=0, β=16 where
	// |S(c1)|/|S(c0)| = 1/8; at small β the fraction legitimately shrinks
	// (the e9 pair in campaigns/paper.json runs at k=1, β=4).
	base, err := basegraph.Build(basegraph.Params{K: 0, Beta: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(93, 94))
	inst, err := kmwmatch.Build(base, 2, rng)
	if err != nil {
		t.Fatal(err)
	}

	greedy := matching.Greedy(inst.G, nil)
	if err := graph.IsMaximalMatching(inst.G, greedy); err != nil {
		t.Fatal(err)
	}
	if f := inst.CrossFractionInMatching(greedy); f < 0.5 {
		t.Fatalf("greedy maximal matching uses only %.2f of the S(c0) cross edges", f)
	}

	res, err := runtime.Run(inst.G, matching.RandLuby{}, runtime.Config{
		IDs:  ids.RandomPerm(inst.G.N(), rng),
		Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	set := matching.SetFromResult(res)
	if err := graph.IsMaximalMatching(inst.G, set); err != nil {
		t.Fatal(err)
	}
	if f := inst.CrossFractionInMatching(set); f < 0.5 {
		t.Fatalf("distributed maximal matching uses only %.2f of the cross edges", f)
	}
}
