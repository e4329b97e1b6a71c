package lift_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"avgloc/internal/graph"
	"avgloc/internal/lb/basegraph"
	"avgloc/internal/lb/lift"
)

func TestRandomLiftIsCoveringMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 72))
	bases := []*graph.Graph{
		graph.Cycle(8),
		graph.Complete(5),
		graph.RandomRegular(30, 3, rng),
		graph.Grid(4, 5),
	}
	for i, base := range bases {
		for _, q := range []int{1, 2, 7} {
			lifted, err := lift.Random(base, q, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := lift.IsCoveringMap(base, lifted, q); err != nil {
				t.Fatalf("base %d q=%d: %v", i, q, err)
			}
		}
	}
	if _, err := lift.Random(graph.Cycle(3), 0, rng); err == nil {
		t.Fatal("order 0 accepted")
	}
}

// Property: lifts are covering maps for random bases and orders.
func TestLiftProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		n := 5 + int(seed%15)
		q := 1 + int(seed%6)
		base := graph.GNP(n, 0.3, rng)
		lifted, err := lift.Random(base, q, rng)
		if err != nil {
			return false
		}
		return lift.IsCoveringMap(base, lifted, q) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLiftIncreasesGirthiness(t *testing.T) {
	// Lemma 12 in action: K4 is full of triangles; its order-q lift has
	// a short-cycle fraction that decreases as q grows.
	rng := rand.New(rand.NewPCG(73, 74))
	base := graph.Complete(4)
	fracs := make([]float64, 0, 3)
	for _, q := range []int{1, 16, 256} {
		lifted, err := lift.Random(base, q, rng)
		if err != nil {
			t.Fatal(err)
		}
		fracs = append(fracs, lift.ShortCycleFraction(lifted, 3))
	}
	if fracs[0] != 1 {
		t.Fatalf("K4 itself has triangle fraction %v, want 1", fracs[0])
	}
	if !(fracs[2] < fracs[1] && fracs[1] < fracs[0]) {
		t.Fatalf("triangle fraction should fall with q: %v", fracs)
	}
}

func TestLiftedInstanceKeepsClusters(t *testing.T) {
	base, err := basegraph.Build(basegraph.Params{K: 1, Beta: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(75, 76))
	inst, err := lift.BuildInstance(base, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := lift.IsCoveringMap(base.G, inst.G, 4); err != nil {
		t.Fatal(err)
	}
	// Cluster sizes scale by q and the lifted S(c0) stays independent.
	for v := range base.Clusters {
		if got, want := len(inst.Cluster(v)), 4*len(base.Clusters[v]); got != want {
			t.Fatalf("cluster %d: %d lifted nodes, want %d", v, got, want)
		}
	}
	inS0 := make([]bool, inst.G.N())
	for _, v := range inst.Cluster(0) {
		inS0[v] = true
	}
	if err := graph.IsIndependentSet(inst.G, inS0); err != nil {
		t.Fatalf("lifted S(c0) not independent: %v", err)
	}
	// Inherited labels: every arc keeps its base label.
	for v := 0; v < inst.G.N() && v < 200; v++ {
		for _, u := range inst.G.Neighbors(v) {
			if _, ok := inst.Label(int32(v), u); !ok {
				t.Fatalf("lifted arc %d→%d unlabeled", v, u)
			}
		}
	}
}

// TestIsCoveringMapErrorIsDeterministic: a tampered lift whose node 0 has
// several violations reports the same, first-in-neighbor-order one on every
// call.
func TestIsCoveringMapErrorIsDeterministic(t *testing.T) {
	// Base: the star with center 0 and leaves 1..8, lifted with q=2, so
	// fiber v is {2v, 2v+1}. In the tampered lift node 0 takes both copies
	// of leaves 1..4 and node 1 both copies of leaves 5..8: node 0 violates
	// the covering condition at all eight base neighbors.
	base := graph.Star(9)
	var edges [][2]int
	for leaf := 1; leaf <= 8; leaf++ {
		center := 0
		if leaf > 4 {
			center = 1
		}
		edges = append(edges, [2]int{center, 2 * leaf}, [2]int{center, 2*leaf + 1})
	}
	tampered, err := graph.FromEdges(18, edges)
	if err != nil {
		t.Fatal(err)
	}
	const want = "lift: node 0 sees 2 copies of base neighbor 1, want 1"
	for i := 0; i < 20; i++ {
		err := lift.IsCoveringMap(base, tampered, 2)
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: got %v, want %q", i, err, want)
		}
	}
}

// lift64 is E8's largest instance: an order-64 random lift of G_1(β=4)
// (18432 nodes of degree 32).
func lift64(b *testing.B) *graph.Graph {
	base, err := basegraph.Build(basegraph.Params{K: 1, Beta: 4})
	if err != nil {
		b.Fatal(err)
	}
	g, err := lift.Random(base.G, 64, rand.New(rand.NewPCG(8, 8)))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// Sinks keep the compiler from discarding the benchmarked calls.
var (
	fracSink  float64
	girthSink int
)

func BenchmarkShortCycleFractionLift64(b *testing.B) {
	g := lift64(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fracSink = lift.ShortCycleFraction(g, 3) + lift.ShortCycleFraction(g, 5)
	}
}

func BenchmarkGirthLift64(b *testing.B) {
	g := lift64(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		girthSink = g.Girth()
	}
}
