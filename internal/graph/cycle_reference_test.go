package graph_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"avgloc/internal/graph"
	"avgloc/internal/lb/basegraph"
	"avgloc/internal/lb/lift"
)

// refShortestCycle is the brute-force shortest cycle through v: the minimum,
// over v's incident edges e = (v,u), of 1 + dist(u,v) in g with that one
// edge copy removed, or -1 if no such path exists. A parallel copy of e
// gives a 2-cycle. Self-loops need no case: the builder rejects them.
func refShortestCycle(g *graph.Graph, v int) int {
	best := -1
	dist := make([]int, g.N())
	for p := 0; p < g.Deg(v); p++ {
		u, e := g.Neighbor(v, p), g.EdgeID(v, p)
		for i := range dist {
			dist[i] = -1
		}
		dist[u] = 0
		for queue := []int{u}; len(queue) > 0 && dist[v] < 0; queue = queue[1:] {
			x := queue[0]
			for q := 0; q < g.Deg(x); q++ {
				if y := g.Neighbor(x, q); g.EdgeID(x, q) != e && dist[y] < 0 {
					dist[y] = dist[x] + 1
					queue = append(queue, y)
				}
			}
		}
		if dist[v] > 0 && (best < 0 || dist[v]+1 < best) {
			best = dist[v] + 1
		}
	}
	return best
}

// bounded applies ShortestCycleThrough's maxLen contract to an unbounded
// answer.
func bounded(shortest, maxLen int) int {
	if maxLen > 0 && shortest > maxLen {
		return -1
	}
	return shortest
}

// randomMultigraph draws m uniform endpoint pairs on n nodes, so parallel
// edges are common; self-loop draws are dropped.
func randomMultigraph(n, m int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		if u, v := rng.IntN(n), rng.IntN(n); u != v {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

type refCase struct {
	name string
	g    *graph.Graph
}

func referenceCases(t *testing.T) []refCase {
	rng := rand.New(rand.NewPCG(31, 32))
	var cases []refCase
	add := func(name string, g *graph.Graph) { cases = append(cases, refCase{name, g}) }
	for i := 0; i < 4; i++ {
		add(fmt.Sprintf("gnp-%d", i), graph.GNP(30+15*i, 0.06+0.03*float64(i), rng))
		add(fmt.Sprintf("regular-%d", i), graph.RandomRegular(40+10*i, 3+i, rng))
		add(fmt.Sprintf("multigraph-%d", i), randomMultigraph(8+6*i, 10+12*i, rng))
	}
	for n := 3; n <= 10; n++ {
		add(fmt.Sprintf("cycle-%d", n), graph.Cycle(n))
	}
	add("tree", graph.RandomTree(25, rng))
	base, err := basegraph.Build(basegraph.Params{K: 1, Beta: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{1, 2, 4} {
		lg, err := lift.Random(base.G, q, rng)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("lift-G1-q%d", q), lg)
	}
	return cases
}

// TestShortestCycleMatchesBruteForce checks CycleScanner, Girth and
// lift.ShortCycleFraction against an independent brute-force definition of
// the shortest cycle through a node, for every bound 0..8.
func TestShortestCycleMatchesBruteForce(t *testing.T) {
	for _, c := range referenceCases(t) {
		g := c.g
		ref := make([]int, g.N())
		girth := -1
		for v := range ref {
			ref[v] = refShortestCycle(g, v)
			if ref[v] > 0 && (girth < 0 || ref[v] < girth) {
				girth = ref[v]
			}
		}
		scan := g.NewCycleScanner()
		for maxLen := 0; maxLen <= 8; maxLen++ {
			count := 0
			for v := range ref {
				want := bounded(ref[v], maxLen)
				if got := scan.ShortestCycleThrough(v, maxLen); got != want {
					t.Fatalf("%s node %d maxLen %d: scanner %d, brute force %d", c.name, v, maxLen, got, want)
				}
				if want > 0 {
					count++
				}
			}
			if maxLen == 0 {
				continue
			}
			want := float64(count) / float64(g.N())
			if got := lift.ShortCycleFraction(g, maxLen); got != want {
				t.Fatalf("%s: ShortCycleFraction(%d) = %v, brute force %v", c.name, maxLen, got, want)
			}
		}
		if got := g.Girth(); got != girth {
			t.Fatalf("%s: Girth() = %d, brute force %d", c.name, got, girth)
		}
	}
}
