package graph

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected self-loop error")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 3)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestBasicAccessors(t *testing.T) {
	g, err := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 5 {
		t.Fatalf("got n=%d m=%d", g.N(), g.M())
	}
	if g.Deg(0) != 3 || g.Deg(1) != 2 {
		t.Fatalf("degrees wrong: %d %d", g.Deg(0), g.Deg(1))
	}
	if g.MaxDegree() != 3 || g.MinDegree() != 2 {
		t.Fatalf("max/min degree wrong")
	}
	if g.PortTo(0, 2) < 0 || g.PortTo(1, 3) != -1 {
		t.Fatalf("PortTo wrong")
	}
	u, v := g.Endpoints(4)
	if u != 0 || v != 2 {
		t.Fatalf("Endpoints(4) = (%d,%d)", u, v)
	}
}

func TestTwinPorts(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := GNP(40, 0.2, rng)
	for v := 0; v < g.N(); v++ {
		for p := 0; p < g.Deg(v); p++ {
			u := g.Neighbor(v, p)
			q := g.TwinPort(v, p)
			if g.Neighbor(u, q) != v {
				t.Fatalf("twin port broken at v=%d p=%d", v, p)
			}
			if g.EdgeID(u, q) != g.EdgeID(v, p) {
				t.Fatalf("twin edge id broken at v=%d p=%d", v, p)
			}
			if g.TwinPort(u, q) != p {
				t.Fatalf("twin not involutive at v=%d p=%d", v, p)
			}
		}
	}
}

func TestGenerators(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	cases := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"cycle", Cycle(7), 7, 7},
		{"path", Path(5), 5, 4},
		{"star", Star(6), 6, 5},
		{"complete", Complete(5), 5, 10},
		{"bipartite", CompleteBipartite(3, 4), 7, 12},
		{"grid", Grid(3, 4), 12, 17},
		{"torus", Torus(3, 4), 12, 24},
		{"hypercube", Hypercube(3), 8, 12},
		{"tree", RandomTree(20, rng), 20, 19},
	}
	for _, c := range cases {
		if c.g.N() != c.n || c.g.M() != c.m {
			t.Errorf("%s: got n=%d m=%d, want n=%d m=%d", c.name, c.g.N(), c.g.M(), c.n, c.m)
		}
	}
}

func TestRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	g := RandomRegular(50, 4, rng)
	for v := 0; v < g.N(); v++ {
		if g.Deg(v) != 4 {
			t.Fatalf("node %d has degree %d, want 4", v, g.Deg(v))
		}
	}
	// Simplicity: no duplicate neighbor entries.
	for v := 0; v < g.N(); v++ {
		seen := map[int32]bool{}
		for _, u := range g.Neighbors(v) {
			if seen[u] {
				t.Fatalf("parallel edge at node %d", v)
			}
			seen[u] = true
		}
	}
}

func TestRandomBipartiteRegular(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	g := RandomBipartiteRegular(20, 3, rng)
	if g.N() != 40 || g.M() != 60 {
		t.Fatalf("got n=%d m=%d", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Deg(v) != 3 {
			t.Fatalf("node %d degree %d", v, g.Deg(v))
		}
	}
	// Bipartite: all edges cross sides.
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		if (u < 20) == (v < 20) {
			t.Fatalf("edge {%d,%d} does not cross sides", u, v)
		}
	}
	if girth := g.Girth(); girth >= 0 && girth%2 != 0 {
		t.Fatalf("bipartite graph has odd girth %d", girth)
	}
}

// TestBFS: a one-source MultiSourceBFS is the hop distance from it.
func TestBFS(t *testing.T) {
	g := Path(5)
	dist := g.MultiSourceBFS([]int{0})
	for v := 0; v < 5; v++ {
		if int(dist[v]) != v {
			t.Fatalf("dist[%d]=%d", v, dist[v])
		}
	}
	g2, _ := Disjoint(Path(3), Path(2))
	dist = g2.MultiSourceBFS([]int{0})
	if dist[3] != -1 || dist[4] != -1 {
		t.Fatalf("unreachable nodes should be -1: %v", dist)
	}
}

func TestComponents(t *testing.T) {
	g, offs := Disjoint(Cycle(4), Path(3), Star(5))
	comp, k := g.Components()
	if k != 3 {
		t.Fatalf("got %d components", k)
	}
	for i, off := range offs {
		if int(comp[off]) != i {
			t.Fatalf("component ids not in discovery order")
		}
	}
}

func TestGirth(t *testing.T) {
	cases := []struct {
		name  string
		g     *Graph
		girth int
	}{
		{"C5", Cycle(5), 5},
		{"C12", Cycle(12), 12},
		{"K4", Complete(4), 3},
		{"tree", Path(9), -1},
		{"hypercube", Hypercube(4), 4},
		{"torus44", Torus(4, 4), 4},
		{"grid", Grid(3, 3), 4},
		{"K33", CompleteBipartite(3, 3), 4},
	}
	for _, c := range cases {
		if got := c.g.Girth(); got != c.girth {
			t.Errorf("%s: girth=%d want %d", c.name, got, c.girth)
		}
	}
}

func TestShortestCycleThrough(t *testing.T) {
	// Two triangles joined by a long path: nodes 0-1-2 triangle,
	// path 2-3-4-5, triangle 5-6-7.
	g, err := FromEdges(8, [][2]int{
		{0, 1}, {1, 2}, {2, 0},
		{2, 3}, {3, 4}, {4, 5},
		{5, 6}, {6, 7}, {7, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if l := g.ShortestCycleThrough(0, 0); l != 3 {
		t.Fatalf("cycle through 0: %d", l)
	}
	if l := g.ShortestCycleThrough(3, 0); l != -1 {
		t.Fatalf("node 3 lies on no cycle, got %d", l)
	}
	if l := g.ShortestCycleThrough(0, 2); l != -1 {
		t.Fatalf("maxLen=2 should hide the triangle, got %d", l)
	}
}

func TestTreelikeBall(t *testing.T) {
	g := Cycle(10)
	// View of radius r on C_n is a tree iff 2r < n... the cycle closes at
	// radius ceil(n/2): for n=10, radius 4 views are paths, radius 5 sees
	// the two BFS frontiers meet at the antipode.
	if !g.TreelikeBall(0, 4) {
		t.Fatal("radius-4 ball on C10 should be a tree")
	}
	if g.TreelikeBall(0, 5) {
		t.Fatal("radius-5 ball on C10 contains the full cycle")
	}
	tr := Path(9)
	for r := 1; r < 9; r++ {
		if !tr.TreelikeBall(4, r) {
			t.Fatalf("path ball radius %d must be a tree", r)
		}
	}
	// Per the paper's view definition, edges between two nodes at distance
	// exactly r are excluded, so the radius-1 view of K4 is a star (a
	// tree), while the radius-2 view contains the triangles.
	if !Complete(4).TreelikeBall(0, 1) {
		t.Fatal("K4 radius-1 view excludes frontier edges and is a tree")
	}
	if Complete(4).TreelikeBall(0, 2) {
		t.Fatal("K4 radius-2 view contains triangles")
	}
}

func TestLineGraph(t *testing.T) {
	// L(C_n) is isomorphic to C_n.
	lg := LineGraph(Cycle(6))
	if lg.N() != 6 || lg.M() != 6 {
		t.Fatalf("L(C6): n=%d m=%d", lg.N(), lg.M())
	}
	for v := 0; v < lg.N(); v++ {
		if lg.Deg(v) != 2 {
			t.Fatalf("L(C6) degree %d at %d", lg.Deg(v), v)
		}
	}
	// L(K_{1,3}) = K_3.
	ls := LineGraph(Star(4))
	if ls.N() != 3 || ls.M() != 3 {
		t.Fatalf("L(K13): n=%d m=%d", ls.N(), ls.M())
	}
	// Edge count identity: m(L(G)) = sum_v C(deg(v), 2) on simple graphs.
	rng := rand.New(rand.NewPCG(9, 10))
	g := GNP(30, 0.15, rng)
	want := 0
	for v := 0; v < g.N(); v++ {
		d := g.Deg(v)
		want += d * (d - 1) / 2
	}
	if got := LineGraph(g).M(); got != want {
		t.Fatalf("line graph edges: got %d want %d", got, want)
	}
}

func TestValidators(t *testing.T) {
	g := Cycle(6)
	mis := []bool{true, false, true, false, true, false}
	if err := IsMaximalIndependentSet(g, mis); err != nil {
		t.Fatalf("valid MIS rejected: %v", err)
	}
	bad := []bool{true, true, false, false, false, false}
	if err := IsIndependentSet(g, bad); err == nil {
		t.Fatal("adjacent pair accepted")
	}
	notMax := []bool{true, false, false, false, true, false}
	if err := IsMaximalIndependentSet(g, notMax); err == nil {
		t.Fatal("non-maximal set accepted")
	}
	if err := IsRulingSet(g, notMax, 2); err != nil {
		t.Fatalf("(2,2)-ruling set rejected: %v", err)
	}
	if err := IsRulingSet(g, notMax, 1); err == nil {
		t.Fatal("beta=1 should fail for this set")
	}

	match := make([]bool, g.M())
	match[0], match[3] = true, true // edges {0,1} and {3,4}
	if err := IsMaximalMatching(g, match); err != nil {
		t.Fatalf("valid maximal matching rejected: %v", err)
	}
	match[1] = true // {1,2} shares node 1
	if err := IsMatching(g, match); err == nil {
		t.Fatal("conflicting matching accepted")
	}
}

func TestOrientation(t *testing.T) {
	g := Cycle(4)
	o := NewOrientation(g)
	if err := IsSinkless(g, o, 0); err == nil {
		t.Fatal("unset orientation accepted")
	}
	// Orient the cycle consistently: 0->1->2->3->0.
	for e := 0; e < g.M(); e++ {
		u, v := g.Endpoints(e)
		// cycle edges are {i, i+1 mod 4}; orient from lower index except
		// the wrap edge.
		if u == 0 && v == 3 {
			if err := o.Orient(g, e, 3); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := o.Orient(g, e, u); err != nil {
			t.Fatal(err)
		}
	}
	if err := IsSinkless(g, o, 0); err != nil {
		t.Fatalf("consistent cycle orientation rejected: %v", err)
	}
	for v := 0; v < 4; v++ {
		if o.OutDegree(g, v) != 1 {
			t.Fatalf("node %d out-degree %d", v, o.OutDegree(g, v))
		}
	}
	if err := o.Orient(g, 0, 3); err == nil {
		t.Fatal("orienting from a non-endpoint should fail")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(5)
	keep := []bool{true, false, true, true, false}
	sub, toNew, toOld := g.InducedSubgraph(keep)
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced K3: n=%d m=%d", sub.N(), sub.M())
	}
	if toNew[1] != -1 || toNew[0] != 0 {
		t.Fatalf("toNew wrong: %v", toNew)
	}
	if int(toOld[2]) != 3 {
		t.Fatalf("toOld wrong: %v", toOld)
	}
}

// Property: BFS distance is symmetric on random connected-ish graphs.
func TestBFSSymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		n := 5 + int(seed%20)
		g := GNP(n, 0.3, rng)
		u, v := rng.IntN(n), rng.IntN(n)
		return g.MultiSourceBFS([]int{u})[v] == g.MultiSourceBFS([]int{v})[u]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: handshake lemma under the CSR layout.
func TestHandshakeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, ^seed))
		n := 4 + int(seed%30)
		g := GNP(n, 0.25, rng)
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Deg(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: girth of C_n is n.
func TestCycleGirthProperty(t *testing.T) {
	f := func(k uint8) bool {
		n := 3 + int(k%40)
		return Cycle(n).Girth() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
