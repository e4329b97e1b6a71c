package orient

import (
	"math/rand/v2"
	"testing"

	"avgloc/internal/graph"
)

// referenceOrientationSafe is the map-based BFS orientationSafe replaced:
// it explores the whole pool component of `to` (without e) unless it
// meets a satisfied node, and calls an all-unsatisfied component safe iff
// it has a cycle (edges >= nodes).
func referenceOrientationSafe(g *graph.Graph, toward []int32, satisfied []bool, e, to int) bool {
	visitedNodes := map[int]bool{to: true}
	visitedEdges := map[int]bool{e: true}
	queue := []int{to}
	nodes, edges := 1, 0
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if satisfied[x] {
			return true
		}
		for p := 0; p < g.Deg(x); p++ {
			ex := g.EdgeID(x, p)
			if toward[ex] >= 0 || visitedEdges[ex] {
				continue
			}
			visitedEdges[ex] = true
			edges++
			u := g.Neighbor(x, p)
			if !visitedNodes[u] {
				visitedNodes[u] = true
				nodes++
				queue = append(queue, u)
			}
		}
	}
	return edges >= nodes
}

// TestOrientationSafeMatchesReference: on random 3-regular graphs with
// random partial orientations and satisfied sets, the early-exit search
// returns the reference's boolean for every edge toward either endpoint.
// One poolSearch serves every call, as in Run, so stale epoch stamps
// would show.
func TestOrientationSafeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 38))
	var verdicts [2]int
	for _, n := range []int{64, 128, 256, 512} {
		g := graph.RandomRegular(n, 3, rng)
		search := newPoolSearch(g.N(), g.M())
		for _, oriented := range []float64{0, 0.2, 0.5, 0.7, 0.9} {
			for _, sat := range []float64{0, 0.01, 0.1} {
				toward := make([]int32, g.M())
				for e := range toward {
					toward[e] = -1
					if rng.Float64() < oriented {
						u, v := g.Endpoints(e)
						toward[e] = int32([2]int{u, v}[rng.IntN(2)])
					}
				}
				satisfied := make([]bool, g.N())
				for v := range satisfied {
					satisfied[v] = rng.Float64() < sat
				}
				for e := 0; e < g.M(); e++ {
					u, v := g.Endpoints(e)
					for _, to := range []int{u, v} {
						want := referenceOrientationSafe(g, toward, satisfied, e, to)
						if got := search.orientationSafe(g, toward, satisfied, e, to); got != want {
							t.Fatalf("n=%d oriented=%.1f satisfied=%.2f edge %d toward %d: got %v, want %v",
								n, oriented, sat, e, to, got, want)
						}
						if want {
							verdicts[1]++
						} else {
							verdicts[0]++
						}
					}
				}
			}
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Fatalf("verdicts unsafe/safe = %v: the cases never exercise both answers", verdicts)
	}
	t.Logf("verdicts unsafe/safe = %v", verdicts)
}
