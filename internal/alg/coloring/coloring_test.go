package coloring_test

import (
	"math/rand/v2"
	"testing"

	"avgloc/internal/alg/coloring"
	"avgloc/internal/graph"
	"avgloc/internal/ids"
	"avgloc/internal/measure"
	"avgloc/internal/runtime"
	"avgloc/internal/runtime/runtimetest"
)

// cycleCV runs CV6 on a consistently oriented cycle: with sequential
// identifiers, each node's parent is its successor (id+1 mod n), so the
// pseudoforest covers every cycle edge and the 6-coloring is proper on the
// whole cycle. CV6 only guarantees properness along parent edges, so the
// orientation must cover the edges being checked.
func cycleCV(n int) runtime.Algorithm {
	return runtimetest.Algorithm("test/cyclecv", func(view runtime.NodeView) runtimetest.Func {
		succ := (view.ID + 1) % int64(n)
		parent := 0
		if view.NeighborIDs[1] == succ {
			parent = 1
		}
		space := int64(n) * int64(n)
		bits := 1
		for int64(1)<<uint(bits) <= space-1 {
			bits++
		}
		cv := coloring.NewCV6(view.ID, bits, parent)
		return func(ctx *runtime.Context, inbox []runtime.Message) {
			if cv.Round(ctx, inbox) {
				ctx.CommitNode(int32(cv.Color()))
				ctx.Halt()
			}
		}
	})
}

func TestCV6OnCycle(t *testing.T) {
	for _, n := range []int{3, 4, 17, 100, 257} {
		g := graph.Cycle(n)
		res, err := runtime.Run(g, cycleCV(n), runtime.Config{IDs: ids.Sequential(n)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		colors := make([]int, n)
		for v, out := range res.NodeOut {
			colors[v] = int(out)
		}
		if err := graph.IsProperColoring(g, colors, 6); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// O(log* n): the number of rounds must be tiny.
		if res.Rounds > 10 {
			t.Fatalf("n=%d: CV took %d rounds", n, res.Rounds)
		}
	}
}

func TestCVRoundsMonotone(t *testing.T) {
	if coloring.CVRounds(3) != 1 {
		t.Fatalf("3-bit colors need one final step into {0..5}: %d", coloring.CVRounds(3))
	}
	prev := 0
	for bits := 3; bits <= 64; bits++ {
		r := coloring.CVRounds(bits)
		if r < prev {
			t.Fatalf("CVRounds not monotone at %d bits", bits)
		}
		prev = r
	}
	if coloring.CVRounds(64) > 6 {
		t.Fatalf("log* of 2^64 should be <= 6 iterations, got %d", coloring.CVRounds(64))
	}
}

// linialAlg runs Linial + KW reduction + commits a (Δ+1)-coloring. The
// reduction stage starts in the round Linial finishes, without an inbox.
var linialAlg = runtimetest.Algorithm("test/linial", func(view runtime.NodeView) runtimetest.Func {
	space := int64(view.N) * int64(view.N)
	if space < 4 {
		space = 4
	}
	var plan coloring.LinialPlan
	plan.Build(space, view.MaxDegree)
	lin := coloring.NewLinial(view.ID, &plan)
	var kw coloring.ReduceColorsKW
	reducing := false
	return func(ctx *runtime.Context, inbox []runtime.Message) {
		if !reducing {
			if !lin.Round(ctx, inbox) {
				return
			}
			reducing = true
			kw = coloring.NewReduceColorsKW(lin.Color(), lin.Palette(), int64(view.MaxDegree+1),
				make([]int64, view.Degree), make([]bool, view.Degree+1))
			inbox = nil
		}
		if kw.Round(ctx, inbox) {
			ctx.CommitNode(int32(kw.Color()))
			ctx.Halt()
		}
	}
})

func TestLinialPlusReduction(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	workloads := []*graph.Graph{
		graph.Cycle(64),
		graph.RandomRegular(80, 6, rng),
		graph.GNP(70, 0.1, rng),
		graph.Grid(7, 8),
		graph.Complete(9),
	}
	for i, g := range workloads {
		res, err := runtime.Run(g, linialAlg, runtime.Config{IDs: ids.RandomPerm(g.N(), rng)})
		if err != nil {
			t.Fatalf("workload %d (%s): %v", i, g, err)
		}
		colors := make([]int, g.N())
		for v, out := range res.NodeOut {
			colors[v] = int(out)
		}
		if err := graph.IsProperColoring(g, colors, g.MaxDegree()+1); err != nil {
			t.Fatalf("workload %d (%s): %v", i, g, err)
		}
	}
}

func TestLinialScheduleShapes(t *testing.T) {
	sched := coloring.LinialSchedule(1<<20, 4)
	if len(sched) < 2 {
		t.Fatal("schedule should make progress from a 2^20 space")
	}
	for i := 1; i < len(sched); i++ {
		if sched[i] >= sched[i-1] {
			t.Fatalf("schedule not decreasing: %v", sched)
		}
	}
	last := sched[len(sched)-1]
	// Final palette is O(Δ²) up to the prime gap; be generous.
	if last > 1000 {
		t.Fatalf("final palette too large for Δ=4: %d", last)
	}
}

func TestRandGreedyColoring(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	for trial := 0; trial < 5; trial++ {
		g := graph.RandomRegular(100, 8, rng)
		res, err := runtime.Run(g, coloring.RandGreedy{}, runtime.Config{
			IDs:  ids.RandomPerm(g.N(), rng),
			Seed: uint64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		colors := make([]int, g.N())
		for v, out := range res.NodeOut {
			colors[v] = int(out)
		}
		if err := graph.IsProperColoring(g, colors, g.MaxDegree()+1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandGreedyNodeAveragedIsConstant(t *testing.T) {
	// [BT19]: randomized (Δ+1)-coloring has node-averaged complexity O(1):
	// the measured average should not grow when n quadruples.
	rng := rand.New(rand.NewPCG(35, 36))
	avgs := make([]float64, 0, 2)
	for _, n := range []int{200, 800} {
		g := graph.RandomRegular(n, 6, rng)
		agg := measure.NewAgg(g.N(), g.M())
		for trial := 0; trial < 5; trial++ {
			res, err := runtime.Run(g, coloring.RandGreedy{}, runtime.Config{
				IDs:  ids.RandomPerm(g.N(), rng),
				Seed: uint64(trial),
			})
			if err != nil {
				t.Fatal(err)
			}
			tm, err := measure.Completion(g, res, runtime.NodeOutputs)
			if err != nil {
				t.Fatal(err)
			}
			agg.Add(tm)
		}
		avgs = append(avgs, agg.NodeAvg())
	}
	if avgs[1] > 2*avgs[0]+1 {
		t.Fatalf("node average grew with n: %v", avgs)
	}
}
