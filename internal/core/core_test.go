package core_test

import (
	"math/rand/v2"
	"strings"
	"testing"

	"avgloc/internal/alg/mis"
	"avgloc/internal/alg/orient"
	"avgloc/internal/core"
	"avgloc/internal/graph"
	"avgloc/internal/runtime"
	"avgloc/internal/runtime/runtimetest"
)

func TestMeasureRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := graph.RandomRegular(100, 4, rng)
	rep, err := core.Measure(g, core.MIS, core.MessagePassing(mis.Luby{}), core.MeasureOptions{Trials: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != 3 || rep.NodeAvg <= 0 || rep.WorstMax < rep.NodeAvg {
		t.Fatalf("implausible report: %+v", rep)
	}
	// Appendix A chain on the report level.
	if rep.NodeAvg > rep.ExpNode+1e-9 || rep.ExpNode > rep.WorstMean+1e-9 || rep.WorstMean > rep.WorstMax+1e-9 {
		t.Fatalf("measure chain violated: %+v", rep)
	}
	if rep.OneSidedEdgeAvg > rep.EdgeAvg {
		t.Fatalf("one-sided average exceeds two-sided: %+v", rep)
	}
	// The distribution block agrees with the scalar measures: quantiles
	// are monotone and the max per-node mean is exactly EXP_V.
	d := rep.Dist
	if d.NodeQ.P50 > d.NodeQ.P90 || d.NodeQ.P90 > d.NodeQ.P99 || d.NodeQ.P99 > d.NodeQ.Max {
		t.Fatalf("node quantiles not monotone: %+v", d.NodeQ)
	}
	if d.NodeQ.Max != rep.ExpNode {
		t.Fatalf("dist node max %v != ExpNode %v", d.NodeQ.Max, rep.ExpNode)
	}
	if d.EdgeQ.Max != rep.ExpEdge {
		t.Fatalf("dist edge max %v != ExpEdge %v", d.EdgeQ.Max, rep.ExpEdge)
	}
	if d.NodeAvgVar < 0 || d.EdgeAvgVar < 0 {
		t.Fatalf("negative variance: %+v", d)
	}
}

// badAlg claims MIS membership for everyone.
var badAlg = runtimetest.Algorithm("test/bad", func(runtime.NodeView) runtimetest.Func {
	return func(ctx *runtime.Context, _ []runtime.Message) {
		ctx.CommitNode(mis.In)
		ctx.Halt()
	}
})

func TestMeasureRejectsInvalidOutputs(t *testing.T) {
	g := graph.Complete(4)
	if _, err := core.Measure(g, core.MIS, core.MessagePassing(badAlg), core.MeasureOptions{Trials: 1}); err == nil {
		t.Fatal("invalid MIS accepted")
	}
}

// TestMeasurePropagatesOneSidedError is the regression test for the
// swallowed measure.OneSidedEdgeTimes error: a node-output trial whose
// ledger leaves an edge with no committed endpoint must fail the run with
// the one-sided error — not silently contribute 0 to OneSidedEdgeAvg. The
// pre-fix code surfaced only the later completion-time error.
func TestMeasurePropagatesOneSidedError(t *testing.T) {
	g := graph.Path(2)
	prob := core.Problem{
		Name:     "test/accept-anything",
		Kind:     runtime.NodeOutputs,
		Validate: func(*graph.Graph, *runtime.Result) error { return nil },
	}
	_, err := core.Measure(g, prob, noCommits{}, core.MeasureOptions{Trials: 1})
	if err == nil {
		t.Fatal("uncommitted ledger accepted")
	}
	if !strings.Contains(err.Error(), "no committed endpoint") {
		t.Fatalf("one-sided edge error not propagated; got: %v", err)
	}
}

// noCommits is a Runner on graph.Path(2) whose trials commit nothing.
type noCommits struct{}

func (noCommits) Name() string { return "test/no-commits" }

func (noCommits) Run(*graph.Graph, []int64, uint64) (*runtime.Result, error) {
	return &runtime.Result{
		NodeCommit: []int32{-1, -1},
		EdgeCommit: []int32{-1},
		NodeOut:    make([]int32, 2),
		EdgeOut:    make([]int32, 1),
	}, nil
}

func TestSinklessRunnersOnSmallGraph(t *testing.T) {
	g := graph.Complete(5)
	for _, r := range []core.Runner{orient.DetAveraged{}, orient.DetWorstCase{}, orient.RandMarking{}} {
		rep, err := core.Measure(g, core.SinklessOrientation, r, core.MeasureOptions{Trials: 1, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if rep.WorstMax < 0 {
			t.Fatalf("%s: negative rounds", r.Name())
		}
	}
}

// TestValidatorsRejectUncommittedZeros: an uncommitted output reads 0,
// which is a valid color and a valid node index, so the coloring and
// sinkless validators must consult the commit ledger. Each case starts
// from a hand-built valid Result and then uncommits one output whose value
// is 0.
func TestValidatorsRejectUncommittedZeros(t *testing.T) {
	path := graph.Path(3)
	coloring := &runtime.Result{
		NodeCommit: []int32{0, 0, 0},
		EdgeCommit: []int32{-1, -1},
		NodeOut:    []int32{0, 1, 0},
		EdgeOut:    make([]int32, 2),
	}
	k4 := graph.Complete(4)
	sinkless := &runtime.Result{
		NodeCommit: []int32{-1, -1, -1, -1},
		EdgeCommit: make([]int32, k4.M()),
		NodeOut:    make([]int32, 4),
		EdgeOut:    make([]int32, k4.M()),
	}
	zeroEdge := -1
	for e := 0; e < k4.M(); e++ {
		// Every edge points at its larger endpoint except {0,3}, which
		// points at 0: each node keeps an outgoing edge.
		u, v := k4.Endpoints(e)
		sinkless.EdgeOut[e] = int32(v)
		if u == 0 && v == 3 {
			sinkless.EdgeOut[e], zeroEdge = 0, e
		}
	}
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		prob     core.Problem
		res      *runtime.Result
		uncommit func()
	}{
		{"coloring", path, core.Coloring(2), coloring, func() { coloring.NodeCommit[0] = -1 }},
		{"sinkless", k4, core.SinklessOrientation, sinkless, func() { sinkless.EdgeCommit[zeroEdge] = -1 }},
	} {
		if err := tc.prob.Validate(tc.g, tc.res); err != nil {
			t.Fatalf("%s: valid result rejected: %v", tc.name, err)
		}
		tc.uncommit()
		err := tc.prob.Validate(tc.g, tc.res)
		if err == nil || !strings.Contains(err.Error(), "committed no") {
			t.Fatalf("%s: uncommitted zero output not rejected: %v", tc.name, err)
		}
	}
}

// TestValidatorsRejectOutOfDomainOutputs: MIS, ruling sets and matching
// output In or Out, and any other value is an error naming the node or
// edge and the value. On the path 0–1–2 each stray value below would
// otherwise decode as Out and leave a valid set ({0, 2}, or edge {0, 1}).
func TestValidatorsRejectOutOfDomainOutputs(t *testing.T) {
	path := graph.Path(3)
	nodes := &runtime.Result{
		NodeCommit: []int32{0, 0, 0},
		EdgeCommit: []int32{-1, -1},
		NodeOut:    []int32{1, 7, 1},
		EdgeOut:    make([]int32, 2),
	}
	edges := &runtime.Result{
		NodeCommit: []int32{-1, -1, -1},
		EdgeCommit: []int32{0, 0},
		NodeOut:    make([]int32, 3),
		EdgeOut:    []int32{1, 5},
	}
	for _, tc := range []struct {
		name string
		prob core.Problem
		res  *runtime.Result
		want string
	}{
		{"mis", core.MIS, nodes, "node 1 output 7"},
		{"ruling(2,2)", core.RulingSet(2), nodes, "node 1 output 7"},
		{"matching", core.MaximalMatching, edges, "edge 1 output 5"},
	} {
		err := tc.prob.Validate(path, tc.res)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: out-of-domain output not rejected: %v", tc.name, err)
		}
	}
}
