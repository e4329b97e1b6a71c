package measure_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"avgloc/internal/graph"
	"avgloc/internal/measure"
	"avgloc/internal/runtime"
)

// bruteQuantile is the independent nearest-rank reference: sort a copy,
// take element ⌈q·k⌉−1.
func bruteQuantile(xs []float64, q float64) float64 {
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	i := int(math.Ceil(q*float64(len(cp)))) - 1
	if i < 0 {
		i = 0
	}
	return cp[i]
}

// TestDistQuantilesMatchBruteForce validates the aggregator's exact
// quantiles and histogram against an independent sort over randomized
// per-node times. The cases fall on both sides of distOf's choice: it
// counts when every per-node sum is at most n, and sorts otherwise.
func TestDistQuantilesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, c := range []struct {
		n, span int // times are drawn from [0, span)
		counted bool
	}{
		{1, 40, false},
		{2, 40, false},
		{7, 40, false},
		{100, 40, false},
		{1001, 40, true},
		{300, 101, true}, // sums reach at most 300 = n: counted
		{300, 102, false},
		{5000, 30, true},
		{5000, 20000, false},
	} {
		n, trials := c.n, 3
		a := measure.NewAgg(n, 0)
		sums := make([]float64, n)
		for tr := 0; tr < trials; tr++ {
			node := make([]int32, n)
			for i := range node {
				node[i] = int32(rng.IntN(c.span))
				if i == 0 {
					node[i] = int32(c.span - 1) // pin the largest sum
				}
				sums[i] += float64(node[i])
			}
			a.Add(measure.Times{Node: node})
		}
		if counted := sums[0] <= float64(n); counted != c.counted {
			t.Fatalf("n=%d span=%d: largest sum %v, case must be counted=%v", n, c.span, sums[0], c.counted)
		}
		means := make([]float64, n)
		var hist [measure.HistBuckets]int64
		for i, s := range sums {
			means[i] = s / float64(trials)
			hist[bruteBucket(means[i])]++
		}
		d := a.Dist()
		for _, q := range []struct {
			q    float64
			got  float64
			name string
		}{
			{0.50, d.NodeQ.P50, "p50"},
			{0.90, d.NodeQ.P90, "p90"},
			{0.99, d.NodeQ.P99, "p99"},
			{1.00, d.NodeQ.Max, "max"},
		} {
			want := bruteQuantile(means, q.q)
			if q.got != want {
				t.Fatalf("n=%d span=%d %s = %v, brute force says %v", n, c.span, q.name, q.got, want)
			}
		}
		if d.NodeQ.P50 > d.NodeQ.P90 || d.NodeQ.P90 > d.NodeQ.P99 || d.NodeQ.P99 > d.NodeQ.Max {
			t.Fatalf("n=%d quantiles not monotone: %+v", n, d.NodeQ)
		}
		if d.NodeHist != hist {
			t.Fatalf("n=%d span=%d histogram %v, brute force says %v", n, c.span, d.NodeHist, hist)
		}
		if d.NodeQ.Max != a.ExpNode() {
			t.Fatalf("n=%d span=%d max %v != ExpNode %v", n, c.span, d.NodeQ.Max, a.ExpNode())
		}
	}
}

// bruteBucket is the log₂ bucket of t by repeated doubling.
func bruteBucket(t float64) int {
	b := 0
	for bound := 1.0; t >= bound && b < measure.HistBuckets-1; bound *= 2 {
		b++
	}
	return b
}

// TestDistHistogram pins the log₂ bucket boundaries: bucket 0 is [0,1),
// bucket i≥1 is [2^(i−1), 2^i), last bucket absorbs the rest.
func TestDistHistogram(t *testing.T) {
	a := measure.NewAgg(6, 0)
	// One trial, so means equal the times: 0, 1, 2, 3, 4, 70000 (beyond
	// the last finite bucket boundary 2^14).
	a.Add(measure.Times{Node: []int32{0, 1, 2, 3, 4, 70000}})
	d := a.Dist()
	want := map[int]int64{
		0:                       1, // t=0
		1:                       1, // t=1 in [1,2)
		2:                       2, // t=2,3 in [2,4)
		3:                       1, // t=4 in [4,8)
		measure.HistBuckets - 1: 1, // t=70000 overflows into the last bucket
	}
	var total int64
	for i, c := range d.NodeHist {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (hist %v)", i, c, want[i], d.NodeHist)
		}
		total += c
	}
	if total != 6 {
		t.Fatalf("histogram counts %d nodes, want 6", total)
	}
}

// TestDistVariance checks the across-trial sample variance of the run
// averages, and that a single trial reports 0.
func TestDistVariance(t *testing.T) {
	a := measure.NewAgg(2, 1)
	a.Add(measure.Times{Node: []int32{0, 2}, Edge: []int32{2}}) // nodeAvg 1, edgeAvg 2
	a.Add(measure.Times{Node: []int32{2, 4}, Edge: []int32{4}}) // nodeAvg 3, edgeAvg 4
	d := a.Dist()
	if math.Abs(d.NodeAvgVar-2.0) > 1e-12 { // var{1,3} = 2 (unbiased)
		t.Fatalf("node avg variance %v, want 2", d.NodeAvgVar)
	}
	if math.Abs(d.EdgeAvgVar-2.0) > 1e-12 {
		t.Fatalf("edge avg variance %v, want 2", d.EdgeAvgVar)
	}
	single := measure.NewAgg(2, 1)
	single.Add(measure.Times{Node: []int32{0, 2}, Edge: []int32{2}})
	if sd := single.Dist(); sd.NodeAvgVar != 0 || sd.EdgeAvgVar != 0 {
		t.Fatalf("single trial variance nonzero: %+v", sd)
	}
}

// TestDistEmptyAgg: a fresh aggregator yields a zero distribution instead
// of panicking on empty slices.
func TestDistEmptyAgg(t *testing.T) {
	d := measure.NewAgg(0, 0).Dist()
	if d.NodeQ.Max != 0 || d.EdgeQ.Max != 0 || d.NodeAvgVar != 0 {
		t.Fatalf("empty agg dist not zero: %+v", d)
	}
}

// TestDistScratchReuse: repeated Dist calls on one aggregator are stable
// (the shared scratch buffers must not corrupt results across calls). The
// node times are small enough to be counted, and span is swept so that the
// edge times are counted in one case and sorted in the other.
func TestDistScratchReuse(t *testing.T) {
	for _, span := range []int{20, 1000} {
		a := measure.NewAgg(64, 32)
		rng := rand.New(rand.NewPCG(5, 6))
		node, edge := make([]int32, 64), make([]int32, 32)
		for i := range node {
			node[i] = int32(rng.IntN(20))
		}
		for i := range edge {
			edge[i] = int32(rng.IntN(span))
		}
		a.Add(measure.Times{Node: node, Edge: edge})
		first := a.Dist()
		for i := 0; i < 3; i++ {
			if again := a.Dist(); again != first {
				t.Fatalf("span %d: Dist call %d differs: %+v vs %+v", span, i+2, again, first)
			}
		}
	}
}

// TestOneSidedEdgeAvg: mean over edges, 0 on edgeless graphs, and an error
// (not a silent 0) when an edge has no committed endpoint.
func TestOneSidedEdgeAvg(t *testing.T) {
	g := graph.Path(3)
	res := &runtime.Result{NodeCommit: []int32{5, 1, -1}}
	got, err := measure.OneSidedEdgeAvg(g, res)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1.0 { // one-sided times are min(5,1)=1 and 1 (lone endpoint)
		t.Fatalf("one-sided avg %v, want 1", got)
	}
	if _, err := measure.OneSidedEdgeAvg(g, &runtime.Result{NodeCommit: []int32{-1, -1, 1}}); err == nil {
		t.Fatal("edge with no committed endpoint must error")
	}
	if got, err := measure.OneSidedEdgeAvg(graph.Path(1), &runtime.Result{NodeCommit: []int32{0}}); err != nil || got != 0 {
		t.Fatalf("edgeless graph: got %v, %v", got, err)
	}
}
