// Package measure computes the node- and edge-averaged complexities of
// Definition 1 of the paper, the one-sided edge measure of footnote 2, and
// the stronger weighted-averaged / expected / worst-case notions of
// Appendix A, from the commit-round ledgers produced by the runtime.
package measure

import (
	"fmt"
	"math"
	"sort"

	"avgloc/internal/graph"
	"avgloc/internal/runtime"
)

// Times holds the per-node and per-edge completion times T_v, T_e of one
// run (Section 2): a node completes when its own output and the outputs of
// all its incident edges are committed; an edge completes when its output
// and both endpoint outputs are committed.
type Times struct {
	Node []int32
	Edge []int32
}

// Completion derives completion times from a run ledger under the given
// output kind. It errors if some required output was never committed.
func Completion(g *graph.Graph, res *runtime.Result, kind runtime.OutputKind) (Times, error) {
	n, m := g.N(), g.M()
	t := Times{Node: make([]int32, n), Edge: make([]int32, m)}
	switch kind {
	case runtime.NodeOutputs:
		for v := 0; v < n; v++ {
			if res.NodeCommit[v] < 0 {
				return Times{}, fmt.Errorf("measure: node %d never committed", v)
			}
			t.Node[v] = res.NodeCommit[v]
		}
		for e := 0; e < m; e++ {
			u, v := g.Endpoints(e)
			t.Edge[e] = max32(t.Node[u], t.Node[v])
		}
	case runtime.EdgeOutputs:
		for e := 0; e < m; e++ {
			if res.EdgeCommit[e] < 0 {
				return Times{}, fmt.Errorf("measure: edge %d never committed", e)
			}
			t.Edge[e] = res.EdgeCommit[e]
		}
		for v := 0; v < n; v++ {
			var tv int32
			for _, e := range g.EdgeIDs(v) {
				tv = max32(tv, t.Edge[e])
			}
			if res.NodeCommit[v] > tv {
				tv = res.NodeCommit[v]
			}
			t.Node[v] = tv
		}
	default:
		return Times{}, fmt.Errorf("measure: unknown output kind %d", kind)
	}
	return t, nil
}

// OneSidedEdgeTimes computes the footnote-2 edge measure for node-output
// problems: an edge is done as soon as the label of at least one endpoint
// is fixed. Under this measure Luby's MIS has edge-averaged complexity
// O(1) even though its Definition-1 complexities are not O(1).
func OneSidedEdgeTimes(g *graph.Graph, res *runtime.Result) ([]int32, error) {
	m := g.M()
	out := make([]int32, m)
	for e := 0; e < m; e++ {
		u, v := g.Endpoints(e)
		tu, tv := res.NodeCommit[u], res.NodeCommit[v]
		if tu < 0 && tv < 0 {
			return nil, fmt.Errorf("measure: edge %d has no committed endpoint", e)
		}
		switch {
		case tu < 0:
			out[e] = tv
		case tv < 0:
			out[e] = tu
		default:
			out[e] = min32(tu, tv)
		}
	}
	return out, nil
}

// OneSidedEdgeAvg returns the mean one-sided edge time of one run. A graph
// without edges has mean 0; an edge with no committed endpoint is an error,
// which callers must propagate — a silently dropped trial would bias the
// averaged measure toward 0.
func OneSidedEdgeAvg(g *graph.Graph, res *runtime.Result) (float64, error) {
	one, err := OneSidedEdgeTimes(g, res)
	if err != nil {
		return 0, err
	}
	return mean32(one), nil
}

// NodeAvg returns the node-averaged complexity of one run: (1/|V|) Σ T_v.
func NodeAvg(t Times) float64 { return mean32(t.Node) }

// EdgeAvg returns the edge-averaged complexity of one run: (1/|E|) Σ T_e.
func EdgeAvg(t Times) float64 { return mean32(t.Edge) }

// Worst returns the worst-case completion round of one run.
func Worst(t Times) int {
	var w int32
	for _, x := range t.Node {
		w = max32(w, x)
	}
	for _, x := range t.Edge {
		w = max32(w, x)
	}
	return int(w)
}

// WeightedNodeAvg returns the weighted node-averaged complexity
// Σ w_v T_v / Σ w_v for the given positive weights (Appendix A).
func WeightedNodeAvg(t Times, w []float64) (float64, error) {
	if len(w) != len(t.Node) {
		return 0, fmt.Errorf("measure: %d weights for %d nodes", len(w), len(t.Node))
	}
	var num, den float64
	for v, tv := range t.Node {
		if w[v] <= 0 {
			return 0, fmt.Errorf("measure: non-positive weight %g at node %d", w[v], v)
		}
		num += w[v] * float64(tv)
		den += w[v]
	}
	if den == 0 {
		return 0, nil
	}
	return num / den, nil
}

// Quantiles holds exact nearest-rank quantiles of a completion-time set:
// for a sorted multiset of size k, the q-quantile is element ⌈q·k⌉−1. They
// are computed exactly, by sorting or by counting integer sums, never by
// sketching, so tests can validate them against an independent sort.
type Quantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// QuantilesOf computes the exact nearest-rank quantile summary of an
// arbitrary sample set, sorting a copy (the input is not modified). It is
// the machinery behind Dist exposed for callers outside the measurement
// pipeline — internal/obs histograms snapshot their windows through it —
// so every quantile in the tree is computed by the same arithmetic.
// An empty input yields the zero Quantiles.
func QuantilesOf(xs []float64) Quantiles {
	if len(xs) == 0 {
		return Quantiles{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantilesSorted(s)
}

// quantilesSorted summarizes an already-sorted non-empty sample set.
func quantilesSorted(xs []float64) Quantiles {
	return Quantiles{
		P50: quantileSorted(xs, 0.50),
		P90: quantileSorted(xs, 0.90),
		P99: quantileSorted(xs, 0.99),
		Max: xs[len(xs)-1],
	}
}

// HistBuckets is the fixed bucket count of the log₂ completion-time
// histograms: bucket 0 holds times < 1, bucket i ≥ 1 holds times in
// [2^(i−1), 2^i), and the last bucket absorbs everything larger. 16 buckets
// cover worst cases up to 2^15 rounds, far beyond any simulated workload.
const HistBuckets = 16

// Dist summarizes the distribution of expected completion times across the
// graph — the object behind the paper's averaged measures: most nodes
// finish in O(1) rounds while a vanishing fraction pays the worst case
// (Feuilloley's "how long does an ordinary node take?"). Quantiles and
// histograms are taken over the per-node (per-edge) empirical means E[T_v]
// (E[T_e]); the variances are across-trial sample variances of the run-level
// averages, a direct read on how noisy the reported AVG estimates are.
type Dist struct {
	NodeQ    Quantiles          `json:"node_q"`
	EdgeQ    Quantiles          `json:"edge_q"`
	NodeHist [HistBuckets]int64 `json:"node_hist"`
	EdgeHist [HistBuckets]int64 `json:"edge_hist"`
	// NodeAvgVar and EdgeAvgVar are the unbiased sample variances of the
	// per-trial node- and edge-averaged complexities (0 with fewer than 2
	// trials).
	NodeAvgVar float64 `json:"node_avg_var"`
	EdgeAvgVar float64 `json:"edge_avg_var"`
}

// Agg aggregates the measures over independent randomized trials. For a
// randomized algorithm A, Definition 1 takes expectations per node/edge;
// Agg estimates them by empirical means.
type Agg struct {
	trials  int
	nodeSum []float64 // Σ_trials T_v, per node
	edgeSum []float64 // Σ_trials T_e, per edge
	// per-run scalars
	runNodeAvg []float64
	runEdgeAvg []float64
	runWorst   []float64
	// scratch and counts are the shared buffers of Dist's quantile passes:
	// a counting pass counts into counts, a sorting pass sorts into
	// scratch, so repeated Dist calls on a reused Agg allocate each at most
	// once, of at most max(n, m)+1 elements.
	scratch []float64
	counts  []int
}

// NewAgg returns an aggregator for graphs with n nodes and m edges.
func NewAgg(n, m int) *Agg {
	return &Agg{nodeSum: make([]float64, n), edgeSum: make([]float64, m)}
}

// Add records the completion times of one trial.
func (a *Agg) Add(t Times) {
	a.trials++
	for v, x := range t.Node {
		a.nodeSum[v] += float64(x)
	}
	for e, x := range t.Edge {
		a.edgeSum[e] += float64(x)
	}
	a.runNodeAvg = append(a.runNodeAvg, NodeAvg(t))
	a.runEdgeAvg = append(a.runEdgeAvg, EdgeAvg(t))
	a.runWorst = append(a.runWorst, float64(Worst(t)))
}

// Trials returns the number of recorded trials.
func (a *Agg) Trials() int { return a.trials }

// NodeAvg estimates AVG_V(A) = (1/|V|) Σ_v E[T_v].
func (a *Agg) NodeAvg() float64 { return meanF(a.runNodeAvg) }

// EdgeAvg estimates AVG_E(A) = (1/|E|) Σ_e E[T_e].
func (a *Agg) EdgeAvg() float64 { return meanF(a.runEdgeAvg) }

// ExpNode estimates the node expected complexity max_v E[T_v] (Appendix A).
func (a *Agg) ExpNode() float64 {
	if a.trials == 0 {
		return 0
	}
	var m float64
	for _, s := range a.nodeSum {
		m = math.Max(m, s/float64(a.trials))
	}
	return m
}

// ExpEdge estimates the edge expected complexity max_e E[T_e].
func (a *Agg) ExpEdge() float64 {
	if a.trials == 0 {
		return 0
	}
	var m float64
	for _, s := range a.edgeSum {
		m = math.Max(m, s/float64(a.trials))
	}
	return m
}

// WorstMean estimates E[max T], the expected worst-case completion round.
func (a *Agg) WorstMean() float64 { return meanF(a.runWorst) }

// WorstMax returns the worst completion round over all trials.
func (a *Agg) WorstMax() float64 {
	var m float64
	for _, w := range a.runWorst {
		m = math.Max(m, w)
	}
	return m
}

// Dist computes the distribution block over the recorded trials. The
// quantile passes share the scratch buffers owned by the aggregator.
func (a *Agg) Dist() Dist {
	var d Dist
	if a.trials == 0 {
		return d
	}
	d.NodeQ, d.NodeHist = a.distOf(a.nodeSum)
	d.EdgeQ, d.EdgeHist = a.distOf(a.edgeSum)
	d.NodeAvgVar = sampleVar(a.runNodeAvg)
	d.EdgeAvgVar = sampleVar(a.runEdgeAvg)
	return d
}

// distOf computes quantiles and the log₂ histogram of the per-element mean
// times sums[i]/trials. The means rise with the sums, so the sums' nearest
// ranks are the means' ranks. When every sum is a non-negative integer no
// larger than len(sums) — completion times are integer rounds — a counting
// pass ranks them in O(len(sums)); otherwise distOf sorts the means into
// the shared scratch buffer. The bound keeps the count array no larger
// than the input, whatever the trial count.
func (a *Agg) distOf(sums []float64) (Quantiles, [HistBuckets]int64) {
	var q Quantiles
	var hist [HistBuckets]int64
	if len(sums) == 0 {
		return q, hist
	}
	// Divide (not multiply by a reciprocal) so the means match ExpNode /
	// ExpEdge bit for bit.
	trials := float64(a.trials)
	if a.countSums(sums) {
		k := len(sums)
		ranks := [...]int{nearestRank(k, 0.50), nearestRank(k, 0.90), nearestRank(k, 0.99)}
		var at [len(ranks)]float64
		j, seen := 0, 0
		for s, c := range a.counts {
			if c == 0 {
				continue
			}
			x := float64(s) / trials
			hist[histBucket(x)] += int64(c)
			seen += c
			for ; j < len(ranks) && ranks[j] < seen; j++ {
				at[j] = x
			}
		}
		top := float64(len(a.counts)-1) / trials
		return Quantiles{P50: at[0], P90: at[1], P99: at[2], Max: top}, hist
	}
	if cap(a.scratch) < len(sums) {
		a.scratch = make([]float64, len(sums))
	}
	xs := a.scratch[:len(sums)]
	for i, s := range sums {
		xs[i] = s / trials
		hist[histBucket(xs[i])]++
	}
	sort.Float64s(xs)
	return quantilesSorted(xs), hist
}

// countSums counts the values of sums into a.counts, which then has
// length max(sums)+1, and reports true — unless some sum is negative, not
// an integer, or larger than len(sums), in which case it counts nothing
// and reports false.
func (a *Agg) countSums(sums []float64) bool {
	var top float64
	for _, s := range sums {
		if !(s >= 0 && s <= float64(len(sums))) || s != math.Trunc(s) {
			return false
		}
		top = math.Max(top, s)
	}
	k := int(top) + 1
	if cap(a.counts) < k {
		a.counts = make([]int, k)
	}
	a.counts = a.counts[:k]
	clear(a.counts)
	for _, s := range sums {
		a.counts[int(s)]++
	}
	return true
}

// histBucket maps a completion time to its log₂ bucket.
func histBucket(t float64) int {
	if t < 1 {
		return 0
	}
	b := 1 + int(math.Floor(math.Log2(t)))
	if b >= HistBuckets {
		return HistBuckets - 1
	}
	return b
}

// quantileSorted is the exact nearest-rank quantile of a sorted non-empty
// slice.
func quantileSorted(xs []float64, q float64) float64 {
	return xs[nearestRank(len(xs), q)]
}

// nearestRank is the index ⌈q·k⌉−1 of the nearest-rank q-quantile in a
// sorted set of k > 0 elements.
func nearestRank(k int, q float64) int {
	i := int(math.Ceil(q*float64(k))) - 1
	return min(max(i, 0), k-1)
}

// sampleVar is the unbiased sample variance (0 for fewer than 2 samples).
func sampleVar(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := meanF(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// WeightedNodeAvg estimates AVG^w_V for the given weights using per-node
// expected completion times.
func (a *Agg) WeightedNodeAvg(w []float64) (float64, error) {
	if len(w) != len(a.nodeSum) {
		return 0, fmt.Errorf("measure: %d weights for %d nodes", len(w), len(a.nodeSum))
	}
	if a.trials == 0 {
		return 0, nil
	}
	var num, den float64
	for v, s := range a.nodeSum {
		if w[v] <= 0 {
			return 0, fmt.Errorf("measure: non-positive weight %g at node %d", w[v], v)
		}
		num += w[v] * s / float64(a.trials)
		den += w[v]
	}
	return num / den, nil
}

func mean32(xs []int32) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

func meanF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}
