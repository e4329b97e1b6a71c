package mis_test

import (
	"testing"

	"avgloc/internal/alg/mis"
	"avgloc/internal/graph"
	"avgloc/internal/ids"
	"avgloc/internal/runtime"
)

// BenchmarkDetMISCycle runs mis.Det on C₄₀₉₆ on one reused Engine and
// reports the cost per node-round (Σ over nodes of halt round + 1), the
// unit in which the round loop's work grows.
func BenchmarkDetMISCycle(b *testing.B) {
	g := graph.Cycle(4096)
	cfg := runtime.Config{IDs: ids.Sequential(g.N())}
	eng := runtime.NewEngine(g)
	var nodeRounds int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(mis.Det{}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, h := range res.NodeHalt {
			nodeRounds += int64(h) + 1
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodeRounds), "ns/node-round")
}
