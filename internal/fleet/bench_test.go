package fleet

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"avgloc/internal/scenario"
)

// benchSpec is a mid-size single-row scenario: 64 trials on a 1024-node
// 4-regular graph, the shape a fleet would actually shard.
var benchSpec = scenario.Spec{
	Graph:     "regular",
	Params:    map[string]float64{"n": 1024, "d": 4},
	Algorithm: "mis/luby",
	Trials:    64,
	Seed:      17,
}

// BenchmarkFleetMergeChunks measures the coordinator's merge hot path:
// reassembling a run from 8-trial chunks (trial-order sort, cover check,
// per-trial float accumulation, Dist quantile sorts). Chunk execution is
// done once up front; the loop isolates MergeChunks itself.
func BenchmarkFleetMergeChunks(b *testing.B) {
	norm, err := benchSpec.Normalize()
	if err != nil {
		b.Fatal(err)
	}
	var chunks []*scenario.Chunk
	for lo := 0; lo < norm.Trials; lo += 8 {
		hi := lo + 8
		if hi > norm.Trials {
			hi = norm.Trials
		}
		ch, err := scenario.RunChunk(&benchSpec, 0, lo, hi, scenario.Options{Parallelism: 4})
		if err != nil {
			b.Fatal(err)
		}
		chunks = append(chunks, ch)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.MergeChunks(&benchSpec, chunks); err != nil {
			b.Fatal(err)
		}
	}
}

// dispatchSpec is deliberately small: the dispatch-overhead pair below
// compares where the time goes, not how fast trials run, so the work per
// chunk is minimal and the protocol cost dominates the fleet row.
var dispatchSpec = scenario.Spec{
	Graph:     "cycle",
	Params:    map[string]float64{"n": 64},
	Algorithm: "mis/luby",
	Trials:    8,
	Seed:      23,
}

// BenchmarkFleetDispatchLocal is the baseline row: the same spec executed
// in-process by scenario.Run.
func BenchmarkFleetDispatchLocal(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Run(&dispatchSpec, scenario.Options{Parallelism: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetDispatchFleet is the overhead row: the same spec pushed
// through the full coordinator/worker HTTP round trip (register, poll,
// execute, complete, merge) with two workers on localhost. The delta
// against BenchmarkFleetDispatchLocal is the per-run protocol cost a
// deployment amortizes by running bigger specs.
func BenchmarkFleetDispatchFleet(b *testing.B) {
	c := NewCoordinator(Config{
		ChunkTrials:      4,
		HeartbeatTimeout: 5 * time.Second,
		StealAfter:       time.Second,
		PollInterval:     time.Millisecond,
	})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		w := &Worker{Base: ts.URL, Name: "bench", Parallelism: 2, Poll: time.Millisecond}
		go w.Run(ctx)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Workers() < 2 {
		if time.Now().After(deadline) {
			b.Fatal("workers did not register")
		}
		time.Sleep(time.Millisecond)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunScenario(context.Background(), &dispatchSpec); err != nil {
			b.Fatal(err)
		}
	}
}
