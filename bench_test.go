package avgloc_test

import (
	"math/rand/v2"
	"os"
	"testing"

	"avgloc/internal/campaign"
	"avgloc/internal/measure"
	"avgloc/internal/scenario"
)

// BenchmarkDistAggregation tracks the distribution hot path added to every
// report: quantile sorts (into the aggregator's shared scratch buffer),
// log₂ histograms and across-trial variances on a measurement-loop-sized
// aggregate.
func BenchmarkDistAggregation(b *testing.B) {
	const n, m, trials = 4096, 12288, 8
	rng := rand.New(rand.NewPCG(9, 10))
	agg := measure.NewAgg(n, m)
	node, edge := make([]int32, n), make([]int32, m)
	for t := 0; t < trials; t++ {
		for i := range node {
			node[i] = int32(rng.IntN(30))
		}
		for i := range edge {
			edge[i] = int32(rng.IntN(30))
		}
		agg.Add(measure.Times{Node: node, Edge: edge})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := agg.Dist()
		if d.NodeQ.Max <= 0 {
			b.Fatal("implausible distribution")
		}
	}
}

// benchScenarioSweep runs an 8-row sweep through scenario.Run at the given
// worker budget; comparing the P1/P4 variants measures the concurrent row
// scheduler's speedup (outcomes are byte-identical at every level).
func benchScenarioSweep(b *testing.B, parallelism int) {
	spec := &scenario.Spec{
		Graph:     "regular",
		Params:    map[string]float64{"d": 6},
		Algorithm: "mis/luby",
		Trials:    4,
		Seed:      17,
		Sweep:     &scenario.Sweep{Param: "n", Values: []float64{256, 384, 512, 640, 768, 896, 1024, 1152}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := scenario.Run(spec, scenario.Options{Parallelism: parallelism})
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Rows) != 8 {
			b.Fatalf("got %d rows", len(out.Rows))
		}
	}
}

func BenchmarkScenarioSweep8RowsP1(b *testing.B) { benchScenarioSweep(b, 1) }
func BenchmarkScenarioSweep8RowsP4(b *testing.B) { benchScenarioSweep(b, 4) }

// benchCampaignPaper runs the shipped paper-claims campaign end to end —
// scenario execution, growth-class fitting, verdicts — at the given worker
// budget; the P1/P4 pair tracks the campaign scheduler's speedup (reports
// are byte-identical at every level).
func benchCampaignPaper(b *testing.B, parallelism int) {
	data, err := os.ReadFile("campaigns/paper.json")
	if err != nil {
		b.Fatal(err)
	}
	c, err := campaign.Parse(data)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := campaign.Run(c, campaign.Options{Parallelism: parallelism})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Rejected != 0 || rep.Confirmed == 0 {
			b.Fatalf("implausible verdicts: %+v", rep)
		}
	}
}

func BenchmarkCampaignPaperP1(b *testing.B) { benchCampaignPaper(b, 1) }
func BenchmarkCampaignPaperP4(b *testing.B) { benchCampaignPaper(b, 4) }
