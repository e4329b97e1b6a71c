package core_test

import (
	"math/rand/v2"
	"reflect"
	goruntime "runtime"
	"testing"

	"avgloc/internal/alg/matching"
	"avgloc/internal/alg/mis"
	"avgloc/internal/core"
	"avgloc/internal/graph"
)

// TestMeasureParallelEqualsSequential is the determinism contract of the
// parallel trial executor: for every problem family, the Report produced
// with Parallelism 8 is bit-identical (including float fields) to the
// sequential one, because per-trial random streams are counter-derived from
// the master seed and outcomes merge in trial order.
func TestMeasureParallelEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	cases := []struct {
		name   string
		degree int
		prob   core.Problem
		runner core.Runner
	}{
		{"mis-luby", 6, core.MIS, core.MessagePassing(mis.Luby{})},
		{"matching-luby", 6, core.MaximalMatching, core.MessagePassing(matching.RandLuby{})},
	}
	_, _, sinklessRand := core.SinklessRunners()
	cases = append(cases, struct {
		name   string
		degree int
		prob   core.Problem
		runner core.Runner
	}{"sinkless-rand", 3, core.SinklessOrientation, sinklessRand})

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{60, 200} {
				g := graph.RandomRegular(n, tc.degree, rng)
				for seed := uint64(0); seed < 3; seed++ {
					seq, err := core.Measure(g, tc.prob, tc.runner, core.MeasureOptions{Trials: 7, Seed: seed, Parallelism: 1})
					if err != nil {
						t.Fatalf("n=%d seed=%d sequential: %v", n, seed, err)
					}
					par, err := core.Measure(g, tc.prob, tc.runner, core.MeasureOptions{Trials: 7, Seed: seed, Parallelism: 8})
					if err != nil {
						t.Fatalf("n=%d seed=%d parallel: %v", n, seed, err)
					}
					if !reflect.DeepEqual(seq, par) {
						t.Fatalf("n=%d seed=%d: reports differ\nseq: %+v\npar: %+v", n, seed, seq, par)
					}
				}
			}
		})
	}
}

// TestMeasureParallelErrorIsDeterministic: the reported error is the one of
// the lowest failing trial, independent of scheduling.
func TestMeasureParallelErrorIsDeterministic(t *testing.T) {
	g := graph.Complete(4)
	var seqErr, parErr error
	_, seqErr = core.Measure(g, core.MIS, core.MessagePassing(badAlg), core.MeasureOptions{Trials: 5, Parallelism: 1})
	_, parErr = core.Measure(g, core.MIS, core.MessagePassing(badAlg), core.MeasureOptions{Trials: 5, Parallelism: 4})
	if seqErr == nil || parErr == nil {
		t.Fatal("expected validation errors")
	}
	if seqErr.Error() != parErr.Error() {
		t.Fatalf("error differs across parallelism: %q vs %q", seqErr, parErr)
	}
}

// BenchmarkMeasureParallel exercises the trial worker pool at GOMAXPROCS on
// a measurement-loop shape (many trials, one mid-size graph).
func BenchmarkMeasureParallel(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	g := graph.RandomRegular(2048, 6, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Measure(g, core.MIS, core.MessagePassing(mis.Luby{}), core.MeasureOptions{
			Trials: 8, Seed: 42, Parallelism: goruntime.GOMAXPROCS(0),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureSequential is the single-worker baseline for
// BenchmarkMeasureParallel.
func BenchmarkMeasureSequential(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	g := graph.RandomRegular(2048, 6, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Measure(g, core.MIS, core.MessagePassing(mis.Luby{}), core.MeasureOptions{
			Trials: 8, Seed: 42, Parallelism: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
