package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"testing"

	"avgloc/internal/core"
)

// chunkSpecs is the pool the property test draws from: a mix of problem
// kinds (node outputs, edge outputs, one-sided measure), deterministic and
// randomized algorithms, with and without sweeps.
var chunkSpecs = []Spec{
	{Graph: "cycle", Params: map[string]float64{"n": 48}, Algorithm: "mis/luby", Trials: 5, Seed: 11},
	{Graph: "regular", Params: map[string]float64{"n": 32, "d": 4}, Algorithm: "matching/randluby", Trials: 4, Seed: 3},
	{Graph: "tree", Params: map[string]float64{"n": 40}, Algorithm: "coloring/randgreedy", Trials: 6, Seed: 9},
	{Graph: "path", Params: map[string]float64{"n": 33}, Algorithm: "mis/det-coloring", Trials: 3, Seed: 1},
	{Graph: "cycle", Algorithm: "ruling/rand22", Trials: 7, Seed: 5,
		Sweep: &Sweep{Param: "n", Values: []float64{24, 36, 48}}},
	{Graph: "gnp", Params: map[string]float64{"n": 40, "p": 0.08}, Algorithm: "mis/ghaffari", Trials: 5, Seed: 21,
		Sweep: &Sweep{Param: "n", Values: []float64{24, 40}}},
}

// randomPartition splits [0, trials) into consecutive chunks with random
// cut points (at least one chunk; chunk sizes 1..trials).
func randomPartition(rng *rand.Rand, trials int) [][2]int {
	var cuts [][2]int
	lo := 0
	for lo < trials {
		hi := lo + 1 + rng.IntN(trials-lo)
		cuts = append(cuts, [2]int{lo, hi})
		lo = hi
	}
	return cuts
}

// TestMergeChunksMatchesRun is the fleet correctness property: for every
// spec and ANY partition of each row's trials into chunks — executed in
// any order, merged from any order — MergeChunks reproduces the
// single-process Run outcome byte-for-byte (MarshalStable), including the
// Dist block. This is exactly the guarantee the coordinator's merge relies
// on, so it must hold for adversarial partitions, not just the
// coordinator's uniform ones.
func TestMergeChunksMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xC0FFEE, 7))
	for si := range chunkSpecs {
		spec := chunkSpecs[si]
		t.Run(fmt.Sprintf("spec%d_%s_%s", si, spec.Graph, spec.Algorithm), func(t *testing.T) {
			want, err := Run(&spec, Options{Parallelism: 1})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			wantBytes, err := want.MarshalStable()
			if err != nil {
				t.Fatalf("MarshalStable: %v", err)
			}
			norm, err := spec.Normalize()
			if err != nil {
				t.Fatalf("Normalize: %v", err)
			}
			for round := 0; round < 3; round++ {
				var chunks []*Chunk
				for row := 0; row < norm.Rows(); row++ {
					for _, cut := range randomPartition(rng, norm.Trials) {
						ch, err := RunChunk(&spec, row, cut[0], cut[1], Options{Parallelism: 1 + rng.IntN(3)})
						if err != nil {
							t.Fatalf("RunChunk(row=%d, [%d,%d)): %v", row, cut[0], cut[1], err)
						}
						chunks = append(chunks, ch)
					}
				}
				// Merge order must not matter: shuffle the chunk list.
				rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
				got, err := MergeChunks(&spec, chunks)
				if err != nil {
					t.Fatalf("MergeChunks: %v", err)
				}
				gotBytes, err := got.MarshalStable()
				if err != nil {
					t.Fatalf("MarshalStable: %v", err)
				}
				if !bytes.Equal(gotBytes, wantBytes) {
					t.Fatalf("round %d: merged outcome differs from single-process run\nmerged:\n%s\nlocal:\n%s",
						round, gotBytes, wantBytes)
				}
			}
		})
	}
}

// TestMergeChunksJSONRoundTrip proves the wire safety half of the fleet
// guarantee: chunks that travel through JSON — as they do between worker
// and coordinator — still merge to the exact local bytes. Completion
// times are int32 and the one-sided means are float64; Go's JSON encoding
// round-trips both exactly, and this test pins that.
func TestMergeChunksJSONRoundTrip(t *testing.T) {
	spec := chunkSpecs[0]
	want, err := Run(&spec, Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantBytes, _ := want.MarshalStable()
	norm, _ := spec.Normalize()
	var chunks []*Chunk
	for lo := 0; lo < norm.Trials; lo += 2 {
		hi := lo + 2
		if hi > norm.Trials {
			hi = norm.Trials
		}
		ch, err := RunChunk(&spec, 0, lo, hi, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("RunChunk: %v", err)
		}
		data, err := json.Marshal(ch)
		if err != nil {
			t.Fatalf("marshal chunk: %v", err)
		}
		var back Chunk
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal chunk: %v", err)
		}
		chunks = append(chunks, &back)
	}
	got, err := MergeChunks(&spec, chunks)
	if err != nil {
		t.Fatalf("MergeChunks: %v", err)
	}
	gotBytes, _ := got.MarshalStable()
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("JSON-round-tripped merge differs from local run")
	}
}

// TestMergeChunksRejectsBadCovers locks in the refusal paths: gaps,
// overlaps, missing rows, disagreeing metadata and trial arrays whose
// length disagrees with the metadata must error instead of producing a
// plausible-looking wrong report. (An over-long array used to index past
// the aggregator's per-node sums and panic.)
func TestMergeChunksRejectsBadCovers(t *testing.T) {
	spec := Spec{Graph: "cycle", Params: map[string]float64{"n": 24}, Algorithm: "mis/luby", Trials: 4, Seed: 2}
	full, err := RunChunk(&spec, 0, 0, 4, Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("RunChunk: %v", err)
	}
	head, err := RunChunk(&spec, 0, 0, 2, Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("RunChunk: %v", err)
	}
	cases := []struct {
		name   string
		chunks []*Chunk
	}{
		{"gap", []*Chunk{head}},
		{"overlap", []*Chunk{full, head}},
		{"empty", nil},
		{"bad row", []*Chunk{{Row: 3, TrialLo: 0, TrialHi: 4, Trials: full.Trials, Meta: full.Meta}}},
		{"trial count mismatch", []*Chunk{{Row: 0, TrialLo: 0, TrialHi: 4, Trials: head.Trials, Meta: full.Meta}}},
		{"nil chunk", []*Chunk{nil}},
		{"node times too long", []*Chunk{withTrial(full, func(o *core.TrialOutcome) { o.Node = append(o.Node, 1) })}},
		{"node times too short", []*Chunk{withTrial(full, func(o *core.TrialOutcome) { o.Node = o.Node[1:] })}},
		{"edge times too long", []*Chunk{withTrial(full, func(o *core.TrialOutcome) { o.Edge = append(o.Edge, 1) })}},
		{"edge times missing", []*Chunk{withTrial(full, func(o *core.TrialOutcome) { o.Edge = nil })}},
	}
	for _, tc := range cases {
		if _, err := MergeChunks(&spec, tc.chunks); err == nil {
			t.Errorf("%s: MergeChunks accepted an invalid cover", tc.name)
		}
	}
	// Metadata disagreement between chunks of one row.
	tail, err := RunChunk(&spec, 0, 2, 4, Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("RunChunk: %v", err)
	}
	mutated := *tail
	mutated.Meta.Nodes++
	if _, err := MergeChunks(&spec, []*Chunk{head, &mutated}); err == nil {
		t.Errorf("metadata disagreement: MergeChunks accepted it")
	}
}

// withTrial returns a copy of ch whose last trial is mutated by f.
func withTrial(ch *Chunk, f func(*core.TrialOutcome)) *Chunk {
	c := *ch
	c.Trials = append([]core.TrialOutcome(nil), ch.Trials...)
	last := &c.Trials[len(c.Trials)-1]
	last.Node = append([]int32(nil), last.Node...)
	last.Edge = append([]int32(nil), last.Edge...)
	f(last)
	return &c
}

// TestMeasureRangeMatchesMeasure pins the core-level identity the chunk
// machinery is built on: Measure == MergeTrials(MeasureRange(0, trials)),
// and a split range concatenates to the full one.
func TestMeasureRangeMatchesMeasure(t *testing.T) {
	spec := Spec{Graph: "regular", Params: map[string]float64{"n": 24, "d": 3}, Algorithm: "mis/luby", Trials: 6, Seed: 4}
	full, err := RunChunk(&spec, 0, 0, 6, Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("RunChunk full: %v", err)
	}
	var split []core.TrialOutcome
	for _, cut := range [][2]int{{0, 1}, {1, 4}, {4, 6}} {
		ch, err := RunChunk(&spec, 0, cut[0], cut[1], Options{Parallelism: 2})
		if err != nil {
			t.Fatalf("RunChunk [%d,%d): %v", cut[0], cut[1], err)
		}
		split = append(split, ch.Trials...)
	}
	a, _ := json.Marshal(core.MergeTrials(full.Meta, full.Trials))
	b, _ := json.Marshal(core.MergeTrials(full.Meta, split))
	if !bytes.Equal(a, b) {
		t.Fatalf("split ranges merge differently:\nfull:  %s\nsplit: %s", a, b)
	}
}
