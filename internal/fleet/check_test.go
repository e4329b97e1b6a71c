package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"testing"
	"time"

	"avgloc/internal/resultstore"
	"avgloc/internal/scenario"
)

// checkSpec is one row of cycle n=16 in a single fastConfig chunk.
var checkSpec = scenario.Spec{Graph: "cycle", Params: map[string]float64{"n": 16},
	Algorithm: "mis/luby", Trials: 2, Seed: 13}

// overlong returns a copy of ch whose first trial carries one node time
// more than the graph has nodes.
func overlong(ch *scenario.Chunk) *scenario.Chunk {
	bad := *ch
	bad.Trials = slices.Clone(ch.Trials)
	bad.Trials[0].Node = append(slices.Clone(ch.Trials[0].Node), 1)
	return &bad
}

// leaseOne polls for workerID until it is leased a chunk.
func leaseOne(t *testing.T, c *Coordinator, workerID string) *ChunkJob {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		job, ok := c.poll(workerID)
		if !ok {
			t.Fatal("worker deregistered")
		}
		if job != nil {
			return job
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("never leased a chunk")
	return nil
}

// TestMalformedCachedChunkReexecutes: a chunk-cache entry that fails the
// chunk check is never merged; the chunk is dispatched again (and, with no
// worker attached, the run reports ErrUnavailable for local fallback). A
// well-formed entry is served without any worker.
func TestMalformedCachedChunkReexecutes(t *testing.T) {
	store, err := resultstore.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Store = store
	c := NewCoordinator(cfg)
	n, err := checkSpec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := n.Key()
	if err != nil {
		t.Fatal(err)
	}
	ch, err := scenario.RunChunk(n, 0, 0, n.Trials, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("RunChunk: %v", err)
	}
	put := func(ch *scenario.Chunk) {
		data, err := json.Marshal(ch)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(scenario.ChunkKey(key, 0, 0, n.Trials), data); err != nil {
			t.Fatal(err)
		}
	}
	put(overlong(ch))
	if _, err := c.RunScenario(context.Background(), &checkSpec); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("malformed cached chunk: got %v, want ErrUnavailable (re-dispatch with no workers)", err)
	}
	put(ch)
	out, err := c.RunScenario(context.Background(), &checkSpec)
	if err != nil {
		t.Fatalf("well-formed cached chunk: %v", err)
	}
	got, _ := out.MarshalStable()
	if !bytes.Equal(got, localBytes(t, &checkSpec)) {
		t.Fatal("cached-chunk bytes differ from local bytes")
	}
}
