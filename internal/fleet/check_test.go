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

// pairSpec is checkSpec's row in two fastConfig chunks, trials [0, 2) and
// [2, 4).
var pairSpec = scenario.Spec{Graph: "cycle", Params: map[string]float64{"n": 16},
	Algorithm: "mis/luby", Trials: 4, Seed: 13}

// regraphed returns a copy of ch whose Meta names another graph; its
// arrays still match its own Meta.
func regraphed(ch *scenario.Chunk) *scenario.Chunk {
	bad := *ch
	bad.Meta.Graph += "'"
	return &bad
}

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

// TestDisagreeingChunkRequeues: a chunk whose arrays fit its own Meta but
// whose Meta disagrees with its row's first accepted chunk is refused as
// a mismatch and requeued, never merged or cached; a correct re-upload
// completes the run with the local bytes. A cached chunk that disagrees
// the same way is re-executed.
func TestDisagreeingChunkRequeues(t *testing.T) {
	store, err := resultstore.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Store = store
	c := NewCoordinator(cfg)
	w := c.register("w")
	done := make(chan error, 1)
	var out *scenario.Outcome
	go func() {
		var err error
		out, err = c.RunScenario(context.Background(), &pairSpec)
		done <- err
	}()
	chunk := func(job *ChunkJob) *scenario.Chunk {
		ch, err := scenario.RunChunk(&job.Spec, job.Row, job.TrialLo, job.TrialHi, scenario.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	upload := func(job *ChunkJob, ch *scenario.Chunk) bool {
		return c.complete(&completeRequest{WorkerID: w.WorkerID, ChunkID: job.ID, Chunk: ch}).Accepted
	}
	a, b := leaseOne(t, c, w.WorkerID), leaseOne(t, c, w.WorkerID)
	if a.TrialLo != 0 || b.TrialLo != 2 {
		t.Fatalf("leased trials from %d and %d, want 0 and 2", a.TrialLo, b.TrialLo)
	}
	if !upload(a, chunk(a)) {
		t.Fatal("correct chunk [0, 2) refused")
	}
	if upload(b, regraphed(chunk(b))) {
		t.Fatal("chunk [2, 4) with another graph accepted")
	}
	if got := c.Stats().ChunksFailed; got != 1 {
		t.Fatalf("%d failed chunks, want the one mismatch", got)
	}
	again := leaseOne(t, c, w.WorkerID)
	if again.TrialLo != 2 {
		t.Fatalf("requeued chunk has trials from %d, want 2", again.TrialLo)
	}
	if !upload(again, chunk(again)) {
		t.Fatal("correct re-upload of chunk [2, 4) refused")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run never finished")
	}
	want := localBytes(t, &pairSpec)
	if got, _ := out.MarshalStable(); !bytes.Equal(got, want) {
		t.Fatal("fleet bytes differ from local bytes")
	}

	// Now the cache holds both correct chunks; replace [2, 4) with one
	// that disagrees. With no worker to re-execute it, the run must ask
	// for local fallback rather than merge it.
	c.deregister(w.WorkerID)
	n, err := pairSpec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := n.Key()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(regraphed(chunk(b)))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(scenario.ChunkKey(key, 0, 2, 4), data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunScenario(context.Background(), &pairSpec); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("disagreeing cached chunk: got %v, want ErrUnavailable (re-dispatch with no workers)", err)
	}
}

// TestPoisonedCachedRowReexecutes: a cached chunk that disagrees with the
// correct chunks of its row is found even when it is the row's first, the
// one that fixes the row's metadata. The whole row is then re-executed,
// the correct uploads are accepted, and their write-through replaces the
// bad entry, so a later run is served from the cache alone.
func TestPoisonedCachedRowReexecutes(t *testing.T) {
	store, err := resultstore.New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Store = store
	c := NewCoordinator(cfg)
	n, err := pairSpec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := n.Key()
	if err != nil {
		t.Fatal(err)
	}
	chunk := func(lo, hi int) *scenario.Chunk {
		ch, err := scenario.RunChunk(n, 0, lo, hi, scenario.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	put := func(ch *scenario.Chunk) {
		data, err := json.Marshal(ch)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(scenario.ChunkKey(key, 0, ch.TrialLo, ch.TrialHi), data); err != nil {
			t.Fatal(err)
		}
	}
	put(regraphed(chunk(0, 2)))
	put(chunk(2, 4))

	w := c.register("w")
	done := make(chan error, 1)
	var out *scenario.Outcome
	go func() {
		var err error
		out, err = c.RunScenario(context.Background(), &pairSpec)
		done <- err
	}()
	for i := 0; i < 2; i++ {
		job := leaseOne(t, c, w.WorkerID)
		ch := chunk(job.TrialLo, job.TrialHi)
		if !c.complete(&completeRequest{WorkerID: w.WorkerID, ChunkID: job.ID, Chunk: ch}).Accepted {
			t.Fatalf("correct chunk [%d, %d) refused", job.TrialLo, job.TrialHi)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run never finished")
	}
	want := localBytes(t, &pairSpec)
	if got, _ := out.MarshalStable(); !bytes.Equal(got, want) {
		t.Fatal("fleet bytes differ from local bytes")
	}

	c.deregister(w.WorkerID)
	out, err = c.RunScenario(context.Background(), &pairSpec)
	if err != nil {
		t.Fatalf("run from the repaired cache: %v", err)
	}
	if got, _ := out.MarshalStable(); !bytes.Equal(got, want) {
		t.Fatal("cached bytes differ from local bytes")
	}
}
