package fleet

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"avgloc/internal/resultstore"
	"avgloc/internal/scenario"
)

// fastConfig shrinks every timeout so failure paths resolve in
// milliseconds instead of tens of seconds.
func fastConfig() Config {
	return Config{
		ChunkTrials:      2,
		HeartbeatTimeout: 250 * time.Millisecond,
		StealAfter:       100 * time.Millisecond,
		PollInterval:     10 * time.Millisecond,
	}
}

var fleetSpec = scenario.Spec{
	Graph:     "cycle",
	Algorithm: "mis/luby",
	Trials:    7,
	Seed:      13,
	Sweep:     &scenario.Sweep{Param: "n", Values: []float64{24, 40, 56}},
}

func localBytes(t *testing.T, spec *scenario.Spec) []byte {
	t.Helper()
	out, err := scenario.Run(spec, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	data, err := out.MarshalStable()
	if err != nil {
		t.Fatalf("MarshalStable: %v", err)
	}
	return data
}

// newHandlerServer serves a coordinator's HTTP surface for tests.
func newHandlerServer(t *testing.T, c *Coordinator) string {
	t.Helper()
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// startWorkers runs n fleet.Worker loops against the coordinator's HTTP
// handler and returns a stop function that waits for them to exit.
func startWorkers(t *testing.T, base string, n int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &Worker{Base: base, Name: "test", Parallelism: 2, Poll: 5 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// TestRunScenarioMatchesLocal is the acceptance property end to end: a
// scenario dispatched over HTTP across two worker processes merges to the
// exact MarshalStable bytes of a single-process parallelism-1 run.
func TestRunScenarioMatchesLocal(t *testing.T) {
	want := localBytes(t, &fleetSpec)
	c := NewCoordinator(fastConfig())
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	stop := startWorkers(t, ts.URL, 2)
	defer stop()

	waitWorkers(t, c, 2)
	out, err := c.RunScenario(context.Background(), &fleetSpec)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	got, err := out.MarshalStable()
	if err != nil {
		t.Fatalf("MarshalStable: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet bytes differ from local bytes\nfleet:\n%s\nlocal:\n%s", got, want)
	}
	st := c.Stats()
	if st.ChunksCompleted == 0 || st.ChunksDispatched == 0 {
		t.Fatalf("fleet did not execute: %+v", st)
	}
}

func waitWorkers(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Workers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers registered", c.Workers(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerKillRetriesSameBytes kills a worker mid-run: a registered
// worker leases a chunk and goes silent, so its lease expires and the
// chunk requeues (or is stolen) onto the surviving real worker. The merged
// outcome must still be byte-identical to the local run — retry re-derives
// the exact same partials.
func TestWorkerKillRetriesSameBytes(t *testing.T) {
	want := localBytes(t, &fleetSpec)
	c := NewCoordinator(fastConfig())
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// The doomed worker registers first and leases one chunk directly
	// through the coordinator API — deterministically, before any real
	// worker can drain the queue — then never heartbeats again.
	doomed := c.register("doomed")
	outcome := make(chan error, 1)
	var out *scenario.Outcome
	go func() {
		var err error
		out, err = c.RunScenario(context.Background(), &fleetSpec)
		outcome <- err
	}()
	var leased *ChunkJob
	deadline := time.Now().Add(5 * time.Second)
	for leased == nil {
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never received a chunk")
		}
		job, ok := c.poll(doomed.WorkerID)
		if !ok {
			t.Fatal("doomed worker deregistered before leasing")
		}
		if job != nil {
			leased = job
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Now the survivor joins and the doomed worker stays silent: its lease
	// must expire (or the chunk be stolen) and the run must still finish.
	stop := startWorkers(t, ts.URL, 1)
	defer stop()
	select {
	case err := <-outcome:
		if err != nil {
			t.Fatalf("RunScenario after worker kill: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not recover from worker loss")
	}
	got, err := out.MarshalStable()
	if err != nil {
		t.Fatalf("MarshalStable: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-retry bytes differ from local bytes")
	}
	st := c.Stats()
	if st.ChunksRetried == 0 && st.ChunksStolen == 0 {
		t.Fatalf("expected the lost chunk to retry or be stolen: %+v", st)
	}
}

// TestChunkCacheSkipsCompletedChunks proves the crash-recovery economics:
// with a store configured, a completed run leaves chunk partials behind,
// and a re-run on a fresh coordinator sharing the store dispatches
// nothing — it merges entirely from cached chunks, even with no workers
// attached.
func TestChunkCacheSkipsCompletedChunks(t *testing.T) {
	store, err := resultstore.New(256, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Store = store
	c1 := NewCoordinator(cfg)
	ts := httptest.NewServer(c1.Handler())
	defer ts.Close()
	stop := startWorkers(t, ts.URL, 2)
	waitWorkers(t, c1, 2)
	out1, err := c1.RunScenario(context.Background(), &fleetSpec)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	stop()

	// Fresh coordinator, same store, zero workers: everything is served
	// from chunk partials.
	c2 := NewCoordinator(cfg)
	out2, err := c2.RunScenario(context.Background(), &fleetSpec)
	if err != nil {
		t.Fatalf("cached re-run: %v", err)
	}
	a, _ := out1.MarshalStable()
	b, _ := out2.MarshalStable()
	if !bytes.Equal(a, b) {
		t.Fatalf("cache-served outcome differs from executed outcome")
	}
	st := c2.Stats()
	if st.ChunksDispatched != 0 {
		t.Fatalf("cached re-run dispatched %d chunks, want 0", st.ChunksDispatched)
	}
	if st.ChunksCached == 0 {
		t.Fatalf("cached re-run served no chunks from the store: %+v", st)
	}
}

// TestNoWorkers fails fast with ErrNoWorkers (an ErrUnavailable), the
// signal avgserve uses to fall back to local execution.
func TestNoWorkers(t *testing.T) {
	c := NewCoordinator(fastConfig())
	_, err := c.RunScenario(context.Background(), &fleetSpec)
	if !errors.Is(err, ErrNoWorkers) || !errors.Is(err, ErrUnavailable) {
		t.Fatalf("got %v, want ErrNoWorkers wrapping ErrUnavailable", err)
	}
}

// TestQueueFull fails fast with ErrBusy instead of enqueueing unboundedly.
func TestQueueFull(t *testing.T) {
	cfg := fastConfig()
	cfg.QueueCap = 2 // fleetSpec shards into 3 rows x ceil(7/2) = 12 chunks
	c := NewCoordinator(cfg)
	c.register("parked") // registered but never polls, so nothing drains
	_, err := c.RunScenario(context.Background(), &fleetSpec)
	if !errors.Is(err, ErrBusy) || !errors.Is(err, ErrUnavailable) {
		t.Fatalf("got %v, want ErrBusy wrapping ErrUnavailable", err)
	}
}

// TestExecutionErrorFailsRun: a deterministic chunk error reported by a
// worker fails the run with that error (no ErrUnavailable — retrying
// elsewhere would re-derive it).
func TestExecutionErrorFailsRun(t *testing.T) {
	c := NewCoordinator(fastConfig())
	w := c.register("hand-rolled")
	done := make(chan error, 1)
	go func() {
		_, err := c.RunScenario(context.Background(), &fleetSpec)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("never leased a chunk")
		}
		job, ok := c.poll(w.WorkerID)
		if !ok {
			t.Fatal("worker deregistered")
		}
		if job != nil {
			c.complete(&completeRequest{WorkerID: w.WorkerID, ChunkID: job.ID, Error: "synthetic failure"})
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case err := <-done:
		if err == nil || errors.Is(err, ErrUnavailable) {
			t.Fatalf("got %v, want a plain execution error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not fail")
	}
}

// TestMismatchedChunkRequeues: a completion whose payload does not match
// its lease — a wrong trial range, or a trial array longer than the graph,
// which used to panic in the merge — must not poison the merge: the chunk
// requeues. A healthy worker then finishes the run with bytes identical to
// local; a fleet that stays confused exhausts the retry budget into
// ErrUnavailable (the local-fallback signal), never a
// deterministic-looking failure.
func TestMismatchedChunkRequeues(t *testing.T) {
	want := localBytes(t, &fleetSpec)
	mismatches := map[string]func(*scenario.Chunk) *scenario.Chunk{
		"trial range":     func(ch *scenario.Chunk) *scenario.Chunk { ch.TrialHi++; return ch },
		"over-long trial": overlong,
	}
	for name, mismatch := range mismatches {
		c := NewCoordinator(fastConfig())
		ts := httptest.NewServer(c.Handler())
		confused := c.register("confused")
		done := make(chan error, 1)
		var out *scenario.Outcome
		go func() {
			var err error
			out, err = c.RunScenario(context.Background(), &fleetSpec)
			done <- err
		}()
		// The confused worker grabs one chunk and returns garbage for it.
		job := leaseOne(t, c, confused.WorkerID)
		ch, err := scenario.RunChunk(&job.Spec, job.Row, job.TrialLo, job.TrialHi, scenario.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("RunChunk: %v", err)
		}
		if c.complete(&completeRequest{WorkerID: confused.WorkerID, ChunkID: job.ID, Chunk: mismatch(ch)}).Accepted {
			t.Fatalf("%s: mismatched chunk accepted", name)
		}
		// A healthy worker joins and must complete the run, including the
		// requeued chunk, byte-identically.
		stop := startWorkers(t, ts.URL, 1)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: run did not recover from a mismatched chunk: %v", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: run hung after mismatched chunk", name)
		}
		stop()
		ts.Close()
		got, _ := out.MarshalStable()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: post-mismatch bytes differ from local bytes", name)
		}
		if st := c.Stats(); st.ChunksFailed == 0 {
			t.Fatalf("%s: mismatch not counted: %+v", name, st)
		}
	}
}

// TestAllMismatchedExhaustsToUnavailable: a fleet whose only worker keeps
// returning garbage must converge to ErrUnavailable via the retry budget.
func TestAllMismatchedExhaustsToUnavailable(t *testing.T) {
	c := NewCoordinator(fastConfig())
	w := c.register("persistently-confused")
	done := make(chan error, 1)
	go func() {
		_, err := c.RunScenario(context.Background(), &fleetSpec)
		done <- err
	}()
	stopFeeding := make(chan struct{})
	go func() {
		for {
			select {
			case <-stopFeeding:
				return
			default:
			}
			job, ok := c.poll(w.WorkerID)
			if !ok {
				return
			}
			if job == nil {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			c.complete(&completeRequest{WorkerID: w.WorkerID, ChunkID: job.ID}) // nil chunk, no error: mismatch
		}
	}()
	defer close(stopFeeding)
	select {
	case err := <-done:
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("got %v, want ErrUnavailable after retry budget", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run never exhausted the retry budget")
	}
}

// TestLongChunkHeartbeatKeepsLease: a chunk whose execution outlives
// HeartbeatTimeout many times over is NOT requeued or re-leased while its
// worker keeps heartbeating — heartbeats extend the lease indefinitely,
// and an idle second worker polls empty the whole time. Long-running
// chunks on large graphs must not be treated as worker loss.
func TestLongChunkHeartbeatKeepsLease(t *testing.T) {
	spec := scenario.Spec{Graph: "cycle", Params: map[string]float64{"n": 24},
		Algorithm: "mis/luby", Trials: 2, Seed: 13}
	want := localBytes(t, &spec)
	cfg := fastConfig()
	cfg.HeartbeatTimeout = 150 * time.Millisecond
	cfg.StealAfter = time.Hour // isolate the heartbeat path from work stealing
	c := NewCoordinator(cfg)
	holder := c.register("holder")
	idle := c.register("idle")

	done := make(chan error, 1)
	var out *scenario.Outcome
	go func() {
		var err error
		out, err = c.RunScenario(context.Background(), &spec)
		done <- err
	}()
	var job *ChunkJob
	deadline := time.Now().Add(5 * time.Second)
	for job == nil {
		if time.Now().After(deadline) {
			t.Fatal("holder never leased the chunk")
		}
		j, ok := c.poll(holder.WorkerID)
		if !ok {
			t.Fatal("holder deregistered")
		}
		job = j
		time.Sleep(2 * time.Millisecond)
	}

	// "Execute" for 4x the heartbeat timeout, heartbeating on the worker's
	// advertised cadence. The idle worker polls throughout and must never
	// receive the chunk.
	until := time.Now().Add(4 * cfg.HeartbeatTimeout)
	for time.Now().Before(until) {
		if !c.heartbeat(holder.WorkerID, job.ID) {
			t.Fatal("holder lost its registration while heartbeating")
		}
		if j, ok := c.poll(idle.WorkerID); !ok {
			t.Fatal("idle worker deregistered")
		} else if j != nil {
			t.Fatalf("idle worker was leased chunk %s while the holder heartbeats", j.ID)
		}
		time.Sleep(cfg.HeartbeatTimeout / 4)
	}
	if st := c.Stats(); st.ChunksRetried != 0 || st.ChunksStolen != 0 {
		t.Fatalf("heartbeating chunk was retried/stolen: %+v", st)
	}

	ch, err := scenario.RunChunk(&job.Spec, job.Row, job.TrialLo, job.TrialHi, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("RunChunk: %v", err)
	}
	c.complete(&completeRequest{WorkerID: holder.WorkerID, ChunkID: job.ID, Chunk: ch})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunScenario: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not finish after the late completion")
	}
	got, _ := out.MarshalStable()
	if !bytes.Equal(got, want) {
		t.Fatal("slow-chunk bytes differ from local bytes")
	}
}

// TestDuplicateCompleteIgnored: delivering the same completion twice (a
// transport-level duplicate, or a retry racing its own success) merges the
// chunk exactly once — the second delivery is counted as a duplicate and
// the merged bytes are unaffected.
func TestDuplicateCompleteIgnored(t *testing.T) {
	spec := scenario.Spec{Graph: "cycle", Params: map[string]float64{"n": 24},
		Algorithm: "mis/luby", Trials: 2, Seed: 13}
	want := localBytes(t, &spec)
	c := NewCoordinator(fastConfig())
	w := c.register("echoing")
	done := make(chan error, 1)
	var out *scenario.Outcome
	go func() {
		var err error
		out, err = c.RunScenario(context.Background(), &spec)
		done <- err
	}()
	var job *ChunkJob
	deadline := time.Now().Add(5 * time.Second)
	for job == nil {
		if time.Now().After(deadline) {
			t.Fatal("never leased the chunk")
		}
		j, ok := c.poll(w.WorkerID)
		if !ok {
			t.Fatal("worker deregistered")
		}
		job = j
		time.Sleep(2 * time.Millisecond)
	}
	ch, err := scenario.RunChunk(&job.Spec, job.Row, job.TrialLo, job.TrialHi, scenario.Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("RunChunk: %v", err)
	}
	req := &completeRequest{WorkerID: w.WorkerID, ChunkID: job.ID, Chunk: ch}
	if resp := c.complete(req); !resp.Accepted {
		t.Fatal("first completion not accepted")
	}
	if resp := c.complete(req); resp.Accepted {
		t.Fatal("duplicate completion was accepted")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunScenario: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not finish")
	}
	st := c.Stats()
	if st.ChunksCompleted != 1 {
		t.Fatalf("ChunksCompleted = %d, want 1", st.ChunksCompleted)
	}
	if st.ChunksDuplicate != 1 {
		t.Fatalf("ChunksDuplicate = %d, want 1", st.ChunksDuplicate)
	}
	got, _ := out.MarshalStable()
	if !bytes.Equal(got, want) {
		t.Fatal("duplicate delivery changed the merged bytes")
	}
}

// TestAllWorkersLostFallsToUnavailable: if every worker dies mid-run the
// run fails with ErrNoWorkers so the caller can fall back to local
// execution instead of hanging.
func TestAllWorkersLostFallsToUnavailable(t *testing.T) {
	c := NewCoordinator(fastConfig())
	c.register("ghost") // never polls or heartbeats again
	done := make(chan error, 1)
	go func() {
		_, err := c.RunScenario(context.Background(), &fleetSpec)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("got %v, want an ErrUnavailable", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not detect total worker loss")
	}
}
