package fleet

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"avgloc/internal/campaign"
	"avgloc/internal/graphstore"
	"avgloc/internal/scenario"
)

// The Coordinator plugs straight into campaign execution: its Execute
// method must keep satisfying campaign.Options.Execute (fleet cannot
// import campaign in non-test code, so the signature match is pinned
// here at compile time).
var _ = campaign.Options{Execute: (&Coordinator{}).Execute}

// TestExecuteFallsBackLocally: with no workers attached, Execute runs
// locally and returns the same bytes as scenario.Run — the behavior
// avgcampaign -fleet-listen relies on before any avgworker attaches.
func TestExecuteFallsBackLocally(t *testing.T) {
	spec := scenario.Spec{Graph: "cycle", Params: map[string]float64{"n": 24}, Algorithm: "mis/luby", Trials: 3, Seed: 8}
	want := localBytes(t, &spec)
	c := NewCoordinator(fastConfig())
	out, _, err := c.Execute(&spec, scenario.Options{Parallelism: 2})
	if err != nil {
		t.Fatalf("Execute without workers: %v", err)
	}
	got, _ := out.MarshalStable()
	if !bytes.Equal(got, want) {
		t.Fatal("workerless Execute differs from scenario.Run")
	}
	if st := c.Stats(); st.ChunksDispatched != 0 {
		t.Fatalf("workerless Execute dispatched chunks: %+v", st)
	}
}

// TestExecuteFallbackUsesCallerGraphs: the local fallback fetches graphs
// through the caller's store, so avgcampaign -fleet-listen with no worker
// attached still writes -graph-cache-dir artifacts, one per row.
func TestExecuteFallbackUsesCallerGraphs(t *testing.T) {
	spec := scenario.Spec{Graph: "cycle", Algorithm: "mis/luby", Trials: 2, Seed: 8,
		Sweep: &scenario.Sweep{Param: "n", Values: []float64{24, 32}}}
	dir := t.TempDir()
	graphs, err := graphstore.New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(fastConfig())
	out, _, err := c.Execute(&spec, scenario.Options{Parallelism: 2, Graphs: graphs})
	if err != nil {
		t.Fatalf("Execute without workers: %v", err)
	}
	got, _ := out.MarshalStable()
	if !bytes.Equal(got, localBytes(t, &spec)) {
		t.Fatal("workerless Execute differs from scenario.Run")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.csr"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("caller's graph store holds %d artifacts, want 2 (one per row): %v", len(files), files)
	}
}

// TestExecuteUsesFleetWhenWorkersAttached: with workers, Execute
// dispatches and still matches local bytes.
func TestExecuteUsesFleetWhenWorkersAttached(t *testing.T) {
	spec := scenario.Spec{Graph: "cycle", Params: map[string]float64{"n": 32}, Algorithm: "mis/luby", Trials: 5, Seed: 8}
	want := localBytes(t, &spec)
	c := NewCoordinator(fastConfig())
	ts := newHandlerServer(t, c)
	stop := startWorkers(t, ts, 1)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for c.Workers() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker did not register")
		}
		time.Sleep(5 * time.Millisecond)
	}
	out, _, err := c.Execute(&spec, scenario.Options{Parallelism: 2})
	if err != nil {
		t.Fatalf("Execute with workers: %v", err)
	}
	got, _ := out.MarshalStable()
	if !bytes.Equal(got, want) {
		t.Fatal("fleet Execute differs from scenario.Run")
	}
	if st := c.Stats(); st.ChunksDispatched == 0 {
		t.Fatalf("Execute with workers did not dispatch: %+v", st)
	}
}
