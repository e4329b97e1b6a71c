package fleet

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"avgloc/internal/campaign"
	"avgloc/internal/graphstore"
	"avgloc/internal/obs"
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

// TestExecuteBreakerTrips: Execute owns the dispatch breaker. Against a
// fleet whose every attempt fails at once with ErrBusy (one idle worker,
// a one-chunk queue, a two-chunk spec), the first DefaultBreakerThreshold
// calls probe the fleet and fall back; then the breaker is open and the
// rest run locally without a probe. Every call returns scenario.Run's
// bytes, and the coordinator's registry shows one trip.
func TestExecuteBreakerTrips(t *testing.T) {
	spec := scenario.Spec{Graph: "cycle", Params: map[string]float64{"n": 24}, Algorithm: "mis/luby", Trials: 2, Seed: 8}
	want := localBytes(t, &spec)
	var probes int
	c := NewCoordinator(Config{QueueCap: 1, ChunkTrials: 1, Logf: func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), "unavailable") {
			probes++
		}
	}})
	c.register("idle")
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)
	for i := 0; i < DefaultBreakerThreshold+3; i++ {
		out, _, err := c.Execute(&spec, scenario.Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		got, _ := out.MarshalStable()
		if !bytes.Equal(got, want) {
			t.Fatalf("call %d differs from scenario.Run", i)
		}
	}
	if probes != DefaultBreakerThreshold {
		t.Fatalf("%d fleet probes fell back, want %d (the breaker should stop probing)", probes, DefaultBreakerThreshold)
	}
	var prom strings.Builder
	reg.WritePrometheus(&prom)
	for _, line := range []string{"avg_fleet_breaker_trips_total 1", "avg_fleet_breaker_state 1"} {
		if !strings.Contains(prom.String(), line+"\n") {
			t.Fatalf("registry lacks %q:\n%s", line, prom.String())
		}
	}
}
