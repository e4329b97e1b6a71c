package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"avgloc/internal/fleet"
	"avgloc/internal/resultstore"
)

// newFleetServer returns an avgserve in -fleet mode with fast timeouts,
// plus its coordinator for assertions.
func newFleetServer(t *testing.T) (*httptest.Server, *fleet.Coordinator) {
	t.Helper()
	store, err := resultstore.New(64, "")
	if err != nil {
		t.Fatal(err)
	}
	coord := fleet.NewCoordinator(fleet.Config{
		ChunkTrials:      2,
		HeartbeatTimeout: 250 * time.Millisecond,
		StealAfter:       100 * time.Millisecond,
		PollInterval:     10 * time.Millisecond,
		Store:            store,
	})
	ts := httptest.NewServer(newServerCfg(serverConfig{store: store, workers: 2, par: 2, coord: coord}))
	t.Cleanup(ts.Close)
	return ts, coord
}

func startFleetWorkers(t *testing.T, base string, n int) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := &fleet.Worker{Base: base, Name: "test", Parallelism: 2, Poll: 5 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	stop := func() {
		cancel()
		wg.Wait()
	}
	t.Cleanup(stop)
	return stop
}

const fleetSpecJSON = `{"graph":"cycle","algorithm":"mis/luby","trials":5,"seed":9,"sweep":{"param":"n","values":[24,40]}}`

// TestFleetModeMatchesLocalServer: the same spec served by a plain server
// and by a fleet server with two attached workers returns byte-identical
// JSON, and the fleet server really dispatched (runs_fleet, per-worker
// chunk counters move).
func TestFleetModeMatchesLocalServer(t *testing.T) {
	plain := newTestServer(t, "")
	resp, localBody := post(t, plain.URL+"/v1/run", fleetSpecJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("local run: status %d: %s", resp.StatusCode, localBody)
	}

	ts, coord := newFleetServer(t)
	startFleetWorkers(t, ts.URL, 2)
	deadline := time.Now().Add(5 * time.Second)
	for coord.Workers() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d workers registered", coord.Workers())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, fleetBody := post(t, ts.URL+"/v1/run", fleetSpecJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet run: status %d: %s", resp.StatusCode, fleetBody)
	}
	if !bytes.Equal(fleetBody, localBody) {
		t.Fatalf("fleet response differs from local response\nfleet:\n%s\nlocal:\n%s", fleetBody, localBody)
	}

	resp, body := get(t, ts.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	var m metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics decode: %v\n%s", err, body)
	}
	if m.RunsFleet != 1 {
		t.Fatalf("runs_fleet = %d, want 1\n%s", m.RunsFleet, body)
	}
	if m.FleetWorkers != 2 || m.Fleet == nil || len(m.Fleet.Workers) != 2 {
		t.Fatalf("fleet worker count missing from metrics: %s", body)
	}
	var chunks int64
	for _, w := range m.Fleet.Workers {
		chunks += w.ChunksCompleted
	}
	if chunks == 0 || m.Fleet.ChunksCompleted == 0 {
		t.Fatalf("per-worker chunk counters did not move: %s", body)
	}
	if m.QueueCap == 0 {
		t.Fatalf("queue_cap missing from metrics: %s", body)
	}
}

// TestFleetModeFallsBackWithoutWorkers: -fleet with nobody attached must
// behave exactly like a local server.
func TestFleetModeFallsBackWithoutWorkers(t *testing.T) {
	plain := newTestServer(t, "")
	_, localBody := post(t, plain.URL+"/v1/run", fleetSpecJSON)

	ts, _ := newFleetServer(t)
	resp, body := post(t, ts.URL+"/v1/run", fleetSpecJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, localBody) {
		t.Fatalf("workerless fleet server differs from local server")
	}
	_, mbody := get(t, ts.URL+"/v1/metrics")
	var m metrics
	if err := json.Unmarshal(mbody, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunsFleet != 0 || m.RunsCompleted != 1 {
		t.Fatalf("workerless fleet run should execute locally: %s", mbody)
	}
}

// TestQueueFullReturns503RetryAfter: a full dispatch queue answers 503
// with a Retry-After hint instead of blocking the handler. The server is
// built with zero pool workers so nothing drains and the overload path is
// deterministic.
func TestQueueFullReturns503RetryAfter(t *testing.T) {
	store, err := resultstore.New(64, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServerCfg(serverConfig{store: store, workers: 0, par: 1, queueCap: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// First submit occupies the only queue slot (async endpoint: it
	// accepts without waiting for execution).
	resp, body := post(t, ts.URL+"/v1/jobs", specJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, body)
	}
	// A second, distinct spec must be rejected retryably.
	other := strings.Replace(specJSON, `"seed":5`, `"seed":6`, 1)
	resp, body = post(t, ts.URL+"/v1/jobs", other)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("503 without Retry-After header")
	}
	_, mbody := get(t, ts.URL+"/v1/metrics")
	var m metrics
	if err := json.Unmarshal(mbody, &m); err != nil {
		t.Fatal(err)
	}
	if m.QueueDepth != 1 || m.QueueCap != 1 {
		t.Fatalf("queue depth/cap not exposed: %s", mbody)
	}
}

// fleetCampaignJSON is a two-scenario campaign small enough to dispatch
// through a test fleet.
const fleetCampaignJSON = `{"name":"fleet-camp","scenarios":[
	{"name":"rand","spec":{"graph":"cycle","algorithm":"mis/luby","trials":2,"seed":7,
		"sweep":{"param":"n","values":[24,36,48]}},
		"hypothesis":{"measure":"node_avg","expect":"log","compare_to":"det","op":"le","ratio":10}},
	{"name":"det","spec":{"graph":"cycle","algorithm":"mis/det-coloring","trials":1,"seed":7,
		"sweep":{"param":"n","values":[24,36,48]}}}]}`

// TestFleetCampaignSharedBudget: a campaign on a fleet server dispatches
// every scenario through the one coordinator (shared fleet budget) and
// produces the same NDJSON stream as a local server.
func TestFleetCampaignSharedBudget(t *testing.T) {
	plain := newTestServer(t, "")
	resp, localBody := post(t, plain.URL+"/v1/campaigns", fleetCampaignJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("local campaign: status %d: %s", resp.StatusCode, localBody)
	}

	ts, coord := newFleetServer(t)
	startFleetWorkers(t, ts.URL, 2)
	deadline := time.Now().Add(5 * time.Second)
	for coord.Workers() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers did not register")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, fleetBody := post(t, ts.URL+"/v1/campaigns", fleetCampaignJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet campaign: status %d: %s", resp.StatusCode, fleetBody)
	}
	if !bytes.Equal(fleetBody, localBody) {
		t.Fatalf("fleet campaign stream differs from local\nfleet:\n%s\nlocal:\n%s", fleetBody, localBody)
	}
	if st := coord.Stats(); st.ChunksCompleted == 0 {
		t.Fatalf("campaign did not dispatch through the fleet: %+v", st)
	}
	_, mbody := get(t, ts.URL+"/v1/metrics")
	var m metrics
	if err := json.Unmarshal(mbody, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunsFleet != 2 {
		t.Fatalf("runs_fleet = %d, want 2 (both campaign scenarios): %s", m.RunsFleet, mbody)
	}
}
