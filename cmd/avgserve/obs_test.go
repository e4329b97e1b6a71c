package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"avgloc/internal/resultstore"
)

// promValue extracts one un-labelled series value from a Prometheus text
// exposition body.
func promValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in exposition:\n%s", name, body)
	return 0
}

// TestPrometheusEndpoint: GET /metrics serves Prometheus text whose
// counters agree with the legacy /v1/metrics JSON after real traffic.
func TestPrometheusEndpoint(t *testing.T) {
	ts := newTestServer(t, "")
	post(t, ts.URL+"/v1/run", specJSON)
	post(t, ts.URL+"/v1/run", specJSON) // repeat: a cached run

	resp, raw := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := string(raw)
	if !strings.Contains(body, "# TYPE avg_runs_completed_total counter") {
		t.Fatalf("missing TYPE line:\n%s", body)
	}

	_, jraw := get(t, ts.URL+"/v1/metrics")
	var m metrics
	if err := json.Unmarshal(jraw, &m); err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		prom string
		json int64
	}{
		{"avg_jobs_total", m.JobsTotal},
		{"avg_runs_completed_total", m.RunsCompleted},
		{"avg_runs_cached_total", m.RunsCached},
		{"avg_store_hits_total", m.Store.Hits},
		{"avg_store_misses_total", m.Store.Misses},
		{"avg_store_puts_total", m.Store.Puts},
	}
	for _, p := range pairs {
		if got := promValue(t, body, p.prom); int64(got) != p.json {
			t.Errorf("%s = %v, JSON says %d", p.prom, got, p.json)
		}
	}
	if m.RunsCompleted != 1 || m.RunsCached != 1 {
		t.Fatalf("unexpected traffic: %+v", m)
	}
	if got := promValue(t, body, "avg_run_seconds_count"); got != 1 {
		t.Errorf("avg_run_seconds_count = %v, want 1 (one executed run)", got)
	}
}

// TestMetricsHammer drives both metrics endpoints from many goroutines
// while a concurrent campaign executes — under -race this is the atomicity
// audit of every migrated counter.
func TestMetricsHammer(t *testing.T) {
	ts := newTestServer(t, "")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				get(t, ts.URL+"/v1/metrics")
				get(t, ts.URL+"/metrics")
			}
		}()
	}
	var items []string
	for i := 0; i < 6; i++ {
		items = append(items, fmt.Sprintf(`{"name":"s%d","spec":{"graph":"cycle","params":{"n":32},"algorithm":"mis/luby","trials":2,"seed":%d}}`, i, i))
	}
	camp := `{"scenarios":[` + strings.Join(items, ",") + `]}`
	for round := 0; round < 3; round++ {
		resp, body := post(t, ts.URL+"/v1/campaigns", camp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("campaign: status %d: %s", resp.StatusCode, body)
		}
	}
	close(stop)
	wg.Wait()

	_, jraw := get(t, ts.URL+"/v1/metrics")
	var m metrics
	if err := json.Unmarshal(jraw, &m); err != nil {
		t.Fatal(err)
	}
	// 6 unique specs executed once; rounds 2 and 3 were cache hits.
	if m.RunsCompleted != 6 {
		t.Fatalf("runs_completed = %d, want 6 (%+v)", m.RunsCompleted, m)
	}
	if m.RunsCached != 12 {
		t.Fatalf("runs_cached = %d, want 12 (%+v)", m.RunsCached, m)
	}
}

// TestTraceDirByteIdentity: a traced server serves byte-identical results
// to an untraced one and leaves a readable artifact behind.
func TestTraceDirByteIdentity(t *testing.T) {
	plain := newTestServer(t, "")
	_, want := post(t, plain.URL+"/v1/run", specJSON)

	dir := t.TempDir()
	store, err := resultstore.New(64, "")
	if err != nil {
		t.Fatal(err)
	}
	traced := httptest.NewServer(newServerCfg(serverConfig{store: store, workers: 2, par: 2, traceDir: dir}))
	t.Cleanup(traced.Close)
	resp, got := post(t, traced.URL+"/v1/run", specJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced run: status %d: %s", resp.StatusCode, got)
	}
	if string(got) != string(want) {
		t.Fatalf("traced response differs from untraced")
	}

	files, err := filepath.Glob(filepath.Join(dir, "*.trace.ndjson"))
	if err != nil || len(files) != 1 {
		t.Fatalf("trace artifacts = %v (err %v), want exactly one", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 3 {
		t.Fatalf("artifact too small: %d lines", len(lines))
	}
	var header struct {
		Type string `json:"type"`
		Name string `json:"name"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil || header.Type != "trace" || header.Name != "avgserve.job" {
		t.Fatalf("bad header %q (err %v)", lines[0], err)
	}
	found := map[string]bool{}
	for _, l := range lines[1:] {
		var rec struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("bad line %q: %v", l, err)
		}
		found[rec.Name] = true
	}
	for _, want := range []string{"request", "scenario.run", "scenario.row", "store.put"} {
		if !found[want] {
			t.Errorf("artifact missing %s span (have %v)", want, found)
		}
	}
}

// TestPprofMounting: /debug/pprof/ is 404 by default and served with the
// pprof option on.
func TestPprofMounting(t *testing.T) {
	off := newTestServer(t, "")
	resp, _ := get(t, off.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: status %d, want 404", resp.StatusCode)
	}

	store, err := resultstore.New(64, "")
	if err != nil {
		t.Fatal(err)
	}
	on := httptest.NewServer(newServerCfg(serverConfig{store: store, workers: 1, par: 1, pprof: true}))
	t.Cleanup(on.Close)
	resp, body := get(t, on.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof on: status %d body %.80s", resp.StatusCode, body)
	}
}
