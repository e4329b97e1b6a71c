package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"avgloc/internal/campaign"
	"avgloc/internal/resultstore"
)

func newTestServer(t *testing.T, dir string) *httptest.Server {
	t.Helper()
	store, err := resultstore.New(64, dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServerCfg(serverConfig{store: store, workers: 2, par: 2}))
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

const specJSON = `{"graph":"regular","params":{"n":48,"d":4},"algorithm":"mis/luby","trials":2,"seed":5}`

func TestRegistryEndpoint(t *testing.T) {
	ts := newTestServer(t, "")
	resp, body := get(t, ts.URL+"/v1/registry")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var reg struct {
		Graphs []struct {
			Name string `json:"name"`
		} `json:"graphs"`
		Algorithms []struct {
			Name string `json:"name"`
		} `json:"algorithms"`
	}
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, g := range reg.Graphs {
		names[g.Name] = true
	}
	for _, want := range []string{"ba", "caterpillar", "regular", "cycle", "gnp"} {
		if !names[want] {
			t.Errorf("registry missing graph family %q", want)
		}
	}
	if len(reg.Algorithms) < 12 {
		t.Fatalf("registry lists %d algorithms, want >= 12", len(reg.Algorithms))
	}
}

// TestRunCacheBitIdentical is the acceptance check: a second identical
// request is a cache hit and returns a byte-identical report.
func TestRunCacheBitIdentical(t *testing.T) {
	ts := newTestServer(t, "")
	r1, b1 := post(t, ts.URL+"/v1/run", specJSON)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first run: status %d: %s", r1.StatusCode, b1)
	}
	if c := r1.Header.Get("X-Avgserve-Cache"); c != "miss" {
		t.Fatalf("first run cache header = %q, want miss", c)
	}
	r2, b2 := post(t, ts.URL+"/v1/run", specJSON)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("second run: status %d: %s", r2.StatusCode, b2)
	}
	if c := r2.Header.Get("X-Avgserve-Cache"); c != "hit" {
		t.Fatalf("second run cache header = %q, want hit", c)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cache hit is not byte-identical:\n%s\nvs\n%s", b1, b2)
	}

	// A reordered-field rendering of the same scenario also hits.
	reordered := `{"seed":5,"algorithm":"mis/luby","trials":2,"graph":"regular","params":{"d":4,"n":48}}`
	r3, b3 := post(t, ts.URL+"/v1/run", reordered)
	if r3.StatusCode != http.StatusOK || r3.Header.Get("X-Avgserve-Cache") != "hit" {
		t.Fatalf("reordered spec missed the cache (status %d, %q)", r3.StatusCode, r3.Header.Get("X-Avgserve-Cache"))
	}
	if !bytes.Equal(b1, b3) {
		t.Fatal("reordered spec returned different bytes")
	}

	// The report is also addressable by its key.
	key := r1.Header.Get("X-Avgserve-Key")
	if key == "" {
		t.Fatal("no X-Avgserve-Key header")
	}
	r4, b4 := get(t, ts.URL+"/v1/reports/"+key)
	if r4.StatusCode != http.StatusOK || !bytes.Equal(b1, b4) {
		t.Fatalf("report fetch by key failed: status %d", r4.StatusCode)
	}
}

func TestRunReportsContent(t *testing.T) {
	ts := newTestServer(t, "")
	_, body := post(t, ts.URL+"/v1/run", specJSON)
	var out struct {
		Hash string `json:"hash"`
		Rows []struct {
			Report struct {
				Trials  int     `json:"Trials"`
				NodeAvg float64 `json:"NodeAvg"`
			} `json:"report"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if out.Hash == "" || len(out.Rows) != 1 {
		t.Fatalf("implausible outcome: %s", body)
	}
	if out.Rows[0].Report.Trials != 2 || out.Rows[0].Report.NodeAvg <= 0 {
		t.Fatalf("implausible report: %s", body)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	ts := newTestServer(t, "")
	resp, body := post(t, ts.URL+"/v1/jobs", specJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var j struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = get(t, ts.URL+"/v1/jobs/"+j.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		if j.Status == "done" {
			break
		}
		if j.Status == "error" || time.Now().After(deadline) {
			t.Fatalf("job did not finish: %s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, result := get(t, ts.URL+"/v1/jobs/"+j.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, result)
	}
	// The async result equals the sync (cached) bytes for the same spec.
	_, syncBody := post(t, ts.URL+"/v1/run", specJSON)
	if !bytes.Equal(result, syncBody) {
		t.Fatal("async and sync results differ for the same scenario")
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, "")
	resp, body := post(t, ts.URL+"/v1/run", `{"graph":"nope","algorithm":"mis/luby"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown family: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "caterpillar") {
		t.Fatalf("error does not list available families: %s", body)
	}
	if resp, _ := post(t, ts.URL+"/v1/run", `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON accepted: %d", resp.StatusCode)
	}
	// A misspelled field must not silently run a different scenario.
	typo := `{"graph":"cycle","params":{"n":8},"algorithm":"mis/luby","trails":500,"seed":1}`
	if resp, body := post(t, ts.URL+"/v1/run", typo); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d: %s", resp.StatusCode, body)
	}
	// Nor may a valid spec with a second document appended run as its
	// first half.
	trailing := `{"graph":"cycle","params":{"n":8},"algorithm":"mis/luby","seed":1}{"trials":500}`
	if resp, body := post(t, ts.URL+"/v1/run", trailing); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing data accepted: %d: %s", resp.StatusCode, body)
	}
	if resp, _ := get(t, ts.URL+"/v1/jobs/job-999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/v1/reports/deadbeef-s1"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown report: status %d", resp.StatusCode)
	}
}

// campaignJSON is a small two-scenario campaign with one hypothesis pair:
// luby on cycles is at most log-ish and below det by a wide ratio.
const campaignJSON = `{"name":"smoke","scenarios":[
	{"name":"rand","spec":{"graph":"cycle","algorithm":"mis/luby","trials":2,"seed":7,
		"sweep":{"param":"n","values":[32,48,64,96,128]}},
		"hypothesis":{"measure":"node_avg","expect":"log","compare_to":"det","op":"le","ratio":10}},
	{"name":"det","spec":{"graph":"cycle","algorithm":"mis/det-coloring","trials":1,"seed":7,
		"sweep":{"param":"n","values":[32,48,64,96,128]}}},
	{"name":"rand-dup","spec":{"graph":"cycle","algorithm":"mis/luby","trials":2,"seed":7,
		"sweep":{"param":"n","values":[32,48,64,96,128]}}}
]}`

// parseCampaignStream splits a campaign NDJSON response into scenario
// events and the final verdict report.
func parseCampaignStream(t *testing.T, body []byte) ([]map[string]any, map[string]any) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var events []map[string]any
	var verdict map[string]any
	for _, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		switch m["type"] {
		case "scenario":
			events = append(events, m)
		case "verdict":
			verdict = m
		default:
			t.Fatalf("unknown event type in %q", l)
		}
	}
	return events, verdict
}

// TestCampaignEndpoint: POST /v1/campaigns streams one scenario line per
// item in campaign order, dedupes identical specs onto one key, and closes
// with a verdict report; a repeated submission is served from the cache
// and yields the identical verdict report.
func TestCampaignEndpoint(t *testing.T) {
	ts := newTestServer(t, "")
	resp, body := post(t, ts.URL+"/v1/campaigns", campaignJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	events, verdict := parseCampaignStream(t, body)
	if len(events) != 3 {
		t.Fatalf("got %d scenario events, want 3: %s", len(events), body)
	}
	wantNames := []string{"rand", "det", "rand-dup"}
	for i, ev := range events {
		if int(ev["index"].(float64)) != i || ev["name"] != wantNames[i] {
			t.Fatalf("event %d out of campaign order: %v", i, ev)
		}
		if ev["status"] != "done" || ev["key"] == "" {
			t.Fatalf("event %d not done: %v", i, ev)
		}
	}
	if events[0]["key"] != events[2]["key"] {
		t.Fatal("identical specs got different keys")
	}
	if events[0]["key"] == events[1]["key"] {
		t.Fatal("distinct specs share a key")
	}
	// Finished scenario results are served canonically from the store.
	for i, ev := range events {
		r, report := get(t, ts.URL+"/v1/reports/"+ev["key"].(string))
		if r.StatusCode != http.StatusOK || !strings.Contains(string(report), `"rows"`) {
			t.Fatalf("event %d result not served by key: status %d", i, r.StatusCode)
		}
	}
	if verdict == nil {
		t.Fatalf("no verdict event: %s", body)
	}
	rep := verdict["report"].(map[string]any)
	if rep["confirmed"].(float64) != 1 || rep["rejected"].(float64) != 0 {
		t.Fatalf("verdicts: %v", rep)
	}

	// The duplicate must have joined one execution: two unique runs total.
	_, mbody := get(t, ts.URL+"/v1/metrics")
	var m struct {
		RunsCompleted int64 `json:"runs_completed"`
		RunsCached    int64 `json:"runs_cached"`
	}
	if err := json.Unmarshal(mbody, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunsCompleted != 2 {
		t.Fatalf("runs_completed = %d, want 2 (intra-campaign dedupe)", m.RunsCompleted)
	}

	// Repeat: everything cached, verdict report byte-identical.
	_, body2 := post(t, ts.URL+"/v1/campaigns", campaignJSON)
	events2, verdict2 := parseCampaignStream(t, body2)
	for i, ev := range events2 {
		if ev["cached"] != true {
			t.Fatalf("repeat event %d missed the cache: %v", i, ev)
		}
	}
	v1, _ := json.Marshal(verdict["report"])
	v2JSON, _ := json.Marshal(verdict2["report"])
	// Cached flags inside the report differ by design; compare verdicts.
	var r1, r2 struct {
		Confirmed    int `json:"confirmed"`
		Rejected     int `json:"rejected"`
		Inconclusive int `json:"inconclusive"`
		Scenarios    []struct {
			Name    string `json:"name"`
			Verdict string `json:"verdict"`
			Detail  string `json:"detail"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(v1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(v2JSON, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Confirmed != r2.Confirmed || len(r1.Scenarios) != len(r2.Scenarios) {
		t.Fatal("repeat campaign changed the verdict counts")
	}
	for i := range r1.Scenarios {
		if r1.Scenarios[i] != r2.Scenarios[i] {
			t.Fatalf("repeat campaign changed scenario %d: %+v vs %+v", i, r1.Scenarios[i], r2.Scenarios[i])
		}
	}
	_, mbody = get(t, ts.URL+"/v1/metrics")
	var m2 struct {
		RunsCompleted int64 `json:"runs_completed"`
		RunsCached    int64 `json:"runs_cached"`
	}
	if err := json.Unmarshal(mbody, &m2); err != nil {
		t.Fatal(err)
	}
	if m2.RunsCompleted != 2 {
		t.Fatalf("repeat campaign executed scenarios: runs_completed %d, want still 2", m2.RunsCompleted)
	}
	if m2.RunsCached < 2 {
		t.Fatalf("repeat campaign runs_cached = %d, want >= 2", m2.RunsCached)
	}
}

// TestCampaignResponsesByteIdenticalAcrossParallelism: two fresh servers at
// different worker/parallelism settings return byte-identical campaign
// streams for the same submission.
func TestCampaignResponsesByteIdenticalAcrossParallelism(t *testing.T) {
	var bodies [][]byte
	for _, cfg := range []struct{ workers, par int }{{1, 1}, {4, 16}} {
		store, err := resultstore.New(64, "")
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(newServerCfg(serverConfig{store: store, workers: cfg.workers, par: cfg.par}))
		resp, body := post(t, ts.URL+"/v1/campaigns", campaignJSON)
		ts.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d par=%d: status %d: %s", cfg.workers, cfg.par, resp.StatusCode, body)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("campaign responses differ across parallelism:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

func TestCampaignRejectsBadRequests(t *testing.T) {
	ts := newTestServer(t, "")
	if resp, _ := post(t, ts.URL+"/v1/campaigns", `{"scenarios":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty campaign: status %d", resp.StatusCode)
	}
	bad := `{"scenarios":[{"name":"a","spec":{"graph":"cycle","algorithm":"mis/luby"},
		"hypothesis":{"measure":"latency","expect":"const"}}]}`
	resp, body := post(t, ts.URL+"/v1/campaigns", bad)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "measure") {
		t.Fatalf("bad measure: status %d: %s", resp.StatusCode, body)
	}
	if resp, _ := post(t, ts.URL+"/v1/campaigns", `not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d", resp.StatusCode)
	}
	// An unknown graph family fails the whole campaign with the catalogue.
	family := `{"scenarios":[{"name":"a","spec":{"graph":"nope","algorithm":"mis/luby"}}]}`
	resp, body = post(t, ts.URL+"/v1/campaigns", family)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "caterpillar") {
		t.Fatalf("unknown family: status %d: %s", resp.StatusCode, body)
	}
	var items []string
	for i := 0; i < campaign.MaxScenarios+1; i++ {
		items = append(items, fmt.Sprintf(`{"name":"s%d","spec":{"graph":"cycle","params":{"n":16},"algorithm":"mis/luby"}}`, i))
	}
	over := `{"scenarios":[` + strings.Join(items, ",") + `]}`
	resp, body = post(t, ts.URL+"/v1/campaigns", over)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), fmt.Sprintf("maximum %d", campaign.MaxScenarios)) {
		t.Fatalf("oversized campaign: status %d: %s", resp.StatusCode, body)
	}
}

// TestMetricsEndpoint: the counters move with traffic — a miss then a hit.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, "")
	read := func() metrics {
		t.Helper()
		_, body := get(t, ts.URL+"/v1/metrics")
		var m metrics
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("bad metrics %s: %v", body, err)
		}
		return m
	}
	m0 := read()
	if m0.JobsTotal != 0 || m0.RunsCompleted != 0 {
		t.Fatalf("fresh server has traffic: %+v", m0)
	}
	post(t, ts.URL+"/v1/run", specJSON)
	m1 := read()
	if m1.RunsCompleted != 1 || m1.RunsCached != 0 || m1.JobsTotal != 1 {
		t.Fatalf("after one run: %+v", m1)
	}
	post(t, ts.URL+"/v1/run", specJSON)
	m2 := read()
	if m2.RunsCompleted != 1 || m2.RunsCached != 1 || m2.Store.Hits < 1 {
		t.Fatalf("after repeat run: %+v", m2)
	}
	if m2.InFlight != 0 {
		t.Fatalf("idle server reports %d in-flight jobs", m2.InFlight)
	}
}

// TestJobPruning bounds the job index: finished jobs beyond the retention
// cap are forgotten while the newest stay pollable.
func TestJobPruning(t *testing.T) {
	store, err := resultstore.New(64, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServerCfg(serverConfig{store: store, workers: 1, par: 1})
	srv.retain = 3
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// First run computes; the rest are cache hits, each registering a job.
	var first string
	for i := 0; i < 8; i++ {
		resp, body := post(t, ts.URL+"/v1/jobs", specJSON)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, body)
		}
		var j struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = j.ID
			// Wait for the computing job so later submissions are hits.
			deadline := time.Now().Add(30 * time.Second)
			for {
				_, b := get(t, ts.URL+"/v1/jobs/"+j.ID)
				if strings.Contains(string(b), `"done"`) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("first job never finished: %s", b)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}
	srv.mu.Lock()
	kept := len(srv.jobs)
	srv.mu.Unlock()
	if kept > 3 {
		t.Fatalf("job index holds %d entries, want <= retain=3", kept)
	}
	if resp, _ := get(t, ts.URL+"/v1/jobs/"+first); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pruned job still served: status %d", resp.StatusCode)
	}
}

// TestOversizedScenarioRejected: graph families carry size caps so one
// request cannot allocate unbounded memory.
func TestOversizedScenarioRejected(t *testing.T) {
	ts := newTestServer(t, "")
	huge := `{"graph":"regular","params":{"n":1000000000,"d":4},"algorithm":"mis/luby","seed":1}`
	resp, body := post(t, ts.URL+"/v1/run", huge)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized scenario: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "maximum") {
		t.Fatalf("error should mention the maximum: %s", body)
	}
}

// TestPersistentCacheAcrossRestart runs a scenario, restarts the server on
// the same cache directory, and checks the fresh server serves the same
// bytes as a hit.
func TestPersistentCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ts1 := newTestServer(t, dir)
	r1, b1 := post(t, ts1.URL+"/v1/run", specJSON)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", r1.StatusCode, b1)
	}
	ts1.Close()

	ts2 := newTestServer(t, dir)
	r2, b2 := post(t, ts2.URL+"/v1/run", specJSON)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", r2.StatusCode, b2)
	}
	if c := r2.Header.Get("X-Avgserve-Cache"); c != "hit" {
		t.Fatalf("restarted server cache header = %q, want hit", c)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("restarted server served different bytes")
	}
}
