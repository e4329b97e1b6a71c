package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/campaign_stream.golden")

// TestCampaignStreamGolden pins the sha256 of three /v1/campaigns NDJSON
// streams, cached flags included: campaignJSON on a fresh server, the same
// campaign repeated (every scenario a cache hit), and fleetCampaignJSON on
// a fleet server with two attached workers. Any change to the scenario
// lines, the verdict report or the cached accounting moves a hash.
func TestCampaignStreamGolden(t *testing.T) {
	var b strings.Builder
	pin := func(name string, resp *http.Response, body []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
		sum := sha256.Sum256(body)
		fmt.Fprintf(&b, "%s sha256 %s\n", name, hex.EncodeToString(sum[:]))
	}

	ts := newTestServer(t, "")
	resp, body := post(t, ts.URL+"/v1/campaigns", campaignJSON)
	pin("fresh", resp, body)
	resp, body = post(t, ts.URL+"/v1/campaigns", campaignJSON)
	pin("repeat", resp, body)

	fts, coord := newFleetServer(t)
	startFleetWorkers(t, fts.URL, 2)
	deadline := time.Now().Add(5 * time.Second)
	for coord.Workers() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers did not register")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, body = post(t, fts.URL+"/v1/campaigns", fleetCampaignJSON)
	pin("fleet", resp, body)

	got := b.String()
	golden := filepath.Join("testdata", "campaign_stream.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (rerun with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("campaign streams drifted from %s (rerun with -update if intended):\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
