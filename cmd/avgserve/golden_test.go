package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files")

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

	checkGolden(t, "campaign_stream.golden", b.String())
}

// TestMetricNamesGolden pins the names every metrics consumer reads: the
// sorted /metrics series names and /v1/metrics JSON key paths of a local
// server and of a -fleet server with one attached worker, each after one
// /v1/run. Values are not pinned; a renamed, dropped or added key is.
func TestMetricNamesGolden(t *testing.T) {
	var b strings.Builder
	names := func(setup, base string) {
		t.Helper()
		resp, body := post(t, base+"/v1/run", fleetSpecJSON)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s run: status %d: %s", setup, resp.StatusCode, body)
		}
		_, prom := get(t, base+"/metrics")
		seen := map[string]bool{}
		for _, line := range strings.Split(string(prom), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			seen[strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0]] = true
		}
		_, js := get(t, base+"/v1/metrics")
		dec := json.NewDecoder(bytes.NewReader(js))
		dec.UseNumber()
		var doc any
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("%s /v1/metrics: %v\n%s", setup, err, js)
		}
		paths := map[string]bool{}
		keyPaths(doc, "", paths)
		for _, k := range sortedKeys(seen) {
			fmt.Fprintf(&b, "%s /metrics %s\n", setup, k)
		}
		for _, k := range sortedKeys(paths) {
			fmt.Fprintf(&b, "%s /v1/metrics %s\n", setup, k)
		}
	}

	names("local", newTestServer(t, "").URL)

	fts, coord := newFleetServer(t)
	startFleetWorkers(t, fts.URL, 1)
	deadline := time.Now().Add(5 * time.Second)
	for coord.Workers() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker did not register")
		}
		time.Sleep(5 * time.Millisecond)
	}
	names("fleet", fts.URL)

	checkGolden(t, "metric_names.golden", b.String())
}

// keyPaths adds the dotted path of every object key under v to paths;
// array elements share one "[]" segment.
func keyPaths(v any, prefix string, paths map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, sub := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			paths[p] = true
			keyPaths(sub, p, paths)
		}
	case []any:
		for _, sub := range v {
			keyPaths(sub, prefix+"[]", paths)
		}
	}
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
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
		t.Fatalf("%s drifted (rerun with -update if intended):\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
