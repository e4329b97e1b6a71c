package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWorkloadsSmoke drives every workload through the benchmark's own
// code at miniature scale — one short phase or a few passes, end-to-end
// and traced — so an API change or a byte drift in the measured paths
// breaks this test rather than the next benchmark run.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts avgserve and runs every workload")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %v, the benchmark runs %d workloads", names, len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Fatalf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, names[i], w.name)
		}
	}
	bin, err := buildAvgserve(root, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{workload: w.name, seed: 7, seconds: 2 * time.Second, trace: traceBoth,
				root: root, tmp: tmp, avgserve: bin, mini: true}
			res, err := runWorkload(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("checks failed: %v", res.FailedChecks)
			}
			for _, m := range spec.EndToEnd {
				if st, ok := res.Metrics[m.Name]; !ok || st.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want a positive value", m.Name, st)
				}
			}
			for _, m := range spec.PerLayer {
				if res.Layers[m.Name] != 0 {
					seen[m.Name] = true
				}
			}
			if res.OutputsSHA256 == "" || len(res.Spans) == 0 {
				t.Errorf("outputs_sha256 %q, %d spans", res.OutputsSHA256, len(res.Spans))
			}
			if line, err := res.summaryLine(spec, traceLayers1); err != nil || len(line) == 0 {
				t.Errorf("summary line: %v", err)
			}
		})
	}
	for _, m := range spec.PerLayer {
		if !seen[m.Name] {
			t.Errorf("per-layer metric %s is 0 on every workload", m.Name)
		}
	}
}
