package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runsAround returns n synthetic runs of a metric: median m, each run
// offset by up to ±jitter·m in a fixed pattern.
func runsAround(m, jitter float64, n int) []float64 {
	pattern := []float64{0, 1, -1, 0.5, -0.5, 0.8, -0.8, 0.2, -0.2, 0.6, -0.6}
	out := make([]float64, n)
	for i := range out {
		out[i] = m * (1 + jitter*pattern[i%len(pattern)])
	}
	return out
}

func TestJudge(t *testing.T) {
	cases := []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"same code", runsAround(100, 0.02, 10), runsAround(100, 0.02, 10), true, 0.1, verdictWithin},
		{"small loss", runsAround(100, 0.02, 10), runsAround(105, 0.02, 10), true, 0.1, verdictWithin},
		{"loss past bound", runsAround(100, 0.02, 10), runsAround(120, 0.02, 10), true, 0.1, verdictWorse},
		{"spread past bound", runsAround(100, 0.5, 10), runsAround(100, 0.5, 10), true, 0.1, verdictUnresolved},
		{"ten pairs, all won", runsAround(100, 0.02, 10), runsAround(80, 0.02, 10), true, 0.1, verdictBetter},
		{"gain without ten pairs", runsAround(100, 0.02, 3), runsAround(80, 0.02, 3), true, 0.1, verdictWithin},
		{"higher is better, loss", runsAround(1, 0.001, 10), runsAround(0.97, 0.001, 10), false, 0.01, verdictWorse},
		{"higher is better, gain", runsAround(0.9, 0.001, 10), runsAround(0.99, 0.001, 10), false, 0.01, verdictBetter},
		// Every change run beats every parent run, though the spread is
		// wider than the bound.
		{"noisy but separated", runsAround(100, 0.2, 10), runsAround(50, 0.2, 10), true, 0.1, verdictBetter},
	}
	for _, c := range cases {
		if got, _ := judge(c.a, c.b, c.lowerBetter, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	// Eight wins in ten pairs is short of nine in ten: no gain claimed.
	a := runsAround(100, 0.01, 10)
	b := make([]float64, 10)
	for i := range b {
		b[i] = a[i] * 0.9
	}
	b[0], b[1] = a[0]*1.01, a[1]*1.01
	if got, _ := judge(a, b, true, 0.1); got == verdictBetter {
		t.Errorf("8 of 10 pairs won: %s", got)
	}
}

// TestCompareFiles drives -compare end to end on two synthetic results
// files.
func TestCompareFiles(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, latency float64) string {
		f := runsFile{Seed: 1}
		f.Workloads = append(f.Workloads, workloadRuns{Name: "paper"})
		for _, v := range runsAround(latency, 0.01, 10) {
			f.Workloads[0].Runs = append(f.Workloads[0].Runs, &result{Metrics: map[string]Stat{
				"lat_p50_ms": {Value: v}, "setup_s": {Value: 1},
			}})
		}
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("a.json", 100)
	var out, errw strings.Builder
	if code := runCompare(spec, []string{parent, write("b.json", 101)}, &out, &errw); code != 0 {
		t.Errorf("within bound: exit %d\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "lat_p50_ms") || !strings.Contains(out.String(), verdictWithin) {
		t.Errorf("missing verdict line:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare(spec, []string{parent, write("c.json", 130)}, &out, &errw); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("30%% loss: exit %d\n%s", code, out.String())
	}
	if code := runCompare(spec, []string{parent}, &out, &errw); code != 2 {
		t.Errorf("one file: exit %d", code)
	}
	if _, err := os.Stat(parent); err != nil {
		t.Fatal(err)
	}
}
