package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// benchSpec is BENCHMARK.json: the workloads and the metrics the benchmark
// reports, with each end-to-end metric's direction and regression bound.
type benchSpec struct {
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []metricDef                  `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// extraMetrics are reported beside BENCHMARK.json's end-to-end metrics in
// the printed and saved results: the closed loops' pass time, the request
// tail where enough samples lie beyond it, and the failure share.
var extraMetrics = []metricDef{
	{Name: "pass_s", Unit: "s"},
	{Name: "lat_p99_ms", Unit: "ms"},
	{Name: "fail_ratio", Unit: "ratio"},
}

// result is one run of one workload.
type result struct {
	Workload      string             `json:"workload"`
	Seed          uint64             `json:"seed"`
	Correct       bool               `json:"correct"`
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	FailedChecks  []string           `json:"failed_checks,omitempty"`
	OutputsSHA256 string             `json:"outputs_sha256,omitempty"`
	Metrics       map[string]Stat    `json:"metrics,omitempty"`
	Layers        map[string]float64 `json:"layers,omitempty"`
	Spans         []Span             `json:"spans,omitempty"`

	runID string
}

func newResult(cfg config) *result {
	return &result{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Metrics:  make(map[string]Stat),
		runID:    fmt.Sprintf("%s-s%d-p%d", cfg.workload, cfg.seed, os.Getpid()),
	}
}

// maxReportedFailures caps the failure messages a result keeps.
const maxReportedFailures = 20

// fail records one failed operation or check.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.FailedChecks) < maxReportedFailures {
		r.FailedChecks = append(r.FailedChecks, fmt.Sprintf(format, args...))
	}
}

// checkf records one output check.
func (r *result) checkf(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// note records one workload-specific check that reported msgs.
func (r *result) note(msgs []string) {
	r.Attempted++
	if len(msgs) > 0 {
		r.fail("%s", strings.Join(msgs, "; "))
	}
}

// setE2E records the timed operations' latencies (ms), the peak RSS of
// each pass or second of the phase (MB), and the share of operations that
// were OK within the workload's limit.
func (r *result) setE2E(lat, rssMB []float64, sloOK float64) {
	latencyStats(lat, r.Metrics)
	r.Metrics["slo_ok_ratio"] = Stat{Value: sloOK, N: len(lat)}
	r.Metrics["peak_rss_mb"] = medianStat(rssMB)
}

func (r *result) setLayers(layers map[string]float64) {
	if r.Layers == nil {
		r.Layers = make(map[string]float64)
	}
	for k, v := range layers {
		r.Layers[k] = v
	}
}

// finish settles the run's verdict once every check is in.
func (r *result) finish() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	if r.Attempted > 0 {
		r.Metrics["fail_ratio"] = Stat{Value: float64(r.Failed) / float64(r.Attempted), N: r.Attempted}
	}
}

// print writes every metric of r by name with its unit, then the run's
// checks, to w.
func (r *result) print(w io.Writer, spec *benchSpec, trace traceMode) {
	if trace != traceLayers1 {
		for _, m := range append(append([]metricDef(nil), spec.EndToEnd...), extraMetrics...) {
			st, ok := r.Metrics[m.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-12s %-24s %12.4f %-6s", r.Workload, m.Name, st.Value, m.Unit)
			if st.Q1 != 0 || st.Q3 != 0 {
				fmt.Fprintf(w, " q1 %.4f q3 %.4f", st.Q1, st.Q3)
			}
			fmt.Fprintf(w, " n=%d\n", st.N)
		}
	}
	if trace != traceE2E {
		for _, m := range spec.PerLayer {
			fmt.Fprintf(w, "%-12s %-30s %14.4f %s\n", r.Workload, m.Name, r.Layers[m.Name], m.Unit)
		}
	}
	fmt.Fprintf(w, "%-12s outputs_sha256 %s\n", r.Workload, r.OutputsSHA256)
	fmt.Fprintf(w, "%-12s checks: %d attempted, %d failed\n", r.Workload, r.Attempted, r.Failed)
	for _, c := range r.FailedChecks {
		fmt.Fprintf(w, "%-12s FAILED: %s\n", r.Workload, c)
	}
}

// summaryLine is the one-line JSON result a single-workload run prints
// last: exactly BENCHMARK.json's end-to-end metrics (trace 0) or its
// per-layer metrics (trace 1).
func (r *result) summaryLine(spec *benchSpec, trace traceMode) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if trace == traceLayers1 {
		for _, m := range spec.PerLayer {
			metrics[m.Name] = value{r.Layers[m.Name], m.Unit}
		}
	} else {
		for _, m := range spec.EndToEnd {
			metrics[m.Name] = value{r.Metrics[m.Name].Value, m.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

func sha256Hex(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// resetPeakRSS restarts a process's peak resident set size (VmHWM) from
// its current resident size.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
