// Command avgperf is the repository's benchmark. It measures the shipped
// scenario, campaign and avgserve paths on four workloads, checks their
// outputs, and prints every metric by name with its unit.
//
// Run from the repository root through bench/run.sh, which builds this
// program with its build cache under .bench_build:
//
//	bash bench/run.sh -seed 42 -out results.json         # every workload, each in a child process
//	bash bench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -compare A.json B.json             # verdict per (workload, metric)
//
// With --workload the last line of standard output is one JSON object
// holding BENCHMARK.json's end-to-end metrics (--trace 0) or its per-layer
// metrics from a traced run (--trace 1). Without it, every workload runs in
// its own child process, -out receives the results as JSON and
// <out>.trace.ndjson the traced runs' spans. bench/README.md describes the
// workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// traceMode selects what a single-workload run measures.
type traceMode int

const (
	traceE2E     traceMode = 0 // end-to-end metrics, tracing off
	traceLayers1 traceMode = 1 // per-layer metrics from a traced run
	traceBoth    traceMode = 2 // both, one after the other
)

// config is one workload run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration // measured phase length
	trace    traceMode
	root     string // repository root
	tmp      string // scratch directory inside the repository
	avgserve string // avgserve binary
	mini     bool   // miniature inputs, for the smoke test
}

// workloads maps every workload name to its runner, in report order;
// served workloads need the avgserve binary.
var workloads = []struct {
	name   string
	served bool
	run    func(cfg config, res *result) error
}{
	{"paper", false, func(cfg config, res *result) error {
		p, err := newPaper(cfg.root, cfg.seed, cfg.mini)
		if err != nil {
			return err
		}
		return runClosed(p, cfg, res)
	}},
	{"sweep-large", false, func(cfg config, res *result) error {
		return runClosed(newSweepLarge(cfg.seed, cfg.mini), cfg, res)
	}},
	{"serve-miss", true, runServeMiss},
	{"serve-hit", true, runServeHit},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("avgperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload and print its result as the last line")
	seed := fs.Uint64("seed", 42, "derives every spec seed and arrival schedule")
	seconds := fs.Int("seconds", 0, "length of each workload's measured phase, in seconds (default: BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run; 2: both")
	out := fs.String("out", "", "without -workload: write the results here as JSON, and the spans to <out>.trace.ndjson")
	runs := fs.Int("runs", 1, "without -workload: runs of each workload (a gain claim under -compare needs 10)")
	compare := fs.Bool("compare", false, "compare two results files: -compare PARENT.json CHANGE.json")
	avgserve := fs.String("avgserve", "", "avgserve binary (default: built from the repository)")
	detail := fs.String("detail", "", "with -workload: also write the full result, spans included, here as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "avgperf:", err)
		return 1
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "avgperf:", err)
		return 1
	}
	if *compare {
		return runCompare(spec, fs.Args(), stdout, stderr)
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *trace < 0 || *trace > 2 || *seconds < 1 || *runs < 1 {
		fmt.Fprintln(stderr, "avgperf: -trace must be 0, 1 or 2; -seconds and -runs at least 1")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    traceMode(*trace),
		root:     root,
		tmp:      filepath.Join(root, ".bench_build", "tmp"),
		avgserve: *avgserve,
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "avgperf:", err)
		return 1
	}
	if *workload == "" {
		return runAll(cfg, spec, *runs, *out, stdout, stderr)
	}
	res, err := runWorkload(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "avgperf: %s: %v\n", cfg.workload, err)
		return 1
	}
	if *detail != "" {
		if err := writeJSON(*detail, res); err != nil {
			fmt.Fprintln(stderr, "avgperf:", err)
			return 1
		}
	}
	res.print(stdout, spec, cfg.trace)
	line, err := res.summaryLine(spec, cfg.trace)
	if err != nil {
		fmt.Fprintln(stderr, "avgperf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs cfg.workload once in this process.
func runWorkload(cfg config, logw io.Writer) (*result, error) {
	for _, w := range workloads {
		if w.name != cfg.workload {
			continue
		}
		if w.served && cfg.avgserve == "" {
			bin, err := buildAvgserve(cfg.root, logw)
			if err != nil {
				return nil, err
			}
			cfg.avgserve = bin
		}
		res := newResult(cfg)
		if err := w.run(cfg, res); err != nil {
			return nil, err
		}
		res.finish()
		return res, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// findRoot walks up from the working directory to the repository root:
// the directory holding BENCHMARK.json and cmd/avgserve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		_, e1 := os.Stat(filepath.Join(dir, "BENCHMARK.json"))
		_, e2 := os.Stat(filepath.Join(dir, "cmd", "avgserve"))
		if e1 == nil && e2 == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (BENCHMARK.json beside cmd/avgserve) above the working directory")
		}
		dir = parent
	}
}

// runsFile is the results file of runAll and the input of -compare.
type runsFile struct {
	Seed      uint64         `json:"seed"`
	Seconds   int            `json:"seconds"`
	Nproc     int            `json:"nproc"`
	Workloads []workloadRuns `json:"workloads"`
}

type workloadRuns struct {
	Name string    `json:"name"`
	Runs []*result `json:"runs"`
}

// runAll runs every workload runs times, each run in a child process so
// peak RSS is per workload, prints every metric, and saves the results.
func runAll(cfg config, spec *benchSpec, runs int, out string, stdout, stderr io.Writer) int {
	if cfg.avgserve == "" {
		bin, err := buildAvgserve(cfg.root, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "avgperf:", err)
			return 1
		}
		cfg.avgserve = bin
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "avgperf:", err)
		return 1
	}
	file := runsFile{Seed: cfg.seed, Seconds: int(cfg.seconds / time.Second), Nproc: nproc()}
	var spans []Span
	code := 0
	for _, w := range workloads {
		entry := workloadRuns{Name: w.name}
		for r := 0; r < runs; r++ {
			res, err := runChild(self, cfg, w.name, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "avgperf: %s: %v\n", w.name, err)
				code = 1
				continue
			}
			res.print(stdout, spec, traceBoth)
			if !res.Correct {
				code = 1
			}
			spans = append(spans, res.Spans...)
			res.Spans = nil
			entry.Runs = append(entry.Runs, res)
		}
		file.Workloads = append(file.Workloads, entry)
	}
	if out != "" {
		if err := writeJSON(out, file); err != nil {
			fmt.Fprintln(stderr, "avgperf:", err)
			return 1
		}
		if err := writeSpans(out+".trace.ndjson", spans); err != nil {
			fmt.Fprintln(stderr, "avgperf:", err)
			return 1
		}
	}
	return code
}

// runChild runs one workload, both end-to-end and traced, in a child
// process and returns its result. The child's report goes to logw.
func runChild(self string, cfg config, workload string, logw io.Writer) (*result, error) {
	detail, err := os.CreateTemp(cfg.tmp, "detail-*.json")
	if err != nil {
		return nil, err
	}
	detail.Close()
	defer os.Remove(detail.Name())
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.Itoa(int(cfg.seconds/time.Second)), "-trace", "2",
		"-avgserve", cfg.avgserve, "-detail", detail.Name())
	cmd.Dir = cfg.root
	cmd.Stdout, cmd.Stderr = logw, logw
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	runErr := cmd.Run()
	data, err := os.ReadFile(detail.Name())
	if err != nil || len(data) == 0 {
		return nil, fmt.Errorf("child produced no result: %v", runErr)
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeSpans writes one span per line.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
