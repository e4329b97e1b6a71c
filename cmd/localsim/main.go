// Command localsim runs one algorithm on one generated graph and prints
// every complexity measure of Definition 1 and Appendix A. Graphs and
// algorithms are resolved by name through internal/registry, so everything
// the library knows is reachable without editing this file.
//
// Usage:
//
//	localsim -graph regular -params n=1024,d=6 -alg mis/luby -trials 5
//	localsim -graph regular -params n=1024,d=6 -alg mis/luby -trials 5 -dist
//	localsim -graph caterpillar -params n=4096,spine=512 -alg mis/det-coloring
//	localsim -graph ba -params n=8192,m=3 -alg matching/randluby
//	localsim -list
//
// The flags describe a one-row scenario.Spec, measured by scenario.Run:
// the output is row 0 of avgserve's /v1/run for the same spec and -seed,
// and -trials is bounded by scenario.MaxTrials (4096).
//
// -dist additionally prints the completion-time distribution behind the
// averages: exact p50/p90/p99/max quantiles of per-node and per-edge
// expected times, a log₂ histogram, and the across-trial variance of the
// run-level averages.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"avgloc/internal/graphstore"
	"avgloc/internal/measure"
	"avgloc/internal/registry"
	"avgloc/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "localsim:", err)
		os.Exit(1)
	}
}

// parseParams turns "n=1024,d=6" into registry values.
func parseParams(s string) (registry.Values, error) {
	v := registry.Values{}
	if s == "" {
		return v, nil
	}
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("parameter %q is not key=value", kv)
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %w", kv, err)
		}
		v[key] = x
	}
	return v, nil
}

// listRegistry prints every graph family (with its parameters) and every
// algorithm entry.
func listRegistry(w io.Writer) {
	fmt.Fprintln(w, "graph families:")
	for _, f := range registry.Graphs() {
		var ps []string
		for _, p := range f.Params {
			ps = append(ps, fmt.Sprintf("%s=%g", p.Name, p.Default))
		}
		fmt.Fprintf(w, "  %-20s %s (defaults: %s)\n", f.Name, f.Doc, strings.Join(ps, ","))
	}
	fmt.Fprintln(w, "algorithms:")
	for _, a := range registry.Algorithms() {
		fmt.Fprintf(w, "  %-22s %s [problem %s]\n", a.Name, a.Doc, a.Problem)
	}
}

// run measures the one-row scenario the flags describe through
// scenario.Run, so its numbers are row 0 of avgserve's /v1/run for the
// same spec and seed.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("localsim", flag.ExitOnError)
	graphName := fs.String("graph", "regular", "graph family name (see -list)")
	paramsFlag := fs.String("params", "", "graph parameters, e.g. n=1024,d=6")
	algName := fs.String("alg", "mis/luby", "algorithm name (see -list)")
	list := fs.Bool("list", false, "list registry entries and exit")
	trials := fs.Int("trials", scenario.DefaultTrials, fmt.Sprintf("independent trials (at most %d)", scenario.MaxTrials))
	seed := fs.Uint64("seed", 1, "master seed of the scenario (graph and measurement seeds derive from it as in /v1/run)")
	parallel := fs.Int("parallel", 1, "trial parallelism (reports are bit-identical at any level)")
	graphCacheDir := fs.String("graph-cache-dir", "", "optional persistent graph artifact directory (shared with avgserve/avgworker; a warm dir skips the generator)")
	dist := fs.Bool("dist", false, "print the completion-time distribution (quantiles, log2 histogram, trial variance)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		listRegistry(w)
		return nil
	}
	params, err := parseParams(*paramsFlag)
	if err != nil {
		return err
	}
	// With -graph-cache-dir a repeat invocation loads the CSR artifact
	// instead of re-running the generator; the bytes are the same.
	var graphs *graphstore.Store
	if *graphCacheDir != "" {
		if graphs, err = graphstore.New(0, *graphCacheDir); err != nil {
			return err
		}
	}
	spec := scenario.Spec{Graph: *graphName, Params: params, Algorithm: *algName, Trials: *trials, Seed: *seed}
	out, err := scenario.Run(&spec, scenario.Options{Parallelism: *parallel, Graphs: graphs})
	if err != nil {
		return err // registry errors list every available family and algorithm
	}
	rep := out.Rows[0].Report
	fmt.Fprintf(w, "graph:      %s\n", rep.Graph)
	fmt.Fprintf(w, "algorithm:  %s (problem %s, %d trials)\n", rep.Algorithm, rep.Problem, rep.Trials)
	fmt.Fprintf(w, "AVG_V:      %.2f\n", rep.NodeAvg)
	fmt.Fprintf(w, "AVG_E:      %.2f\n", rep.EdgeAvg)
	fmt.Fprintf(w, "EXP_V:      %.2f\n", rep.ExpNode)
	fmt.Fprintf(w, "EXP_E:      %.2f\n", rep.ExpEdge)
	fmt.Fprintf(w, "E[worst]:   %.2f\n", rep.WorstMean)
	fmt.Fprintf(w, "max worst:  %.2f\n", rep.WorstMax)
	if rep.OneSidedEdgeAvg > 0 {
		fmt.Fprintf(w, "one-sided AVG_E (footnote 2): %.2f\n", rep.OneSidedEdgeAvg)
	}
	if rep.Messages > 0 {
		fmt.Fprintf(w, "messages/trial: %.0f\n", rep.Messages)
	}
	if *dist {
		printDist(w, &rep.Dist)
	}
	return nil
}

// printDist renders the distribution block of a report: the object behind
// the averages — most nodes finish early, a vanishing tail pays the worst
// case.
func printDist(w io.Writer, d *measure.Dist) {
	fmt.Fprintf(w, "node time quantiles: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
		d.NodeQ.P50, d.NodeQ.P90, d.NodeQ.P99, d.NodeQ.Max)
	fmt.Fprintf(w, "edge time quantiles: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
		d.EdgeQ.P50, d.EdgeQ.P90, d.EdgeQ.P99, d.EdgeQ.Max)
	fmt.Fprintf(w, "node log2 histogram: %s\n", histString(d.NodeHist))
	fmt.Fprintf(w, "edge log2 histogram: %s\n", histString(d.EdgeHist))
	fmt.Fprintf(w, "trial variance:      nodeAvg %.4f  edgeAvg %.4f\n", d.NodeAvgVar, d.EdgeAvgVar)
}

// histString renders non-empty log2 buckets as "[lo,hi):count" pairs.
func histString(h [measure.HistBuckets]int64) string {
	var parts []string
	for i, c := range h {
		if c == 0 {
			continue
		}
		switch {
		case i == 0:
			parts = append(parts, fmt.Sprintf("[0,1):%d", c))
		case i == measure.HistBuckets-1:
			parts = append(parts, fmt.Sprintf("[%d,∞):%d", 1<<(i-1), c))
		default:
			parts = append(parts, fmt.Sprintf("[%d,%d):%d", 1<<(i-1), 1<<i, c))
		}
	}
	if len(parts) == 0 {
		return "(empty)"
	}
	return strings.Join(parts, "  ")
}
