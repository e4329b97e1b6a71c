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
// -dist additionally prints the completion-time distribution behind the
// averages: exact p50/p90/p99/max quantiles of per-node and per-edge
// expected times, a log₂ histogram, and the across-trial variance of the
// run-level averages.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"avgloc/internal/core"
	"avgloc/internal/graphstore"
	"avgloc/internal/measure"
	"avgloc/internal/registry"
)

func main() {
	if err := run(); err != nil {
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
func listRegistry() {
	fmt.Println("graph families:")
	for _, f := range registry.Graphs() {
		var ps []string
		for _, p := range f.Params {
			ps = append(ps, fmt.Sprintf("%s=%g", p.Name, p.Default))
		}
		fmt.Printf("  %-20s %s (defaults: %s)\n", f.Name, f.Doc, strings.Join(ps, ","))
	}
	fmt.Println("algorithms:")
	for _, a := range registry.Algorithms() {
		fmt.Printf("  %-22s %s [problem %s]\n", a.Name, a.Doc, a.Problem)
	}
}

func run() error {
	graphName := flag.String("graph", "regular", "graph family name (see -list)")
	paramsFlag := flag.String("params", "", "graph parameters, e.g. n=1024,d=6")
	algName := flag.String("alg", "mis/luby", "algorithm name (see -list)")
	list := flag.Bool("list", false, "list registry entries and exit")
	trials := flag.Int("trials", 3, "independent trials")
	seed := flag.Uint64("seed", 1, "master seed")
	parallel := flag.Int("parallel", 1, "trial parallelism (reports are bit-identical at any level)")
	graphCacheDir := flag.String("graph-cache-dir", "", "optional persistent graph artifact directory (shared with avgserve/avgworker; a warm dir skips the generator)")
	dist := flag.Bool("dist", false, "print the completion-time distribution (quantiles, log2 histogram, trial variance)")
	flag.Parse()

	if *list {
		listRegistry()
		return nil
	}

	fam, err := registry.FindGraph(*graphName)
	if err != nil {
		return err // the registry error lists every available family
	}
	entry, err := registry.FindAlgorithm(*algName)
	if err != nil {
		return err // the registry error lists every available algorithm
	}

	params, err := parseParams(*paramsFlag)
	if err != nil {
		return err
	}
	// The graph comes from the content-addressed store under the same seed
	// pair the direct build always used, so the bytes are unchanged; with
	// -graph-cache-dir a repeat invocation loads the CSR artifact instead of
	// re-running the generator.
	gs := graphstore.Shared()
	if *graphCacheDir != "" {
		if gs, err = graphstore.New(0, *graphCacheDir); err != nil {
			return err
		}
	}
	g, err := gs.Get(context.Background(), fam.Name, params, *seed, 99)
	if err != nil {
		return err
	}

	runner, problem := entry.New()
	rep, err := core.Measure(g, problem, runner, core.MeasureOptions{
		Trials: *trials, Seed: *seed, Parallelism: *parallel,
	})
	if err != nil {
		return err
	}
	fmt.Printf("graph:      %s\n", rep.Graph)
	fmt.Printf("algorithm:  %s (problem %s, %d trials)\n", rep.Algorithm, rep.Problem, rep.Trials)
	fmt.Printf("AVG_V:      %.2f\n", rep.NodeAvg)
	fmt.Printf("AVG_E:      %.2f\n", rep.EdgeAvg)
	fmt.Printf("EXP_V:      %.2f\n", rep.ExpNode)
	fmt.Printf("EXP_E:      %.2f\n", rep.ExpEdge)
	fmt.Printf("E[worst]:   %.2f\n", rep.WorstMean)
	fmt.Printf("max worst:  %.2f\n", rep.WorstMax)
	if rep.OneSidedEdgeAvg > 0 {
		fmt.Printf("one-sided AVG_E (footnote 2): %.2f\n", rep.OneSidedEdgeAvg)
	}
	if rep.Messages > 0 {
		fmt.Printf("messages/trial: %.0f\n", rep.Messages)
	}
	if *dist {
		printDist(&rep.Dist)
	}
	return nil
}

// printDist renders the distribution block of a report: the object behind
// the averages — most nodes finish early, a vanishing tail pays the worst
// case.
func printDist(d *measure.Dist) {
	fmt.Printf("node time quantiles: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
		d.NodeQ.P50, d.NodeQ.P90, d.NodeQ.P99, d.NodeQ.Max)
	fmt.Printf("edge time quantiles: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
		d.EdgeQ.P50, d.EdgeQ.P90, d.EdgeQ.P99, d.EdgeQ.Max)
	fmt.Printf("node log2 histogram: %s\n", histString(d.NodeHist))
	fmt.Printf("edge log2 histogram: %s\n", histString(d.EdgeHist))
	fmt.Printf("trial variance:      nodeAvg %.4f  edgeAvg %.4f\n", d.NodeAvgVar, d.EdgeAvgVar)
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
