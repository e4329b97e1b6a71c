package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare, per (workload, end-to-end metric).
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
)

// minClaimPairs is the least number of run pairs a "better" verdict rests on.
const minClaimPairs = 10

// judge compares the change's runs b against the parent's runs a of one
// metric. Pair i is (a[i], b[i]).
//
//   - better: at least minClaimPairs pairs, the change wins at least nine
//     in ten of them (ties count for neither), and the medians differ by
//     more than the parent's quartile spread; or every change run reads
//     better than every parent run;
//   - unresolved: otherwise, when either side's quartile spread, as a share
//     of its median, exceeds bound;
//   - worse: the change's median is worse than the parent's by more than
//     bound, as a share of the parent's median;
//   - within-bound: everything else.
func judge(a, b []float64, lowerBetter bool, bound float64) (string, float64) {
	sa, sb := sortedCopy(a), sortedCopy(b)
	ma, mb := quantile(sa, 0.5), quantile(sb, 0.5)
	// worseBy is the change's loss as a share of the parent's median;
	// negative is a gain.
	loss := mb - ma
	if !lowerBetter {
		loss = ma - mb
	}
	var worseBy float64
	switch {
	case ma != 0:
		worseBy = loss / math.Abs(ma)
	case loss != 0:
		worseBy = math.Inf(int(math.Copysign(1, loss)))
	}
	beats := func(x, y float64) bool { // x reads better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if beats(b[i], a[i]) {
			wins++
		}
	}
	spreadA := quantile(sa, 0.75) - quantile(sa, 0.25)
	if pairs >= minClaimPairs {
		if 10*wins >= 9*pairs && worseBy < 0 && math.Abs(mb-ma) > spreadA {
			return verdictBetter, worseBy
		}
		if len(sa) > 0 && len(sb) > 0 && beats(worstOf(sb, lowerBetter), bestOf(sa, lowerBetter)) {
			return verdictBetter, worseBy
		}
	}
	if relSpread(sa) > bound || relSpread(sb) > bound {
		return verdictUnresolved, worseBy
	}
	if worseBy > bound {
		return verdictWorse, worseBy
	}
	return verdictWithin, worseBy
}

// relSpread is a sorted sample's quartile spread as a share of its median.
func relSpread(s []float64) float64 {
	m := quantile(s, 0.5)
	if m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / math.Abs(m)
}

func worstOf(s []float64, lowerBetter bool) float64 {
	if lowerBetter {
		return s[len(s)-1]
	}
	return s[0]
}

func bestOf(s []float64, lowerBetter bool) float64 {
	if lowerBetter {
		return s[0]
	}
	return s[len(s)-1]
}

// runCompare prints a verdict per (workload, end-to-end metric) for two
// results files and exits non-zero on any worse or unresolved verdict.
func runCompare(spec *benchSpec, files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "avgperf: -compare needs two results files: PARENT.json CHANGE.json")
		return 2
	}
	var sides [2]runsFile
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintln(stderr, "avgperf:", err)
			return 1
		}
		if err := json.Unmarshal(data, &sides[i]); err != nil {
			fmt.Fprintf(stderr, "avgperf: %s: %v\n", f, err)
			return 1
		}
	}
	values := func(f *runsFile, workload, metric string) []float64 {
		var out []float64
		for _, w := range f.Workloads {
			if w.Name != workload {
				continue
			}
			for _, r := range w.Runs {
				if st, ok := r.Metrics[metric]; ok {
					out = append(out, st.Value)
				}
			}
		}
		return out
	}
	code := 0
	fmt.Fprintf(stdout, "%-12s %-14s %12s %12s %9s %6s  %s\n", "workload", "metric", "parent", "change", "worse_by", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(&sides[0], w.name, m.Name), values(&sides[1], w.name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, worseBy := judge(a, b, m.Better == "lower", m.Bound)
			if v == verdictWorse || v == verdictUnresolved {
				code = 1
			}
			fmt.Fprintf(stdout, "%-12s %-14s %12.4f %12.4f %+8.2f%% %5.0f%%  %s\n",
				w.name, m.Name, quantile(sortedCopy(a), 0.5), quantile(sortedCopy(b), 0.5), 100*worseBy, 100*m.Bound, v)
		}
	}
	return code
}
