// Package core is the public facade of the library: problem definitions
// with the completion-time semantics of Section 2, the Runner interface
// every algorithm is measured through, and the trial loop that validates
// outputs and aggregates the Definition 1 / Appendix A measures. The
// locality-charged algorithms (internal/locality: the orient runners and
// matching.Det) implement Runner themselves; MessagePassing adapts a
// runtime.Algorithm, and its EngineRunner lets each trial worker reuse
// one runtime.Engine.
package core

import (
	"context"
	"fmt"
	"math/rand/v2"

	"avgloc/internal/alg/matching"
	"avgloc/internal/alg/mis"
	"avgloc/internal/alg/ruling"
	"avgloc/internal/graph"
	"avgloc/internal/ids"
	"avgloc/internal/measure"
	"avgloc/internal/runtime"
	"avgloc/internal/seedmix"
)

// Problem fixes a graph problem's output kind and validator.
type Problem struct {
	Name     string
	Kind     runtime.OutputKind
	Validate func(g *graph.Graph, res *runtime.Result) error
}

// MIS is the maximal independent set problem (mis.In/Out node outputs).
var MIS = Problem{
	Name: "mis",
	Kind: runtime.NodeOutputs,
	Validate: func(g *graph.Graph, res *runtime.Result) error {
		if err := inOrOut("node", res.NodeOut); err != nil {
			return err
		}
		return graph.IsMaximalIndependentSet(g, mis.SetFromResult(res))
	},
}

// inOrOut rejects any output outside {In, Out}, the domain of MIS,
// ruling sets and matching (their packages share In = 1 and Out = 0).
// Without it, SetFromResult would read a stray value as Out.
func inOrOut(what string, outs []int32) error {
	for i, out := range outs {
		if out != mis.In && out != mis.Out {
			return fmt.Errorf("core: %s %d output %d outside {In, Out}", what, i, out)
		}
	}
	return nil
}

// RulingSet returns the (2, beta)-ruling set problem.
func RulingSet(beta int) Problem {
	return Problem{
		Name: fmt.Sprintf("ruling(2,%d)", beta),
		Kind: runtime.NodeOutputs,
		Validate: func(g *graph.Graph, res *runtime.Result) error {
			if err := inOrOut("node", res.NodeOut); err != nil {
				return err
			}
			return graph.IsRulingSet(g, ruling.SetFromResult(res), beta)
		},
	}
}

// MaximalMatching is the maximal matching problem (matching.In/Out edge
// outputs).
var MaximalMatching = Problem{
	Name: "matching",
	Kind: runtime.EdgeOutputs,
	Validate: func(g *graph.Graph, res *runtime.Result) error {
		if err := inOrOut("edge", res.EdgeOut); err != nil {
			return err
		}
		return graph.IsMaximalMatching(g, matching.SetFromResult(res))
	},
}

// Coloring returns the c-coloring problem (int32 node outputs).
func Coloring(c int) Problem {
	return Problem{
		Name: fmt.Sprintf("coloring(%d)", c),
		Kind: runtime.NodeOutputs,
		Validate: func(g *graph.Graph, res *runtime.Result) error {
			colors := make([]int, g.N())
			for v, out := range res.NodeOut {
				// An uncommitted output reads 0, a valid color: only the
				// commit ledger tells the two apart.
				if res.NodeCommit[v] < 0 {
					return fmt.Errorf("core: node %d committed no color", v)
				}
				colors[v] = int(out)
			}
			return graph.IsProperColoring(g, colors, c)
		},
	}
}

// SinklessOrientation is the sinkless orientation problem for minimum
// degree 3 (int32 edge outputs: the target node index).
var SinklessOrientation = Problem{
	Name: "sinkless",
	Kind: runtime.EdgeOutputs,
	Validate: func(g *graph.Graph, res *runtime.Result) error {
		o := graph.NewOrientation(g)
		for e := 0; e < g.M(); e++ {
			// An uncommitted output reads 0, a valid node index: only the
			// commit ledger tells the two apart.
			if res.EdgeCommit[e] < 0 {
				return fmt.Errorf("core: edge %d committed no orientation", e)
			}
			to := int(res.EdgeOut[e])
			u, v := g.Endpoints(e)
			from := u
			if to == u {
				from = v
			} else if to != v {
				return fmt.Errorf("core: edge %d points at non-endpoint %d", e, to)
			}
			if err := o.Orient(g, e, from); err != nil {
				return err
			}
		}
		return graph.IsSinkless(g, o, 3)
	},
}

// Runner runs one trial of an algorithm and returns the commit ledger. A
// deterministic algorithm ignores the seed.
type Runner interface {
	Name() string
	Run(g *graph.Graph, assignment []int64, seed uint64) (*runtime.Result, error)
}

// MessagePassing wraps a runtime.Algorithm as a Runner.
func MessagePassing(alg runtime.Algorithm) Runner {
	return mpRunner{alg: alg}
}

// EngineRunner is implemented by runners that can execute on a reusable
// runtime.Engine. Measure detects it and gives each trial worker one engine
// per graph, so the engine's arenas are shared across that worker's trials.
type EngineRunner interface {
	Runner
	RunEngine(eng *runtime.Engine, assignment []int64, seed uint64) (*runtime.Result, error)
}

type mpRunner struct{ alg runtime.Algorithm }

func (r mpRunner) Name() string { return r.alg.Name() }

func (r mpRunner) Run(g *graph.Graph, assignment []int64, seed uint64) (*runtime.Result, error) {
	return runtime.Run(g, r.alg, runtime.Config{IDs: assignment, Seed: seed})
}

func (r mpRunner) RunEngine(eng *runtime.Engine, assignment []int64, seed uint64) (*runtime.Result, error) {
	return eng.Run(r.alg, runtime.Config{IDs: assignment, Seed: seed})
}

// Report bundles the aggregated measures of a measurement run.
type Report struct {
	Graph     string
	Algorithm string
	Problem   string
	Trials    int
	// Definition 1 measures.
	NodeAvg float64
	EdgeAvg float64
	// Appendix A measures.
	ExpNode   float64
	ExpEdge   float64
	WorstMean float64
	WorstMax  float64
	// One-sided edge average (footnote 2); only for node-output problems.
	OneSidedEdgeAvg float64
	Messages        float64 // mean messages per trial (message-passing only)
	// Dist is the distribution view behind the averages: exact quantiles
	// and a log₂ histogram of per-node/per-edge expected completion times,
	// plus across-trial variance of the run-level averages.
	Dist measure.Dist
}

// MeasureOptions configures a measurement run.
type MeasureOptions struct {
	Trials int    // number of independent trials (default 1)
	Seed   uint64 // master seed for identifiers and algorithm randomness
	// Parallelism is the number of worker goroutines executing trials
	// (default 1: sequential) when Ctx carries no Budget. Every per-trial
	// random stream — the identifier permutation and the algorithm seed —
	// is derived from the master seed and the trial index alone
	// (counter-based PCG streams), and trial outcomes are merged in trial
	// order, so the Report is bit-identical for every parallelism level.
	Parallelism int
	// Ctx, if it carries a Budget (WithBudget), makes the trial pool draw
	// its workers from that budget instead of Parallelism: a scenario's
	// rows and their trials then share one budget.
	Ctx context.Context
}

// trialSeedDomain separates the algorithm-seed streams from every other
// seedmix consumer of the same master seed.
const trialSeedDomain = 0x545249414C // "TRIAL"

// trialSeed is the algorithm seed of one trial: a counter-based SplitMix64
// derivation from the master seed, independent of every other trial. A
// plain additive stride would make master seeds s and s+stride share
// shifted algorithm-seed streams; the seedmix finalizer breaks that.
func trialSeed(seed uint64, trial int) uint64 {
	return seedmix.Derive(seed, trialSeedDomain, trial)
}

// trialIDStream returns the PRNG that draws trial's identifier permutation.
// Each trial owns a distinct PCG stream keyed by the trial counter, so
// workers need no shared PRNG and trial t's identifiers do not depend on
// trials 0..t-1 having been drawn first.
func trialIDStream(seed uint64, trial int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x5D2F1A+uint64(trial)*0x9E3779B97F4A7C15))
}

// TrialOutcome is everything one trial contributes to a Report: the
// per-node and per-edge completion times plus the run-level scalars. It is
// the wire unit of distributed execution (internal/fleet): every field is a
// plain integer or a float64, and Go's JSON encoding round-trips both
// exactly, so outcomes computed on a remote worker merge into the same
// Report bytes as locally computed ones.
type TrialOutcome struct {
	Node     []int32 `json:"node"`
	Edge     []int32 `json:"edge"`
	Messages int64   `json:"messages"`
	OneSided float64 `json:"one_sided"` // mean one-sided edge time (node-output problems)
}

// ReportMeta is the graph/algorithm identity a merged Report carries and
// the sizing its aggregation needs. Chunks executed on different machines
// must agree on it — it is a pure function of (spec, row), so disagreement
// means a worker ran different code.
type ReportMeta struct {
	Graph     string `json:"graph"`
	Algorithm string `json:"algorithm"`
	Problem   string `json:"problem"`
	Nodes     int    `json:"nodes"`
	Edges     int    `json:"edges"`
}

// Meta captures the ReportMeta of a measurement target.
func Meta(g *graph.Graph, prob Problem, runner Runner) ReportMeta {
	return ReportMeta{
		Graph:     g.String(),
		Algorithm: runner.Name(),
		Problem:   prob.Name,
		Nodes:     g.N(),
		Edges:     g.M(),
	}
}

// MeasureRange runs trials [lo, hi) of runner on g and returns their
// outcomes in trial order. Trial indices are absolute: trial t draws the
// same identifier permutation and algorithm seed whether it runs in a full
// [0, trials) sweep or in a one-trial chunk on another machine, which is
// what lets a fleet partition a trial set arbitrarily and still merge
// bit-identically. opt.Trials is ignored; the range fans out over a worker
// pool on opt.Ctx's budget, or on one of opt.Parallelism tokens
// (outcome-indistinguishable from sequential). The returned error is the
// lowest-indexed trial's error.
func MeasureRange(g *graph.Graph, prob Problem, runner Runner, opt MeasureOptions, lo, hi int) ([]TrialOutcome, error) {
	if lo < 0 || hi <= lo {
		return nil, fmt.Errorf("core: invalid trial range [%d, %d)", lo, hi)
	}
	count := hi - lo
	outcomes := make([]TrialOutcome, count)
	runTrial := func(trial int, eng *runtime.Engine) (TrialOutcome, error) {
		assignment := ids.RandomPerm(g.N(), trialIDStream(opt.Seed, trial))
		var res *runtime.Result
		var err error
		if er, ok := runner.(EngineRunner); ok && eng != nil {
			res, err = er.RunEngine(eng, assignment, trialSeed(opt.Seed, trial))
		} else {
			res, err = runner.Run(g, assignment, trialSeed(opt.Seed, trial))
		}
		if err != nil {
			return TrialOutcome{}, fmt.Errorf("core: trial %d: %w", trial, err)
		}
		if err := prob.Validate(g, res); err != nil {
			return TrialOutcome{}, fmt.Errorf("core: trial %d output invalid: %w", trial, err)
		}
		// The one-sided measure reads the commit ledger directly; its error
		// must fail the trial — a swallowed error would silently contribute
		// 0 to OneSidedEdgeAvg and bias the mean toward 0.
		var oneSided float64
		if prob.Kind == runtime.NodeOutputs {
			var err error
			if oneSided, err = measure.OneSidedEdgeAvg(g, res); err != nil {
				return TrialOutcome{}, fmt.Errorf("core: trial %d: %w", trial, err)
			}
		}
		tm, err := measure.Completion(g, res, prob.Kind)
		if err != nil {
			return TrialOutcome{}, fmt.Errorf("core: trial %d: %w", trial, err)
		}
		return TrialOutcome{Node: tm.Node, Edge: tm.Edge, Messages: res.Messages, OneSided: oneSided}, nil
	}

	newEngine := func() *runtime.Engine {
		if _, ok := runner.(EngineRunner); ok {
			return runtime.NewEngine(g)
		}
		return nil
	}
	// One engine per worker: an engine's arenas are reused across the
	// trials that worker runs.
	budget, _ := BudgetFrom(opt.Ctx, opt.Parallelism)
	err := budget.ForEach(count, func() func(int) error {
		eng := newEngine()
		return func(i int) (err error) {
			outcomes[i], err = runTrial(lo+i, eng)
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	return outcomes, nil
}

// MergeTrials aggregates complete trial outcomes (trial order, covering the
// whole run) into a Report. The float accumulation order is fixed by the
// slice order, so any partition of a trial set into MeasureRange chunks —
// across goroutines, processes or machines — merges into the same Report
// as a single sequential run, bit for bit. Measure itself is implemented on
// top of it, which makes the equivalence hold by construction.
func MergeTrials(meta ReportMeta, trials []TrialOutcome) *Report {
	agg := measure.NewAgg(meta.Nodes, meta.Edges)
	var oneSidedSum, msgSum float64
	for i := range trials {
		o := &trials[i]
		agg.Add(measure.Times{Node: o.Node, Edge: o.Edge})
		msgSum += float64(o.Messages)
		oneSidedSum += o.OneSided
	}
	n := len(trials)
	rep := &Report{
		Graph:     meta.Graph,
		Algorithm: meta.Algorithm,
		Problem:   meta.Problem,
		Trials:    n,
	}
	if n == 0 {
		return rep
	}
	rep.NodeAvg = agg.NodeAvg()
	rep.EdgeAvg = agg.EdgeAvg()
	rep.ExpNode = agg.ExpNode()
	rep.ExpEdge = agg.ExpEdge()
	rep.WorstMean = agg.WorstMean()
	rep.WorstMax = agg.WorstMax()
	rep.OneSidedEdgeAvg = oneSidedSum / float64(n)
	rep.Messages = msgSum / float64(n)
	rep.Dist = agg.Dist()
	return rep
}

// Measure runs trials of runner on g, validates each output against prob,
// and aggregates the paper's complexity measures. With Parallelism > 1 the
// trials fan out over a worker pool; outcomes are merged in trial order, so
// the Report is identical to a sequential run.
func Measure(g *graph.Graph, prob Problem, runner Runner, opt MeasureOptions) (*Report, error) {
	trials := opt.Trials
	if trials <= 0 {
		trials = 1
	}
	outcomes, err := MeasureRange(g, prob, runner, opt, 0, trials)
	if err != nil {
		return nil, err
	}
	return MergeTrials(Meta(g, prob, runner), outcomes), nil
}
