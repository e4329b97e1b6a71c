// Package campaign turns a declarative list of scenarios into verdicts on
// the paper's asymptotic claims. A campaign is a JSON document naming
// scenario specs (internal/scenario — so every row dedupes through the
// (hash, seed) result cache), each optionally carrying a hypothesis: which
// measure to read (node_avg, edge_avg, worst), which growth class the paper
// claims as an upper bound (internal/fit), and optionally another scenario
// to compare against (the A/B deltas of the paper's rand-vs-det pairs).
// Executing a campaign yields a Report of per-hypothesis CONFIRMED /
// REJECTED / INCONCLUSIVE verdicts with the full model residuals attached.
//
// Hypothesis semantics follow the paper's claim shapes. `expect` is an
// upper bound: the verdict is CONFIRMED when the best-fitting growth class
// grows no faster than the expected one (a measured Θ(1) confirms an
// O(log* n) claim), REJECTED when it grows strictly faster, and
// INCONCLUSIVE when the fit's confidence gate refuses (too few rows, too
// narrow a sweep, margins too thin). `compare_to` asserts a per-row ratio
// against another scenario's measure (`op` le/ge against `ratio`, default
// ≤ 1): "randomized matching finishes on average no later than the
// deterministic rounding algorithm" is `{"compare_to": "det", "op": "le"}`.
//
// Execution is deterministic: scenarios run concurrently under one
// Parallelism budget with the same row/trial splitting as the scenario
// layer, outcomes and verdicts merge in campaign order, and MarshalStable
// output is byte-identical at every parallelism level.
package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"avgloc/internal/core"
	"avgloc/internal/fit"
	"avgloc/internal/graphstore"
	"avgloc/internal/obs"
	"avgloc/internal/resultstore"
	"avgloc/internal/scenario"
)

// MaxScenarios bounds one campaign; campaigns reach avgserve's
// unauthenticated surface, so one request's fan-out must be bounded.
const MaxScenarios = 32

// Measures a hypothesis can read from a core.Report.
const (
	MeasureNodeAvg = "node_avg"
	MeasureEdgeAvg = "edge_avg"
	MeasureWorst   = "worst"
)

// Hypothesis is one testable claim about a scenario's measured complexity.
type Hypothesis struct {
	// Measure selects the report column: node_avg (Definition 1 AVG_V),
	// edge_avg (AVG_E) or worst (the mean worst-case round count).
	Measure string `json:"measure"`
	// Expect is the claimed upper-bound growth class, fitted against the
	// sweep's realized graph sizes.
	Expect fit.Class `json:"expect,omitempty"`
	// CompareTo names another scenario of the same campaign; the claim is
	// a per-row ratio of this scenario's measure over the other's.
	CompareTo string `json:"compare_to,omitempty"`
	// CompareMeasure is the measure read on the compared scenario
	// (default: Measure). With a different measure and CompareTo pointing
	// at an identical spec, this expresses same-run gaps like Theorem
	// 17's "the node average inherits the lower bound while the edge
	// average stays O(1)" — and the identical spec dedupes to one
	// execution.
	CompareMeasure string `json:"compare_measure,omitempty"`
	// Op is the ratio comparison: "le" (default) or "ge".
	Op string `json:"op,omitempty"`
	// Ratio is the comparison threshold (default 1).
	Ratio float64 `json:"ratio,omitempty"`
	// WithinTwin claims the measured/predicted ratio against the frozen
	// model catalogue (fit.Lookup) stays inside [Min, Max] on every
	// in-range row of the sweep. The verdict is INCONCLUSIVE — never
	// CONFIRMED by default — when the catalogue has no model for the
	// scenario's (algorithm, family, measure), or when the sweep is below
	// fit's refusal gate (fewer than fit.DefaultMinRows in-range rows, or a
	// size spread under fit.DefaultMinSpread).
	WithinTwin *TwinBound `json:"within_twin,omitempty"`
}

// TwinBound is the within_twin acceptance band on the measured/predicted
// ratio: 1 means "exactly on the closed form", so e.g. {0.5, 2} accepts
// up to 2× deviation either way.
type TwinBound struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

func (h *Hypothesis) op() string {
	if h.Op == "" {
		return "le"
	}
	return h.Op
}

func (h *Hypothesis) compareMeasure() string {
	if h.CompareMeasure == "" {
		return h.Measure
	}
	return h.CompareMeasure
}

func (h *Hypothesis) ratio() float64 {
	if h.Ratio == 0 {
		return 1
	}
	return h.Ratio
}

// Item is one named scenario of a campaign.
type Item struct {
	Name       string        `json:"name"`
	Spec       scenario.Spec `json:"spec"`
	Hypothesis *Hypothesis   `json:"hypothesis,omitempty"`
}

// Campaign is the declarative document.
type Campaign struct {
	Name      string `json:"name,omitempty"`
	Scenarios []Item `json:"scenarios"`
}

// Parse strictly decodes and validates a campaign document.
func Parse(data []byte) (*Campaign, error) {
	var c Campaign
	if err := scenario.DecodeStrict(data, &c); err != nil {
		return nil, fmt.Errorf("campaign: parsing: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Validate checks the campaign: scenario count and name uniqueness, every
// spec against the registry, and every hypothesis's measure, class, ratio
// and compare_to reference.
func (c *Campaign) Validate() error {
	if len(c.Scenarios) == 0 {
		return fmt.Errorf("campaign: no scenarios")
	}
	if len(c.Scenarios) > MaxScenarios {
		return fmt.Errorf("campaign: %d scenarios, maximum %d", len(c.Scenarios), MaxScenarios)
	}
	names := make(map[string]bool, len(c.Scenarios))
	for i := range c.Scenarios {
		it := &c.Scenarios[i]
		if it.Name == "" {
			return fmt.Errorf("campaign: scenario %d has no name", i)
		}
		if names[it.Name] {
			return fmt.Errorf("campaign: duplicate scenario name %q", it.Name)
		}
		names[it.Name] = true
		if _, err := it.Spec.Normalize(); err != nil {
			return fmt.Errorf("campaign: scenario %q: %w", it.Name, err)
		}
	}
	for i := range c.Scenarios {
		it := &c.Scenarios[i]
		h := it.Hypothesis
		if h == nil {
			continue
		}
		switch h.Measure {
		case MeasureNodeAvg, MeasureEdgeAvg, MeasureWorst:
		default:
			return fmt.Errorf("campaign: scenario %q: unknown measure %q (node_avg, edge_avg, worst)", it.Name, h.Measure)
		}
		if h.Expect == "" && h.CompareTo == "" && h.WithinTwin == nil {
			return fmt.Errorf("campaign: scenario %q: hypothesis needs expect, compare_to and/or within_twin", it.Name)
		}
		if h.Expect != "" && !fit.Valid(h.Expect) {
			return fmt.Errorf("campaign: scenario %q: unknown growth class %q (one of %v)", it.Name, h.Expect, fit.Classes())
		}
		if h.CompareTo != "" {
			if h.CompareTo == it.Name {
				return fmt.Errorf("campaign: scenario %q compares to itself", it.Name)
			}
			if !names[h.CompareTo] {
				return fmt.Errorf("campaign: scenario %q compares to unknown scenario %q", it.Name, h.CompareTo)
			}
		}
		if h.CompareMeasure != "" {
			if h.CompareTo == "" {
				return fmt.Errorf("campaign: scenario %q: compare_measure without compare_to", it.Name)
			}
			switch h.CompareMeasure {
			case MeasureNodeAvg, MeasureEdgeAvg, MeasureWorst:
			default:
				return fmt.Errorf("campaign: scenario %q: unknown compare_measure %q (node_avg, edge_avg, worst)", it.Name, h.CompareMeasure)
			}
		}
		switch h.op() {
		case "le", "ge":
		default:
			return fmt.Errorf("campaign: scenario %q: unknown op %q (le, ge)", it.Name, h.Op)
		}
		if h.Ratio < 0 {
			return fmt.Errorf("campaign: scenario %q: negative ratio %v", it.Name, h.Ratio)
		}
		if w := h.WithinTwin; w != nil {
			if w.Min <= 0 {
				return fmt.Errorf("campaign: scenario %q: within_twin min %v must be positive", it.Name, w.Min)
			}
			if w.Max <= w.Min {
				return fmt.Errorf("campaign: scenario %q: within_twin max %v must exceed min %v", it.Name, w.Max, w.Min)
			}
		}
	}
	return nil
}

// Verdict is the outcome of one hypothesis.
type Verdict string

// Verdicts, in increasing severity.
const (
	Confirmed    Verdict = "CONFIRMED"
	Inconclusive Verdict = "INCONCLUSIVE"
	Rejected     Verdict = "REJECTED"
)

func severity(v Verdict) int {
	switch v {
	case Rejected:
		return 2
	case Inconclusive:
		return 1
	default:
		return 0
	}
}

// Worse returns the more severe of two verdicts, for claims that compose
// as conjunctions, such as a hypothesis carrying both a fit claim and a
// comparison claim. CONFIRMED < INCONCLUSIVE < REJECTED.
func Worse(a, b Verdict) Verdict {
	if severity(b) > severity(a) {
		return b
	}
	return a
}

// ScenarioRun is one executed scenario of a campaign: the input to
// Evaluate, and the per-scenario completion event streamed by Run and by
// avgserve's campaign endpoint.
type ScenarioRun struct {
	Index  int    `json:"index"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Cached bool   `json:"cached"`
	Err    string `json:"error,omitempty"`
	// Outcome is nil when Err is set; it is not part of the event JSON
	// (result bytes live in the store under Key).
	Outcome *scenario.Outcome `json:"-"`
}

// ScenarioResult is one scenario's line of the campaign report.
type ScenarioResult struct {
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Cached bool   `json:"cached"`
	Rows   int    `json:"rows"`
	Error  string `json:"error,omitempty"`
	// Verdict is empty for scenarios without a hypothesis (they still run
	// and cache — e.g. the reference side of a comparison).
	Verdict Verdict     `json:"verdict,omitempty"`
	Detail  string      `json:"detail,omitempty"`
	Fit     *fit.Result `json:"fit,omitempty"`
	// Twin is the frozen model's evaluation of the scenario's sweep for the
	// hypothesis measure, attached whenever the catalogue has a model —
	// with or without a within_twin claim. Recomputed purely from outcome
	// rows on every Evaluate, so cached and fresh runs carry identical
	// blocks.
	Twin *SweepEval `json:"twin,omitempty"`
}

// Report is the evaluated campaign.
type Report struct {
	Name         string           `json:"name,omitempty"`
	Scenarios    []ScenarioResult `json:"scenarios"`
	Confirmed    int              `json:"confirmed"`
	Rejected     int              `json:"rejected"`
	Inconclusive int              `json:"inconclusive"`
}

// MarshalStable renders the report as deterministic indented JSON: equal
// campaigns on equal data produce byte-identical documents at every
// parallelism level.
func (r *Report) MarshalStable() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// String renders the verdict table.
func (r *Report) String() string {
	var b strings.Builder
	name := r.Name
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(&b, "campaign %s: %d confirmed, %d rejected, %d inconclusive\n",
		name, r.Confirmed, r.Rejected, r.Inconclusive)
	nameW, verdictW := len("scenario"), len("verdict")
	for _, s := range r.Scenarios {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
		if len(string(s.Verdict)) > verdictW {
			verdictW = len(string(s.Verdict))
		}
	}
	fmt.Fprintf(&b, "  %-*s  %-*s  %s\n", nameW, "scenario", verdictW, "verdict", "detail")
	for _, s := range r.Scenarios {
		detail := s.Detail
		if s.Error != "" {
			detail = "error: " + s.Error
		}
		verdict := string(s.Verdict)
		if verdict == "" {
			verdict = "-"
		}
		fmt.Fprintf(&b, "  %-*s  %-*s  %s\n", nameW, s.Name, verdictW, verdict, detail)
	}
	return b.String()
}

// measureValue reads the hypothesis's measure from one report.
func measureValue(rep *core.Report, measure string) float64 {
	switch measure {
	case MeasureEdgeAvg:
		return rep.EdgeAvg
	case MeasureWorst:
		return rep.WorstMean
	default:
		return rep.NodeAvg
	}
}

// series extracts the (size, value) points of an outcome for a measure.
func series(out *scenario.Outcome, measure string) (xs, ys []float64) {
	for _, row := range out.Rows {
		xs = append(xs, float64(row.Nodes))
		ys = append(ys, measureValue(row.Report, measure))
	}
	return xs, ys
}

// Evaluate judges every hypothesis of the campaign against the executed
// runs (aligned by index with c.Scenarios). It is pure: equal inputs give
// equal reports, so server and CLI render identical verdicts.
func Evaluate(c *Campaign, runs []ScenarioRun) (*Report, error) {
	if len(runs) != len(c.Scenarios) {
		return nil, fmt.Errorf("campaign: %d runs for %d scenarios", len(runs), len(c.Scenarios))
	}
	byName := make(map[string]*ScenarioRun, len(runs))
	for i := range runs {
		byName[runs[i].Name] = &runs[i]
	}
	rep := &Report{Name: c.Name}
	for i := range c.Scenarios {
		it := &c.Scenarios[i]
		run := &runs[i]
		res := ScenarioResult{Name: it.Name, Key: run.Key, Cached: run.Cached, Error: run.Err}
		if run.Outcome != nil {
			res.Rows = len(run.Outcome.Rows)
		}
		if it.Hypothesis != nil {
			evalHypothesis(it.Hypothesis, run, byName, &res)
			switch res.Verdict {
			case Confirmed:
				rep.Confirmed++
			case Rejected:
				rep.Rejected++
			case Inconclusive:
				rep.Inconclusive++
			}
		}
		rep.Scenarios = append(rep.Scenarios, res)
	}
	return rep, nil
}

func evalHypothesis(h *Hypothesis, run *ScenarioRun, byName map[string]*ScenarioRun, res *ScenarioResult) {
	if run.Err != "" || run.Outcome == nil {
		res.Verdict, res.Detail = Inconclusive, "scenario did not produce an outcome"
		return
	}
	var verdict Verdict = Confirmed
	var details []string
	if h.Expect != "" {
		v, d, f := evalExpect(h, run.Outcome)
		verdict, res.Fit = Worse(verdict, v), f
		details = append(details, d)
	}
	if h.CompareTo != "" {
		v, d := evalCompare(h, run.Outcome, byName[h.CompareTo])
		verdict = Worse(verdict, v)
		details = append(details, d)
	}
	res.Twin = twinSweep(h.Measure, run.Outcome)
	if h.WithinTwin != nil {
		v, d := evalWithinTwin(h, run.Outcome, res.Twin)
		verdict = Worse(verdict, v)
		details = append(details, d)
	}
	res.Verdict, res.Detail = verdict, strings.Join(details, "; ")
}

// evalExpect fits the growth classes and compares the best fit against the
// claimed upper bound.
func evalExpect(h *Hypothesis, out *scenario.Outcome) (Verdict, string, *fit.Result) {
	xs, ys := series(out, h.Measure)
	f, err := fit.Fit(xs, ys, fit.Options{})
	if err != nil {
		return Inconclusive, fmt.Sprintf("fit failed: %v", err), nil
	}
	if !f.Conclusive {
		return Inconclusive, fmt.Sprintf("fit inconclusive: %s", f.Reason), f
	}
	if fit.Rank(f.Best) <= fit.Rank(h.Expect) {
		return Confirmed, fmt.Sprintf("%s best fit %s within expected %s (margin %.1f)",
			h.Measure, f.Best, h.Expect, f.Margin), f
	}
	return Rejected, fmt.Sprintf("%s best fit %s grows faster than expected %s (margin %.1f)",
		h.Measure, f.Best, h.Expect, f.Margin), f
}

// minCompareRows is the least number of aligned rows a ratio comparison
// accepts; a single point is no evidence for an A/B delta.
const minCompareRows = 2

// evalCompare computes the mean per-row ratio of this scenario's measure
// over the compared scenario's and tests it against the threshold.
func evalCompare(h *Hypothesis, out *scenario.Outcome, other *ScenarioRun) (Verdict, string) {
	if other == nil || other.Outcome == nil {
		return Inconclusive, fmt.Sprintf("compare_to %q did not produce an outcome", h.CompareTo)
	}
	if len(other.Outcome.Rows) != len(out.Rows) {
		return Inconclusive, fmt.Sprintf("compare_to %q has %d rows vs %d: sweeps not aligned",
			h.CompareTo, len(other.Outcome.Rows), len(out.Rows))
	}
	if len(out.Rows) < minCompareRows {
		return Inconclusive, fmt.Sprintf("only %d aligned rows, need %d", len(out.Rows), minCompareRows)
	}
	// Equal row counts are not alignment: a per-row ratio only means
	// something when row i measured the same graph size on both sides.
	for i := range out.Rows {
		if out.Rows[i].Nodes != other.Outcome.Rows[i].Nodes {
			return Inconclusive, fmt.Sprintf("compare_to %q row %d has %d nodes vs %d: sweeps not aligned",
				h.CompareTo, i, other.Outcome.Rows[i].Nodes, out.Rows[i].Nodes)
		}
	}
	var sum float64
	for i := range out.Rows {
		a := measureValue(out.Rows[i].Report, h.Measure)
		b := measureValue(other.Outcome.Rows[i].Report, h.compareMeasure())
		if b <= 0 {
			return Inconclusive, fmt.Sprintf("compare_to %q row %d has non-positive %s", h.CompareTo, i, h.compareMeasure())
		}
		sum += a / b
	}
	mean := sum / float64(len(out.Rows))
	ok := mean <= h.ratio()
	sym := "<="
	if h.op() == "ge" {
		ok = mean >= h.ratio()
		sym = ">="
	}
	target := h.CompareTo
	if h.compareMeasure() != h.Measure {
		target = fmt.Sprintf("%s %s", h.CompareTo, h.compareMeasure())
	}
	detail := fmt.Sprintf("mean %s ratio %.3f vs %s (want %s %.3g)", h.Measure, mean, target, sym, h.ratio())
	if ok {
		return Confirmed, detail
	}
	return Rejected, detail
}

// Options configures campaign execution.
type Options struct {
	// Parallelism is the total worker budget, split between concurrent
	// scenarios and each scenario's row/trial fan-out exactly like the
	// scenario layer splits rows×trials.
	Parallelism int
	// Store, if non-nil, fronts every execution: outcomes are served from
	// it byte-identically when present and written through after a run.
	Store *resultstore.Store
	// OnScenario, if non-nil, receives one completion event per scenario,
	// in campaign order, as results become available.
	OnScenario func(ScenarioRun)
	// Ctx, if non-nil, cancels the campaign: scenarios not yet started are
	// skipped (their runs report ctx's error) and running scenarios stop at
	// their next row boundary. Completed scenarios still wrote through to
	// the store, so a retry resumes from cache.
	Ctx context.Context
	// Execute, if non-nil, replaces scenario.Run on Store misses. It gets
	// the normalized spec and scenario options carrying the campaign
	// context, the per-scenario slice of the Parallelism budget and Graphs,
	// and reports whether its outcome came from a cache of its own. The
	// fleet coordinator plugs in here (one shared fleet budget), and so
	// does avgserve's job table, which owns its result store; every
	// executor is byte-identical to scenario.Run.
	Execute func(*scenario.Spec, scenario.Options) (out *scenario.Outcome, cached bool, err error)
	// Graphs, if non-nil, is the graph store scenario execution fetches
	// graphs through (-graph-cache-dir): campaign scenarios that sweep the
	// same families share builds, and a warm disk tier runs a repeat
	// campaign with zero generator invocations. Nil selects the
	// process-wide shared store.
	Graphs *graphstore.Store
}

// Run executes the campaign and evaluates its hypotheses. Scenarios with
// equal cache keys execute once (intra-campaign dedupe); distinct
// scenarios run concurrently under the Parallelism budget. The returned
// report is byte-identical (MarshalStable) at every parallelism level.
func Run(c *Campaign, opt Options) (*Report, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// Dedupe equal keys onto one execution slot. This is the only place a
	// campaign's scenarios are deduped; avgserve's /v1/campaigns runs here.
	type slot struct {
		key     string
		spec    *scenario.Spec
		outcome *scenario.Outcome
		cached  bool
		err     error
		done    chan struct{}
	}
	n := len(c.Scenarios)
	slots := make([]*slot, n) // by item
	byKey := make(map[string]*slot, n)
	var uniq []*slot
	for i := range c.Scenarios {
		norm, err := c.Scenarios[i].Spec.Normalize()
		if err != nil {
			return nil, err // Validate already checked; defensive
		}
		key, err := norm.Key()
		if err != nil {
			return nil, err
		}
		if byKey[key] == nil {
			byKey[key] = &slot{key: key, spec: norm, done: make(chan struct{})}
			uniq = append(uniq, byKey[key])
		}
		slots[i] = byKey[key]
	}

	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	exec := opt.Execute
	if exec == nil {
		exec = func(spec *scenario.Spec, o scenario.Options) (*scenario.Outcome, bool, error) {
			out, err := scenario.Run(spec, o)
			return out, false, err
		}
	}
	// The campaign span parents one campaign.scenario span per unique
	// execution slot; the slot's span travels down through the context so
	// the scenario layer (or the fleet coordinator) hangs its hierarchy
	// under it. All nil no-ops when the caller carries no span.
	campSpan := obs.FromCtx(opt.Ctx).Span("campaign.run",
		obs.A("name", c.Name), obs.A("scenarios", n), obs.A("unique", len(uniq)))
	execute := func(s *slot, parallelism int) {
		defer close(s.done)
		scenSpan := campSpan.Span("campaign.scenario", obs.A("key", s.key))
		if opt.Store != nil {
			gs := scenSpan.Span("store.get", obs.A("key", s.key))
			data, ok := opt.Store.Get(s.key)
			gs.End(obs.A("hit", ok))
			if ok {
				var out scenario.Outcome
				if err := json.Unmarshal(data, &out); err == nil {
					s.outcome, s.cached = &out, true
					scenSpan.End(obs.A("cached", true))
					return
				}
				// A corrupt cache entry falls through to a fresh run.
			}
		}
		if err := ctx.Err(); err != nil {
			s.err = err
			scenSpan.End(obs.A("error", err.Error()))
			return
		}
		out, cached, err := exec(s.spec, scenario.Options{
			Parallelism: parallelism,
			Ctx:         obs.With(ctx, scenSpan),
			Graphs:      opt.Graphs,
		})
		s.cached = cached
		if err != nil {
			s.err = err
			scenSpan.End(obs.A("error", err.Error()))
			return
		}
		s.outcome = out
		if opt.Store != nil {
			if data, err := out.MarshalStable(); err == nil {
				ps := scenSpan.Span("store.put", obs.A("key", s.key))
				opt.Store.Put(s.key, data) // a persistence failure is a future miss
				ps.End()
			}
		}
		scenSpan.End(obs.A("cached", cached))
	}

	// Scenarios split the budget with their rows × trials exactly as a
	// scenario splits it between rows and trials. The pool runs beside the
	// loop below, which streams completions in campaign order.
	poolDone := make(chan struct{})
	go func() {
		defer close(poolDone)
		core.ForEachSplit(len(uniq), opt.Parallelism, func(i, parallelism int) error {
			execute(uniq[i], parallelism) // errors stay in the slot
			return nil
		})
	}()

	runs := make([]ScenarioRun, n)
	for i := range c.Scenarios {
		s := slots[i]
		<-s.done
		runs[i] = ScenarioRun{
			Index:   i,
			Name:    c.Scenarios[i].Name,
			Key:     s.key,
			Cached:  s.cached,
			Outcome: s.outcome,
		}
		if s.err != nil {
			runs[i].Err = s.err.Error()
		}
		if opt.OnScenario != nil {
			opt.OnScenario(runs[i])
		}
	}
	<-poolDone
	rep, err := Evaluate(c, runs)
	if err != nil {
		campSpan.End(obs.A("error", err.Error()))
		return nil, err
	}
	// One twin.eval span per twin-bearing scenario: the trace records which
	// sweeps were held against a closed form and how far they deviated.
	for _, s := range rep.Scenarios {
		if s.Twin == nil {
			continue
		}
		campSpan.Span("twin.eval",
			obs.A("scenario", s.Name), obs.A("measure", s.Twin.Measure),
			obs.A("curve", s.Twin.Curve),
			obs.A("max_abs_log_ratio", s.Twin.MaxAbsLogRatio)).End()
	}
	campSpan.End(obs.A("confirmed", rep.Confirmed), obs.A("rejected", rep.Rejected),
		obs.A("inconclusive", rep.Inconclusive))
	return rep, nil
}
