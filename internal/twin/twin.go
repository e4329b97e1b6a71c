// Package twin keeps a registry-keyed catalogue of analytical models:
// closed-form curves f(n, Δ) per (algorithm, graph family, measure) with
// fitted-once scale constants and validity ranges, evaluated beside every
// measured sweep row. Where internal/fit asks "which growth class does
// this sweep belong to?", the twin asks the sharper question "does this
// sweep sit where the paper's closed form says it should?" — each row gets
// a predicted value, a measured/predicted ratio, and the sweep gets a
// worst-deviation summary (max |log₂ ratio|, worst row flagged).
//
// The twin is pure observability: nothing in this package changes what is
// measured, and callers attach its evaluations beside reports (campaign
// results, harness tables, localsim output) without touching measured
// bytes. The campaign layer closes the loop with the within_twin
// hypothesis form: the measured/predicted ratio must stay inside a bound
// across the sweep, with the same refusal discipline as fit's confidence
// gate (minimum rows, minimum size spread) so a claim is never "confirmed"
// by a sweep that could not have rejected it.
package twin

import (
	"fmt"
	"math"
	"sync/atomic"

	"avgloc/internal/core"
	"avgloc/internal/fit"
	"avgloc/internal/obs"
	"avgloc/internal/registry"
)

// Curve names one closed-form shape. Every curve is evaluated as
// A + B·f(n, Δ) with f clamped ≥ 1 (except Const, which is A alone), the
// same scale discipline as fit's candidate classes.
type Curve string

// The curve shapes of the paper's closed-form bounds. MinLogDLogLogN is
// the piecewise-min form of the sinkless-orientation headline
// O(min(log Δ, log log n)); LogDelta is the Δ-capped form on its own.
const (
	Const          Curve = "const"            // A
	LogStar        Curve = "logstar"          // A + B·log* n
	LogLog         Curve = "loglog"           // A + B·log₂ log₂ n
	Log            Curve = "log"              // A + B·log₂ n
	LogDelta       Curve = "logd"             // A + B·log₂ Δ
	MinLogDLogLogN Curve = "min_logd_loglogn" // A + B·min(log₂ Δ, log₂ log₂ n)
)

// Curves returns every curve shape.
func Curves() []Curve {
	return []Curve{Const, LogStar, LogLog, Log, LogDelta, MinLogDLogLogN}
}

// Measures a twin model can predict.
// The names are the campaign hypothesis vocabulary (internal/campaign).
func Measures() []string { return []string{"node_avg", "edge_avg", "worst"} }

// MeasureValue reads a measure by its campaign name from a report.
func MeasureValue(rep *core.Report, measure string) (float64, bool) {
	switch measure {
	case "node_avg":
		return rep.NodeAvg, true
	case "edge_avg":
		return rep.EdgeAvg, true
	case "worst":
		return rep.WorstMean, true
	}
	return 0, false
}

// Model is one catalogue entry: the closed form the paper predicts for an
// (algorithm, family, measure) triple, with scale constants fitted once
// against the shipped campaign's quick-scale sweeps and a validity range
// outside which no prediction is claimed.
type Model struct {
	Algorithm string  `json:"algorithm"`
	Family    string  `json:"family"`
	Measure   string  `json:"measure"`
	Curve     Curve   `json:"curve"`
	A         float64 `json:"a"`
	B         float64 `json:"b,omitempty"`
	// NMin/NMax bound the realized graph sizes the model claims to
	// predict; rows outside are skipped (counted, never judged).
	NMin float64 `json:"n_min,omitempty"`
	NMax float64 `json:"n_max,omitempty"`
	// Note points at the paper statement behind the curve.
	Note string `json:"note,omitempty"`
}

// loglog2 is the clamped log₂ log₂ n term shared by LogLog and the
// piecewise-min form.
func loglog2(n float64) float64 {
	return math.Max(math.Log2(math.Max(math.Log2(math.Max(n, 2)), 1)), 1)
}

// logd2 is the clamped log₂ Δ term; Δ below 2 reads as the floor 1.
func logd2(delta float64) float64 {
	return math.Max(math.Log2(math.Max(delta, 2)), 1)
}

// Predict evaluates the model's closed form at graph size n and maximum
// degree delta. Curves that do not use Δ ignore it.
func (m *Model) Predict(n, delta float64) float64 {
	switch m.Curve {
	case Const:
		return m.A
	case LogStar:
		return m.A + m.B*fit.LogStarN(math.Max(n, 2))
	case LogLog:
		return m.A + m.B*loglog2(n)
	case Log:
		return m.A + m.B*math.Max(math.Log2(math.Max(n, 2)), 1)
	case LogDelta:
		return m.A + m.B*logd2(delta)
	case MinLogDLogLogN:
		return m.A + m.B*math.Min(logd2(delta), loglog2(n))
	}
	return 0
}

// catalogue holds the shipped models. Scale constants are fitted once
// against campaigns/paper.json at its quick scale (seed 42) — see the
// README's "Analytical twin" section for the calibration procedure — and
// are never refitted at evaluation time: a drifting measurement must show
// up as a drifting ratio, not be absorbed by a fresh fit.
var catalogue = []Model{
	{
		Algorithm: "ruling/rand22", Family: "regular", Measure: "node_avg",
		Curve: Const, A: 3.41, NMin: 32, NMax: 1 << 20,
		Note: "Thm 2: (2,2)-ruling sets have node-averaged complexity O(1)",
	},
	{
		Algorithm: "matching/randluby", Family: "regular", Measure: "edge_avg",
		Curve: Const, A: 21.56, NMin: 32, NMax: 1 << 20,
		Note: "Thm 4: randomized maximal matching has edge-averaged complexity O(1)",
	},
	{
		Algorithm: "mis/luby", Family: "cycle", Measure: "node_avg",
		Curve: Const, A: 1.97, NMin: 32, NMax: 1 << 20,
		Note: "[Feu20] via §3: randomized MIS on cycles is node-averaged O(1)",
	},
	{
		Algorithm: "mis/det-coloring", Family: "cycle", Measure: "node_avg",
		Curve: LogStar, A: 0, B: 4.65, NMin: 32, NMax: 1 << 20,
		Note: "[Feu20]: deterministic MIS on cycles is node-averaged Θ(log* n)",
	},
	{
		Algorithm: "orient/rand-marking", Family: "regular", Measure: "node_avg",
		Curve: MinLogDLogLogN, A: 0, B: 1.53, NMin: 32, NMax: 1 << 20,
		Note: "§3.3 headline: sinkless orientation is node-averaged O(min(log Δ, log log n))",
	},
}

// Models returns a copy of the catalogue.
func Models() []Model { return append([]Model(nil), catalogue...) }

// Lookup finds the catalogue model of an (algorithm, family, measure)
// triple. A miss is the expected answer for most pairs — callers degrade
// to "no twin model", never to an error.
func Lookup(algorithm, family, measure string) (*Model, bool) {
	for i := range catalogue {
		m := &catalogue[i]
		if m.Algorithm == algorithm && m.Family == family && m.Measure == measure {
			return m, true
		}
	}
	return nil, false
}

// DeltaOf derives the maximum degree Δ from a graph family's effective
// parameters: the d parameter where the family declares one, the known
// constant for degree-fixed families. Families whose Δ is not derivable
// report false — catalogue models only exist where it is.
func DeltaOf(family string, params registry.Values) (float64, bool) {
	if d, ok := params["d"]; ok && d > 0 {
		return d, true
	}
	switch family {
	case "cycle":
		return 2, true
	case "path":
		return 2, true
	}
	return 0, false
}

// Point is one measured sweep row handed to EvalSweep.
type Point struct {
	N        float64
	Delta    float64
	Measured float64
}

// RowEval is one row's prediction beside its measurement.
type RowEval struct {
	N         float64 `json:"n"`
	Measured  float64 `json:"measured"`
	Predicted float64 `json:"predicted"`
	// Ratio is measured/predicted: 1 means the row sits exactly on the
	// closed form, 2 means the measurement is twice the prediction.
	Ratio float64 `json:"ratio"`
}

// SweepEval is the twin's verdict-ready summary of one sweep: per-row
// predictions and the worst deviation across the sweep.
type SweepEval struct {
	Algorithm string    `json:"algorithm"`
	Family    string    `json:"family"`
	Measure   string    `json:"measure"`
	Curve     Curve     `json:"curve"`
	Note      string    `json:"note,omitempty"`
	Rows      []RowEval `json:"rows"`
	// MaxAbsLogRatio is max over rows of |log₂(measured/predicted)|: 0
	// means every row sits on the curve, 1 means some row is off by 2×.
	MaxAbsLogRatio float64 `json:"max_abs_log_ratio"`
	// WorstRow indexes the row attaining MaxAbsLogRatio.
	WorstRow int `json:"worst_row"`
	// OutOfRange counts rows outside the model's validity range, skipped
	// rather than judged.
	OutOfRange int `json:"out_of_range,omitempty"`
}

// ratioEps floors a ratio before taking its log so a degenerate
// measurement cannot produce ±Inf (which JSON cannot carry).
const ratioEps = 1e-12

// EvalSweep evaluates the catalogue model of (algorithm, family, measure)
// beside every point of a sweep. The second return is false — and the
// no-model counter moves — when the catalogue has no such model.
func EvalSweep(algorithm, family, measure string, pts []Point) (*SweepEval, bool) {
	m, ok := Lookup(algorithm, family, measure)
	if !ok {
		twinStats.noModel.Add(1)
		return nil, false
	}
	ev := &SweepEval{Algorithm: algorithm, Family: family, Measure: measure, Curve: m.Curve, Note: m.Note}
	worstAbs := -1.0
	for _, p := range pts {
		if (m.NMin > 0 && p.N < m.NMin) || (m.NMax > 0 && p.N > m.NMax) {
			ev.OutOfRange++
			continue
		}
		pred := m.Predict(p.N, p.Delta)
		if pred <= 0 {
			ev.OutOfRange++
			continue
		}
		ratio := p.Measured / pred
		abs := math.Abs(math.Log2(math.Max(ratio, ratioEps)))
		if abs > worstAbs {
			worstAbs, ev.WorstRow = abs, len(ev.Rows)
		}
		ev.Rows = append(ev.Rows, RowEval{N: p.N, Measured: p.Measured, Predicted: pred, Ratio: ratio})
	}
	if worstAbs >= 0 {
		ev.MaxAbsLogRatio = worstAbs
	}
	twinStats.evals.Add(1)
	twinStats.rows.Add(int64(len(ev.Rows)))
	observeMax(ev.MaxAbsLogRatio)
	return ev, true
}

// twinStats is the process-wide deviation telemetry behind the avg_twin_*
// metrics: every EvalSweep in the process moves it, so a server's
// /v1/metrics reports how far its campaigns sit from theory.
var twinStats struct {
	evals   atomic.Int64
	rows    atomic.Int64
	noModel atomic.Int64
	// maxBits holds the float64 bits of the largest |log₂ ratio| observed
	// since process start (monotone, CAS-updated).
	maxBits atomic.Uint64
}

func observeMax(v float64) {
	for {
		old := twinStats.maxBits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if twinStats.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Stats is a snapshot of the deviation telemetry, the twin block of
// avgserve's /v1/metrics.
type Stats struct {
	Evals          int64   `json:"evals"`
	Rows           int64   `json:"rows"`
	NoModel        int64   `json:"no_model"`
	MaxAbsLogRatio float64 `json:"max_abs_log_ratio"`
}

// Snapshot returns the current deviation telemetry.
func Snapshot() Stats {
	return Stats{
		Evals:          twinStats.evals.Load(),
		Rows:           twinStats.rows.Load(),
		NoModel:        twinStats.noModel.Load(),
		MaxAbsLogRatio: math.Float64frombits(twinStats.maxBits.Load()),
	}
}

// resetStats zeroes the telemetry; test-only (the golden exposition test
// needs a deterministic starting point).
func resetStats() {
	twinStats.evals.Store(0)
	twinStats.rows.Store(0)
	twinStats.noModel.Store(0)
	twinStats.maxBits.Store(0)
}

// RegisterMetrics names the deviation telemetry on a metrics registry
// (Prometheus exposition plus avgserve's JSON mirror).
func RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("avg_twin_evals_total", "Sweeps evaluated against an analytical twin model.", twinStats.evals.Load)
	r.CounterFunc("avg_twin_rows_total", "Sweep rows that received a twin prediction.", twinStats.rows.Load)
	r.CounterFunc("avg_twin_no_model_total", "Twin evaluations that found no catalogue model (degraded, not errored).", twinStats.noModel.Load)
	r.GaugeFunc("avg_twin_max_abs_log_ratio", "Largest |log2(measured/predicted)| observed since process start.", func() float64 {
		return math.Float64frombits(twinStats.maxBits.Load())
	})
}

// Validate checks a model's internal consistency; the catalogue test runs
// it over every shipped entry.
func (m *Model) Validate() error {
	valid := false
	for _, c := range Curves() {
		if m.Curve == c {
			valid = true
		}
	}
	if !valid {
		return fmt.Errorf("twin: model %s/%s %s: unknown curve %q", m.Algorithm, m.Family, m.Measure, m.Curve)
	}
	ok := false
	for _, meas := range Measures() {
		if m.Measure == meas {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("twin: model %s/%s: unknown measure %q", m.Algorithm, m.Family, m.Measure)
	}
	if m.A < 0 || m.B < 0 || (m.A == 0 && m.B == 0) {
		return fmt.Errorf("twin: model %s/%s %s: constants A=%g B=%g must be non-negative and not both zero", m.Algorithm, m.Family, m.Measure, m.A, m.B)
	}
	if m.NMin < 0 || (m.NMax > 0 && m.NMax < m.NMin) {
		return fmt.Errorf("twin: model %s/%s %s: invalid validity range [%g, %g]", m.Algorithm, m.Family, m.Measure, m.NMin, m.NMax)
	}
	return nil
}
