package fit

import "math"

// Frozen is a model whose constants were fitted once and are never
// refitted: the closed form the paper predicts for one (algorithm, graph
// family, measure) triple. Where Fit asks "which growth class does this
// sweep belong to?", a frozen model asks "does this sweep still sit where
// the closed form says?" — a drifting measurement shows up as a drifting
// measured/predicted ratio instead of being absorbed by a fresh fit.
type Frozen struct {
	Algorithm string
	Family    string
	Measure   string
	Model
	// DeltaCap caps the growth term at log₂ Δ, the piecewise-min form
	// a + b·min(log₂ Δ, f(n)) of degree-bounded headlines.
	DeltaCap bool
	// NMin/NMax bound the realized graph sizes the model claims to
	// predict; sizes outside get no prediction.
	NMin, NMax float64
	// Note points at the paper statement behind the curve.
	Note string
}

// Curve names the closed form: the growth class, or min_logd_<class>n
// under the Δ cap.
func (m *Frozen) Curve() string {
	if m.DeltaCap {
		return "min_logd_" + string(m.Class) + "n"
	}
	return string(m.Class)
}

// Predict evaluates the closed form at graph size n and maximum degree
// delta. The second return is false when n lies outside the validity range
// or the prediction is not positive, so no ratio can be taken.
func (m *Frozen) Predict(n, delta float64) (float64, bool) {
	if (m.NMin > 0 && n < m.NMin) || (m.NMax > 0 && n > m.NMax) {
		return 0, false
	}
	f := eval(m.Class, m.Alpha, n)
	if m.DeltaCap {
		f = math.Min(math.Max(math.Log2(math.Max(delta, 2)), 1), f)
	}
	pred := m.Intercept + m.Coeff*f
	return pred, pred > 0
}

// catalogue holds the shipped models. Scale constants are fitted once
// against campaigns/paper.json at its quick scale (seed 42) — see the
// README's "Analytical twin" section for the calibration procedure.
var catalogue = []Frozen{
	{
		Algorithm: "ruling/rand22", Family: "regular", Measure: "node_avg",
		Model: Model{Class: Const, Intercept: 3.41}, NMin: 32, NMax: 1 << 20,
		Note: "Thm 2: (2,2)-ruling sets have node-averaged complexity O(1)",
	},
	{
		Algorithm: "matching/randluby", Family: "regular", Measure: "edge_avg",
		Model: Model{Class: Const, Intercept: 21.56}, NMin: 32, NMax: 1 << 20,
		Note: "Thm 4: randomized maximal matching has edge-averaged complexity O(1)",
	},
	{
		Algorithm: "mis/luby", Family: "cycle", Measure: "node_avg",
		Model: Model{Class: Const, Intercept: 1.97}, NMin: 32, NMax: 1 << 20,
		Note: "[Feu20] via §3: randomized MIS on cycles is node-averaged O(1)",
	},
	{
		Algorithm: "mis/det-coloring", Family: "cycle", Measure: "node_avg",
		Model: Model{Class: LogStar, Coeff: 4.65}, NMin: 32, NMax: 1 << 20,
		Note: "[Feu20]: deterministic MIS on cycles is node-averaged Θ(log* n)",
	},
	{
		Algorithm: "orient/rand-marking", Family: "regular", Measure: "node_avg",
		Model: Model{Class: LogLog, Coeff: 1.53}, DeltaCap: true, NMin: 32, NMax: 1 << 20,
		Note: "§3.3 headline: sinkless orientation is node-averaged O(min(log Δ, log log n))",
	},
}

// Lookup finds the frozen model of an (algorithm, family, measure) triple.
// A miss is the expected answer for most triples — callers degrade to "no
// model", never to an error.
func Lookup(algorithm, family, measure string) (*Frozen, bool) {
	for i := range catalogue {
		m := &catalogue[i]
		if m.Algorithm == algorithm && m.Family == family && m.Measure == measure {
			return m, true
		}
	}
	return nil, false
}
