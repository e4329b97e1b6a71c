package campaign

import (
	"fmt"
	"math"

	"avgloc/internal/fit"
	"avgloc/internal/registry"
	"avgloc/internal/scenario"
)

// DeltaOf derives the maximum degree Δ from a graph family's effective
// parameters: the d parameter where the family declares one, the known
// constant for degree-fixed families. Families whose Δ is not derivable
// report false — catalogue models only exist where it is.
func DeltaOf(family string, params registry.Values) (float64, bool) {
	if d, ok := params["d"]; ok && d > 0 {
		return d, true
	}
	switch family {
	case "cycle", "path":
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

// SweepEval is a frozen model's verdict-ready summary of one sweep:
// per-row predictions and the worst deviation across the sweep.
type SweepEval struct {
	Algorithm string    `json:"algorithm"`
	Family    string    `json:"family"`
	Measure   string    `json:"measure"`
	Curve     string    `json:"curve"`
	Note      string    `json:"note,omitempty"`
	Rows      []RowEval `json:"rows"`
	// MaxAbsLogRatio is max over rows of |log₂(measured/predicted)|: 0
	// means every row sits on the curve, 1 means some row is off by 2×.
	MaxAbsLogRatio float64 `json:"max_abs_log_ratio"`
	// WorstRow indexes the row attaining MaxAbsLogRatio.
	WorstRow int `json:"worst_row"`
	// OutOfRange counts rows the model makes no prediction for, skipped
	// rather than judged.
	OutOfRange int `json:"out_of_range,omitempty"`
}

// ratioEps floors a ratio before taking its log so a degenerate
// measurement cannot produce ±Inf (which JSON cannot carry).
const ratioEps = 1e-12

// EvalSweep evaluates a frozen model beside every point of a sweep.
func EvalSweep(m *fit.Frozen, pts []Point) *SweepEval {
	ev := &SweepEval{Algorithm: m.Algorithm, Family: m.Family, Measure: m.Measure, Curve: m.Curve(), Note: m.Note}
	worstAbs := -1.0
	for _, p := range pts {
		pred, ok := m.Predict(p.N, p.Delta)
		if !ok {
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
	return ev
}

// twinSweep evaluates the frozen model beside an outcome's rows for a
// measure; nil when the catalogue has no model for the scenario's
// (algorithm, family, measure).
func twinSweep(measure string, out *scenario.Outcome) *SweepEval {
	if out.Spec == nil {
		return nil
	}
	m, ok := fit.Lookup(out.Spec.Algorithm, out.Spec.Graph, measure)
	if !ok {
		return nil
	}
	pts := make([]Point, 0, len(out.Rows))
	for _, row := range out.Rows {
		delta, ok := DeltaOf(out.Spec.Graph, row.Params)
		if !ok {
			continue
		}
		pts = append(pts, Point{N: float64(row.Nodes), Delta: delta, Measured: measureValue(row.Report, measure)})
	}
	return EvalSweep(m, pts)
}

// evalWithinTwin judges a within_twin claim against the twin's sweep
// evaluation. It reuses fit's refusal discipline: a sweep with fewer than
// fit.DefaultMinRows in-range rows, or a realized size spread under
// fit.DefaultMinSpread, could not have left the band and must not confirm
// it.
func evalWithinTwin(h *Hypothesis, out *scenario.Outcome, tw *SweepEval) (Verdict, string) {
	if tw == nil {
		alg, fam := "?", "?"
		if out.Spec != nil {
			alg, fam = out.Spec.Algorithm, out.Spec.Graph
		}
		return Inconclusive, fmt.Sprintf("within_twin: no twin model for %s on %s %s", alg, fam, h.Measure)
	}
	if len(tw.Rows) < fit.DefaultMinRows {
		return Inconclusive, fmt.Sprintf("within_twin: only %d in-range rows, need %d", len(tw.Rows), fit.DefaultMinRows)
	}
	nMin, nMax := tw.Rows[0].N, tw.Rows[0].N
	lo, hi, worst := tw.Rows[0].Ratio, tw.Rows[0].Ratio, 0
	for i, r := range tw.Rows {
		if r.N < nMin {
			nMin = r.N
		}
		if r.N > nMax {
			nMax = r.N
		}
		if r.Ratio < lo {
			lo = r.Ratio
		}
		if r.Ratio > hi {
			hi = r.Ratio
		}
		if r.Ratio < h.WithinTwin.Min || r.Ratio > h.WithinTwin.Max {
			worst = i
		}
	}
	if nMin <= 0 || nMax/nMin < fit.DefaultMinSpread {
		return Inconclusive, fmt.Sprintf("within_twin: size spread %.2g below %.2g", nMax/nMin, fit.DefaultMinSpread)
	}
	if lo >= h.WithinTwin.Min && hi <= h.WithinTwin.Max {
		return Confirmed, fmt.Sprintf("within_twin ratios [%.3f, %.3f] within [%.3g, %.3g] (curve %s, max |log2| %.2f)",
			lo, hi, h.WithinTwin.Min, h.WithinTwin.Max, tw.Curve, tw.MaxAbsLogRatio)
	}
	return Rejected, fmt.Sprintf("within_twin ratios [%.3f, %.3f] leave [%.3g, %.3g] at n=%.0f (ratio %.3f)",
		lo, hi, h.WithinTwin.Min, h.WithinTwin.Max, tw.Rows[worst].N, tw.Rows[worst].Ratio)
}
