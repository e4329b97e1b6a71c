package campaign

import (
	"math"
	"strings"
	"testing"

	"avgloc/internal/fit"
	"avgloc/internal/registry"
	"avgloc/internal/scenario"
)

// lubyOutcome is a synthetic executed outcome whose spec the frozen model
// catalogue has a model for (mis/luby on cycles, node_avg Const).
func lubyOutcome(ns []int, vals []float64) *scenario.Outcome {
	out := outcomeWith(ns, vals)
	out.Spec = &scenario.Spec{Graph: "cycle", Algorithm: "mis/luby"}
	return out
}

func TestWithinTwinConfirmed(t *testing.T) {
	h := &Hypothesis{Measure: MeasureNodeAvg, WithinTwin: &TwinBound{Min: 0.5, Max: 2}}
	res := evalCampaign(t, h, lubyOutcome(sizes(), []float64{1.95, 1.99, 1.96, 2.01, 1.97}), nil)
	if res.Verdict != Confirmed {
		t.Fatalf("on-curve data: %s (%s)", res.Verdict, res.Detail)
	}
	if !strings.Contains(res.Detail, "within_twin ratios") || !strings.Contains(res.Detail, "curve const") {
		t.Fatalf("detail drifted: %s", res.Detail)
	}
	if res.Twin == nil || res.Twin.Measure != MeasureNodeAvg || len(res.Twin.Rows) != 5 {
		t.Fatalf("twin block missing or wrong: %+v", res.Twin)
	}
}

func TestWithinTwinRejected(t *testing.T) {
	h := &Hypothesis{Measure: MeasureNodeAvg, WithinTwin: &TwinBound{Min: 0.5, Max: 2}}
	res := evalCampaign(t, h, lubyOutcome(sizes(), []float64{10, 10, 10, 10, 10}), nil)
	if res.Verdict != Rejected {
		t.Fatalf("5x-off data: %s (%s)", res.Verdict, res.Detail)
	}
	if !strings.Contains(res.Detail, "leave [0.5, 2]") {
		t.Fatalf("detail drifted: %s", res.Detail)
	}
}

func TestWithinTwinInconclusive(t *testing.T) {
	h := &Hypothesis{Measure: MeasureNodeAvg, WithinTwin: &TwinBound{Min: 0.5, Max: 2}}

	// No catalogue model for this (algorithm, family): refuse, don't judge.
	noModel := outcomeWith(sizes(), []float64{2, 2, 2, 2, 2})
	noModel.Spec = &scenario.Spec{Graph: "tree", Algorithm: "mis/luby"}
	res := evalCampaign(t, h, noModel, nil)
	if res.Verdict != Inconclusive || !strings.Contains(res.Detail, "no twin model") {
		t.Fatalf("no model: %s (%s)", res.Verdict, res.Detail)
	}
	if res.Twin != nil {
		t.Fatalf("twin block invented: %+v", res.Twin)
	}

	// Too few rows.
	res = evalCampaign(t, h, lubyOutcome([]int{256, 65536}, []float64{2, 2}), nil)
	if res.Verdict != Inconclusive || !strings.Contains(res.Detail, "need 4") {
		t.Fatalf("2 rows: %s (%s)", res.Verdict, res.Detail)
	}

	// A narrow size spread could not have left the band.
	res = evalCampaign(t, h, lubyOutcome([]int{256, 260, 270, 280}, []float64{2, 2, 2, 2}), nil)
	if res.Verdict != Inconclusive || !strings.Contains(res.Detail, "spread") {
		t.Fatalf("narrow sweep: %s (%s)", res.Verdict, res.Detail)
	}

	// Rows below the model's validity floor do not count toward the gate.
	res = evalCampaign(t, h, lubyOutcome([]int{4, 8, 16, 256, 65536}, []float64{2, 2, 2, 2, 2}), nil)
	if res.Verdict != Inconclusive || !strings.Contains(res.Detail, "in-range rows") {
		t.Fatalf("out-of-range rows: %s (%s)", res.Verdict, res.Detail)
	}
}

// TestWithinTwinComposesWithExpect checks the conjunction fold: a
// confirmed fit claim plus a rejected twin claim rejects the hypothesis.
func TestWithinTwinComposesWithExpect(t *testing.T) {
	h := &Hypothesis{Measure: MeasureNodeAvg, Expect: fit.Const, WithinTwin: &TwinBound{Min: 0.5, Max: 2}}
	res := evalCampaign(t, h, lubyOutcome(sizes(), []float64{10, 10.1, 9.9, 10.05, 9.95}), nil)
	if res.Verdict != Rejected {
		t.Fatalf("flat-but-off-curve data: %s (%s)", res.Verdict, res.Detail)
	}
	if !strings.Contains(res.Detail, "best fit const") || !strings.Contains(res.Detail, "within_twin") {
		t.Fatalf("detail lost a claim: %s", res.Detail)
	}
}

// TestTwinBlockAttachedWithoutClaim checks that a hypothesis without a
// within_twin bound still carries the twin's evaluation when the
// catalogue has a model — observability is not gated on making a claim.
func TestTwinBlockAttachedWithoutClaim(t *testing.T) {
	h := &Hypothesis{Measure: MeasureNodeAvg, Expect: fit.Const}
	res := evalCampaign(t, h, lubyOutcome(sizes(), []float64{1.97, 1.97, 1.97, 1.97, 1.97}), nil)
	if res.Verdict != Confirmed {
		t.Fatalf("flat data: %s (%s)", res.Verdict, res.Detail)
	}
	if res.Twin == nil || res.Twin.Curve != "const" {
		t.Fatalf("twin block not attached: %+v", res.Twin)
	}
	if strings.Contains(res.Detail, "within_twin") {
		t.Fatalf("unclaimed twin leaked into the verdict detail: %s", res.Detail)
	}
}

func TestValidateWithinTwin(t *testing.T) {
	good := scenario.Spec{Graph: "cycle", Algorithm: "mis/luby"}
	ok := Campaign{Scenarios: []Item{{Name: "a", Spec: good,
		Hypothesis: &Hypothesis{Measure: MeasureNodeAvg, WithinTwin: &TwinBound{Min: 0.5, Max: 2}}}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("within_twin-only hypothesis rejected: %v", err)
	}
	bad := []*TwinBound{
		{Min: 0, Max: 2},
		{Min: -1, Max: 2},
		{Min: 2, Max: 2},
		{Min: 2, Max: 0.5},
	}
	for _, b := range bad {
		c := Campaign{Scenarios: []Item{{Name: "a", Spec: good,
			Hypothesis: &Hypothesis{Measure: MeasureNodeAvg, WithinTwin: b}}}}
		if err := c.Validate(); err == nil {
			t.Errorf("bound %+v accepted", b)
		}
	}
}

func TestDeltaOf(t *testing.T) {
	if d, ok := DeltaOf("regular", registry.Values{"d": 6}); !ok || d != 6 {
		t.Fatalf("regular d=6: got %g, %v", d, ok)
	}
	if d, ok := DeltaOf("cycle", registry.Values{}); !ok || d != 2 {
		t.Fatalf("cycle: got %g, %v", d, ok)
	}
	if d, ok := DeltaOf("path", registry.Values{}); !ok || d != 2 {
		t.Fatalf("path: got %g, %v", d, ok)
	}
	if _, ok := DeltaOf("tree", registry.Values{}); ok {
		t.Fatal("tree should have no derivable delta")
	}
	// Every catalogue model's family must yield a Δ, or nobody can
	// evaluate the model.
	for _, m := range []struct{ alg, fam, measure string }{
		{"ruling/rand22", "regular", MeasureNodeAvg},
		{"matching/randluby", "regular", MeasureEdgeAvg},
		{"mis/luby", "cycle", MeasureNodeAvg},
		{"mis/det-coloring", "cycle", MeasureNodeAvg},
		{"orient/rand-marking", "regular", MeasureNodeAvg},
	} {
		if _, ok := fit.Lookup(m.alg, m.fam, m.measure); !ok {
			t.Errorf("catalogue lost %s on %s %s", m.alg, m.fam, m.measure)
		}
		if _, ok := DeltaOf(m.fam, registry.Values{"d": 3}); !ok {
			t.Errorf("%s: delta not derivable for family %q", m.alg, m.fam)
		}
	}
}

// TestEvalSweep pins the ratio arithmetic, worst-row selection, and
// out-of-range skipping against the shipped mis/det-coloring model.
func TestEvalSweep(t *testing.T) {
	m, ok := fit.Lookup("mis/det-coloring", "cycle", MeasureNodeAvg)
	if !ok {
		t.Fatal("catalogue lost the det cycle MIS model")
	}
	pred, _ := m.Predict(256, 2) // log* 256 = 4
	pts := []Point{
		{N: 16, Delta: 2, Measured: 5},          // below NMin=32: skipped
		{N: 256, Delta: 2, Measured: pred},      // ratio exactly 1
		{N: 1024, Delta: 2, Measured: 2 * pred}, // ratio 2 — the worst row
		{N: 1 << 21, Delta: 2, Measured: 1},     // above NMax: skipped
	}
	ev := EvalSweep(m, pts)
	if len(ev.Rows) != 2 || ev.OutOfRange != 2 {
		t.Fatalf("rows=%d outOfRange=%d, want 2/2", len(ev.Rows), ev.OutOfRange)
	}
	if ev.Rows[0].Ratio != 1 {
		t.Fatalf("on-curve row ratio = %g, want 1", ev.Rows[0].Ratio)
	}
	if ev.WorstRow != 1 || math.Abs(ev.MaxAbsLogRatio-1) > 1e-9 {
		t.Fatalf("worst row %d max|log2| %g, want 1 / 1", ev.WorstRow, ev.MaxAbsLogRatio)
	}
	if ev.Curve != "logstar" || ev.Algorithm != "mis/det-coloring" || !strings.Contains(ev.Note, "Feu20") {
		t.Fatalf("sweep lost model identity: %+v", ev)
	}
}

// TestEvalSweepDegenerateRatio checks that a zero measurement cannot
// produce an infinite log-ratio (JSON cannot carry ±Inf).
func TestEvalSweepDegenerateRatio(t *testing.T) {
	m, ok := fit.Lookup("mis/luby", "cycle", MeasureNodeAvg)
	if !ok {
		t.Fatal("catalogue lost the luby model")
	}
	ev := EvalSweep(m, []Point{{N: 256, Delta: 2, Measured: 0}})
	if math.IsInf(ev.MaxAbsLogRatio, 0) || math.IsNaN(ev.MaxAbsLogRatio) {
		t.Fatalf("degenerate measurement produced non-finite deviation %g", ev.MaxAbsLogRatio)
	}
}
