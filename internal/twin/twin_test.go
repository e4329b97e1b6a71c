package twin

import (
	"math"
	"strings"
	"testing"

	"avgloc/internal/core"
	"avgloc/internal/registry"
)

// TestPredictCurves pins every curve class's closed form, including the
// Δ-capped LogDelta form and the piecewise-min sinkless-orientation form.
func TestPredictCurves(t *testing.T) {
	cases := []struct {
		name  string
		m     Model
		n     float64
		delta float64
		want  float64
	}{
		{"const ignores n and delta", Model{Curve: Const, A: 3.5, B: 99}, 4096, 64, 3.5},
		{"logstar n=2", Model{Curve: LogStar, A: 1, B: 2}, 2, 2, 1 + 2*1},
		{"logstar n=16", Model{Curve: LogStar, A: 0, B: 2}, 16, 2, 2 * 3},
		{"logstar n=256", Model{Curve: LogStar, A: 1, B: 2}, 256, 2, 1 + 2*4},
		{"logstar n=65536", Model{Curve: LogStar, A: 0, B: 4.65}, 65536, 2, 4.65 * 4},
		{"loglog n=65536", Model{Curve: LogLog, A: 1, B: 3}, 65536, 2, 1 + 3*4},
		{"loglog clamps at small n", Model{Curve: LogLog, A: 0, B: 3}, 3, 2, 3 * 1},
		{"log n=1024", Model{Curve: Log, A: 2, B: 0.5}, 1024, 2, 2 + 0.5*10},
		{"log clamps at n=2", Model{Curve: Log, A: 0, B: 5}, 2, 2, 5 * 1},
		{"logd delta=8", Model{Curve: LogDelta, A: 1, B: 2}, 4096, 8, 1 + 2*3},
		{"logd clamps delta<2 to floor", Model{Curve: LogDelta, A: 0, B: 2}, 4096, 1, 2 * 1},
		{"min: delta term binds", Model{Curve: MinLogDLogLogN, A: 0, B: 2}, 1 << 16, 3, 2 * math.Log2(3)},
		{"min: loglog term binds", Model{Curve: MinLogDLogLogN, A: 1, B: 2}, 256, 1024, 1 + 2*3},
		{"min: tie at delta=16 n=65536", Model{Curve: MinLogDLogLogN, A: 0, B: 1}, 65536, 16, 4},
		{"unknown curve predicts 0", Model{Curve: Curve("bogus"), A: 7}, 100, 4, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.m.Predict(tc.n, tc.delta)
			if math.Abs(got-tc.want) > 1e-9 {
				t.Fatalf("Predict(%g, %g) = %g, want %g", tc.n, tc.delta, got, tc.want)
			}
		})
	}
}

// TestCatalogue validates every shipped model and checks that its Δ is
// derivable from its family — a catalogue entry nobody can evaluate is a
// bug.
func TestCatalogue(t *testing.T) {
	models := Models()
	if len(models) < 5 {
		t.Fatalf("catalogue has %d models, want >= 5", len(models))
	}
	for _, m := range models {
		if err := m.Validate(); err != nil {
			t.Error(err)
		}
		params := registry.Values{}
		if m.Family == "regular" {
			params["d"] = 3
		}
		if _, ok := DeltaOf(m.Family, params); !ok {
			t.Errorf("model %s/%s: delta not derivable for family %q", m.Algorithm, m.Family, m.Family)
		}
		got, ok := Lookup(m.Algorithm, m.Family, m.Measure)
		if !ok || got.Curve != m.Curve {
			t.Errorf("Lookup(%s, %s, %s) does not round-trip", m.Algorithm, m.Family, m.Measure)
		}
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	bad := []Model{
		{Algorithm: "x", Family: "y", Measure: "node_avg", Curve: Curve("nope"), A: 1},
		{Algorithm: "x", Family: "y", Measure: "median", Curve: Const, A: 1},
		{Algorithm: "x", Family: "y", Measure: "node_avg", Curve: Const, A: 0, B: 0},
		{Algorithm: "x", Family: "y", Measure: "node_avg", Curve: Const, A: -1},
		{Algorithm: "x", Family: "y", Measure: "node_avg", Curve: Const, A: 1, NMin: 100, NMax: 10},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %d: Validate accepted %+v", i, m)
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
}

func TestMeasureValue(t *testing.T) {
	rep := &core.Report{NodeAvg: 1.5, EdgeAvg: 2.5, WorstMean: 9}
	for _, tc := range []struct {
		measure string
		want    float64
	}{{"node_avg", 1.5}, {"edge_avg", 2.5}, {"worst", 9}} {
		got, ok := MeasureValue(rep, tc.measure)
		if !ok || got != tc.want {
			t.Fatalf("MeasureValue(%s) = %g, %v", tc.measure, got, ok)
		}
	}
	if _, ok := MeasureValue(rep, "median"); ok {
		t.Fatal("unknown measure should report false")
	}
}

// TestEvalSweep pins the ratio arithmetic, worst-row selection, and
// out-of-range skipping against the shipped mis/det-coloring model.
func TestEvalSweep(t *testing.T) {
	m, ok := Lookup("mis/det-coloring", "cycle", "node_avg")
	if !ok {
		t.Fatal("catalogue lost the det cycle MIS model")
	}
	pred := m.Predict(256, 2) // log* 256 = 4
	pts := []Point{
		{N: 16, Delta: 2, Measured: 5},          // below NMin=32: skipped
		{N: 256, Delta: 2, Measured: pred},      // ratio exactly 1
		{N: 1024, Delta: 2, Measured: 2 * pred}, // ratio 2 — the worst row
		{N: 1 << 21, Delta: 2, Measured: 1},     // above NMax: skipped
	}
	ev, ok := EvalSweep("mis/det-coloring", "cycle", "node_avg", pts)
	if !ok {
		t.Fatal("EvalSweep missed a catalogue model")
	}
	if len(ev.Rows) != 2 || ev.OutOfRange != 2 {
		t.Fatalf("rows=%d outOfRange=%d, want 2/2", len(ev.Rows), ev.OutOfRange)
	}
	if ev.Rows[0].Ratio != 1 {
		t.Fatalf("on-curve row ratio = %g, want 1", ev.Rows[0].Ratio)
	}
	if ev.WorstRow != 1 || math.Abs(ev.MaxAbsLogRatio-1) > 1e-9 {
		t.Fatalf("worst row %d max|log2| %g, want 1 / 1", ev.WorstRow, ev.MaxAbsLogRatio)
	}
	if ev.Curve != LogStar || !strings.Contains(ev.Note, "Feu20") {
		t.Fatalf("sweep lost model identity: %+v", ev)
	}

	if _, ok := EvalSweep("mis/det-coloring", "hypercube", "node_avg", pts); ok {
		t.Fatal("unknown family should report no model")
	}
}

// TestEvalSweepDegenerateRatio checks that a zero measurement cannot
// produce an infinite log-ratio (JSON cannot carry ±Inf).
func TestEvalSweepDegenerateRatio(t *testing.T) {
	pts := []Point{{N: 256, Delta: 2, Measured: 0}}
	ev, ok := EvalSweep("mis/luby", "cycle", "node_avg", pts)
	if !ok {
		t.Fatal("EvalSweep missed the luby model")
	}
	if math.IsInf(ev.MaxAbsLogRatio, 0) || math.IsNaN(ev.MaxAbsLogRatio) {
		t.Fatalf("degenerate measurement produced non-finite deviation %g", ev.MaxAbsLogRatio)
	}
}
